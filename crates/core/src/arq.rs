//! Retransmission timing (§2.3 "Encoding ID and ACKs").
//!
//! The paper's only retransmission primitive is the single-tone ACK — all
//! transmit power on one subcarrier, decodable without channel knowledge.
//! Reliable delivery is built on it in one place per job: the
//! selective-repeat loop of [`crate::bulk`] (block ACKs of tone symbols)
//! and the relay's per-hop custody transfer in `aqua-net`. This module
//! holds their timing: [`RttEstimator`], the RFC 6298 retransmission
//! timeout with capped, jittered backoff that both pace retries with, and
//! [`attempt_airtime_s`], the airtime one packet exchange costs.

use aqua_phy::frame::FrameConfig;

/// Retry backoff exponent cap: timeouts never exceed `2^BACKOFF_CAP`
/// times the base RTO (before the absolute ceiling).
pub const BACKOFF_CAP: u32 = 6;

/// RTT / loss estimator feeding an adaptive retransmission timeout:
/// RFC 6298-style smoothed RTT and variance, capped exponential backoff
/// on loss, and *decorrelated jitter* on the emitted waits so repeated
/// retries of many senders (or many probe attempts of one sender) do not
/// synchronize. Fully deterministic for a given seed and observation
/// sequence — the timeout stream is part of the reproducibility contract.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    srtt_s: Option<f64>,
    rttvar_s: f64,
    backoff: u32,
    /// Previous emitted wait, the anchor of decorrelated jitter.
    prev_wait_s: f64,
    /// xorshift64 state for the jitter draws.
    rng: u64,
    min_rto_s: f64,
    max_rto_s: f64,
}

impl RttEstimator {
    /// A fresh estimator. `min_rto_s`/`max_rto_s` clamp every emitted
    /// timeout; `seed` drives the jitter stream.
    pub fn new(seed: u64, min_rto_s: f64, max_rto_s: f64) -> Self {
        Self {
            srtt_s: None,
            rttvar_s: 0.0,
            backoff: 0,
            prev_wait_s: min_rto_s,
            rng: seed | 1,
            min_rto_s,
            max_rto_s,
        }
    }

    /// Records a measured round-trip time (a delivery was acknowledged):
    /// RFC 6298 SRTT/RTTVAR update, and the loss backoff resets.
    pub fn observe_rtt(&mut self, rtt_s: f64) {
        match self.srtt_s {
            None => {
                self.srtt_s = Some(rtt_s);
                self.rttvar_s = rtt_s / 2.0;
            }
            Some(srtt) => {
                self.rttvar_s = 0.75 * self.rttvar_s + 0.25 * (srtt - rtt_s).abs();
                self.srtt_s = Some(0.875 * srtt + 0.125 * rtt_s);
            }
        }
        self.backoff = 0;
        self.prev_wait_s = self.base_rto_s();
    }

    /// Records a loss (no ACK inside the window): the backoff exponent
    /// grows, capped at [`BACKOFF_CAP`].
    pub fn observe_loss(&mut self) {
        self.backoff = (self.backoff + 1).min(BACKOFF_CAP);
    }

    /// Current backoff exponent.
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// The un-jittered retransmission timeout: `srtt + 4·rttvar` scaled
    /// by the backoff, clamped to the configured bounds.
    pub fn base_rto_s(&self) -> f64 {
        let rto = match self.srtt_s {
            Some(srtt) => srtt + 4.0 * self.rttvar_s,
            None => self.min_rto_s,
        };
        (rto * f64::from(1u32 << self.backoff)).clamp(self.min_rto_s, self.max_rto_s)
    }

    /// Draws the next wait: decorrelated jitter, `uniform(base, 3·prev)`
    /// clamped to `[base, max]`. Consecutive draws under sustained loss
    /// grow geometrically toward the cap without ever synchronizing.
    pub fn next_wait_s(&mut self) -> f64 {
        let base = self.base_rto_s();
        let hi = (self.prev_wait_s * 3.0).clamp(base, self.max_rto_s);
        // xorshift64 → uniform in [0, 1)
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let u = (self.rng >> 11) as f64 / (1u64 << 53) as f64;
        let wait = base + (hi - base) * u;
        self.prev_wait_s = wait;
        wait
    }
}

/// Airtime of one transmission attempt, excluding the ACK phase: header +
/// feedback gap, plus the data section when one was transmitted on a band
/// of `band_bins` subcarriers.
pub fn attempt_airtime_s(frame: &FrameConfig, band_bins: usize, data_phase: bool) -> f64 {
    let params = frame.params;
    let mut samples = frame.data_start_offset();
    if data_phase {
        let band = aqua_phy::bandselect::Band::new(0, band_bins.max(1) - 1);
        samples +=
            aqua_phy::ofdm::data_symbols(&params, band, frame.payload_bits) * params.symbol_len();
    }
    samples as f64 / params.fs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_estimator_tracks_and_backs_off() {
        let mut est = RttEstimator::new(42, 0.1, 16.0);
        // no samples yet: RTO sits at the floor
        assert!((est.base_rto_s() - 0.1).abs() < 1e-12);
        est.observe_rtt(1.0);
        // first sample: srtt = 1.0, rttvar = 0.5 ⇒ rto = 3.0
        assert!((est.base_rto_s() - 3.0).abs() < 1e-12);
        // losses double the RTO each time, capped
        est.observe_loss();
        assert!((est.base_rto_s() - 6.0).abs() < 1e-12);
        for _ in 0..20 {
            est.observe_loss();
        }
        assert_eq!(est.backoff(), BACKOFF_CAP);
        assert!((est.base_rto_s() - 16.0).abs() < 1e-12, "ceiling clamps");
        // a fresh RTT sample clears the backoff
        est.observe_rtt(1.0);
        assert_eq!(est.backoff(), 0);
        assert!(est.base_rto_s() < 4.0);
    }

    #[test]
    fn estimator_waits_are_jittered_deterministic_and_bounded() {
        let draw = |seed: u64| -> Vec<f64> {
            let mut est = RttEstimator::new(seed, 0.5, 16.0);
            est.observe_rtt(0.8);
            (0..8)
                .map(|_| {
                    est.observe_loss();
                    est.next_wait_s()
                })
                .collect()
        };
        let a = draw(7);
        let b = draw(7);
        assert_eq!(a, b, "same seed ⇒ identical wait stream");
        let c = draw(8);
        assert_ne!(a, c, "different seed ⇒ different jitter");
        for (i, &w) in a.iter().enumerate() {
            assert!(w >= 0.5 && w <= 16.0, "wait {i} out of bounds: {w}");
        }
        // sustained loss must grow the waits toward the cap overall
        assert!(
            a.last().unwrap() > a.first().unwrap(),
            "backoff must grow waits: {a:?}"
        );
    }
}
