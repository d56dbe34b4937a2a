//! MAC network simulation for the collision experiments (Fig. 19).
//!
//! The Fig. 19 experiment spans minutes of wall-clock audio (120 packets ×
//! several transmitters) — too long to render sample-by-sample. Since
//! carrier-sense decisions depend only on 80 ms *energy* averages, the
//! simulator works at the energy-envelope level: per 80 ms slot, the energy
//! a node senses is the sum of active transmitters' link-budget gains plus
//! its noise floor. The link budget comes from the same channel model as
//! the waveform path (see [`crate::budget`]); the waveform-level
//! [`crate::carrier::CarrierSense`] is validated against real rendered
//! audio in its own tests.
//!
//! [`simulate`] runs this slot model on the event-driven core of
//! [`crate::ocean::event`], which touches a node only at the slots where
//! its state changes. A direct slot-stepped loop over every node and every
//! slot is kept as the test oracle in `mac/tests/support/slot_oracle.rs`,
//! and the event core is pinned bit-identical to it by the `ocean::event`
//! unit tests and `mac/tests/ocean_equivalence.rs`.
//!
//! Collisions are accounted exactly as in the paper: two packets whose
//! start times fall within one packet duration of each other collide; the
//! collision fraction is the number of packets involved in any collision
//! divided by the total sent.

use crate::ocean::event::{DenseMedium, EventCore, Medium, SimHooks};

/// MAC simulation parameters.
#[derive(Debug, Clone)]
pub struct MacConfig {
    /// Sensing slot duration (seconds). The paper senses every 80 ms.
    pub slot_s: f64,
    /// Packet duration in seconds (header + feedback gap + data).
    pub packet_duration_s: f64,
    /// Packets each transmitter wants to send (paper: up to 120).
    pub max_packets: usize,
    /// Uniform range for the initial random delay, in seconds ("a random
    /// backoff period of multiple seconds").
    pub initial_delay_s: (f64, f64),
    /// Uniform range of the idle gap between a node's packets, in seconds.
    pub inter_packet_gap_s: (f64, f64),
    /// Whether carrier sense is enabled (the Fig. 19 comparison axis).
    pub carrier_sense: bool,
    /// Busy threshold as a linear power multiple of the node's noise floor.
    pub threshold_margin: f64,
    /// Random backoff drawn when the channel reads busy, in packet
    /// durations (inclusive range).
    pub cs_backoff_packets: (u32, u32),
}

impl Default for MacConfig {
    fn default() -> Self {
        Self {
            slot_s: 0.08,
            packet_duration_s: 0.55,
            max_packets: 120,
            initial_delay_s: (0.5, 5.0),
            inter_packet_gap_s: (0.2, 2.5),
            carrier_sense: true,
            threshold_margin: 4.0,
            cs_backoff_packets: (1, 4),
        }
    }
}

/// Result of a MAC simulation run.
#[derive(Debug, Clone)]
pub struct MacResult {
    /// Packet start times per transmitter (seconds).
    pub tx_times: Vec<Vec<f64>>,
    /// Fraction of packets involved in a collision (the paper's metric).
    pub collision_fraction: f64,
    /// Per-transmitter collision fractions.
    pub per_tx_collision_fraction: Vec<f64>,
    /// Total simulated time (seconds).
    pub duration_s: f64,
}

/// Hooks that only log each node's packet start times.
struct TxLog {
    tx_times: Vec<Vec<f64>>,
}

impl SimHooks for TxLog {
    fn on_transmit(&mut self, node: usize, t_s: f64, _access_delay_s: f64) {
        self.tx_times[node].push(t_s);
    }
}

/// Runs the MAC simulation on the event-driven core.
///
/// `gains[i][j]` is the linear power gain from transmitter `i` to node `j`
/// (diagonal unused); `noise_floor[j]` is node `j`'s in-band noise power.
/// Runs stop at a 1 M-slot safety cap (~22 hours simulated).
pub fn simulate(cfg: &MacConfig, gains: &[Vec<f64>], noise_floor: &[f64], seed: u64) -> MacResult {
    let medium = DenseMedium::new(gains.to_vec(), noise_floor.to_vec());
    let mut hooks = TxLog {
        tx_times: vec![Vec::new(); medium.nodes()],
    };
    let stats = EventCore::new(cfg, &medium, &mut hooks, seed).run(1_000_000);
    let (collision_fraction, per_tx) = collision_stats(&hooks.tx_times, cfg.packet_duration_s);
    MacResult {
        tx_times: hooks.tx_times,
        collision_fraction,
        per_tx_collision_fraction: per_tx,
        duration_s: stats.duration_s,
    }
}

/// Computes the paper's collision metric from packet start timestamps:
/// packets transmitted within one packet duration of each other collide.
pub fn collision_stats(tx_times: &[Vec<f64>], packet_duration_s: f64) -> (f64, Vec<f64>) {
    let mut all: Vec<(usize, f64)> = Vec::new();
    for (tx, times) in tx_times.iter().enumerate() {
        for &t in times {
            all.push((tx, t));
        }
    }
    all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let mut collided = vec![false; all.len()];
    for i in 0..all.len() {
        for j in i + 1..all.len() {
            if all[j].1 - all[i].1 >= packet_duration_s {
                break;
            }
            if all[i].0 != all[j].0 {
                collided[i] = true;
                collided[j] = true;
            }
        }
    }
    let total = all.len().max(1);
    let frac = collided.iter().filter(|&&c| c).count() as f64 / total as f64;
    // Per-transmitter fractions in one pass over the sorted list (this
    // used to re-scan the full list once per transmitter, O(N·T)).
    let mut sent = vec![0usize; tx_times.len()];
    let mut hit = vec![0usize; tx_times.len()];
    for (i, &(tx, _)) in all.iter().enumerate() {
        sent[tx] += 1;
        if collided[i] {
            hit[tx] += 1;
        }
    }
    let per_tx = sent
        .iter()
        .zip(&hit)
        .map(|(&s, &h)| if s == 0 { 0.0 } else { h as f64 / s as f64 })
        .collect();
    (frac, per_tx)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Symmetric gain matrix for `n` nodes a few meters apart with gains
    /// well above the noise floor (sensing is easy, as at 5-10 m).
    fn easy_gains(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let gains = vec![vec![1e-4; n]; n];
        let noise = vec![1e-6; n];
        (gains, noise)
    }

    fn cfg(carrier_sense: bool, max_packets: usize) -> MacConfig {
        MacConfig {
            carrier_sense,
            max_packets,
            ..MacConfig::default()
        }
    }

    #[test]
    fn all_packets_eventually_sent() {
        let (g, nf) = easy_gains(3);
        let r = simulate(&cfg(true, 30), &g, &nf, 1);
        for times in &r.tx_times {
            assert_eq!(times.len(), 30);
        }
    }

    #[test]
    fn carrier_sense_reduces_collisions() {
        let (g, nf) = easy_gains(4); // 3 tx + 1 rx-ish node (all send here)
        let with_cs = simulate(&cfg(true, 60), &g, &nf, 7);
        let without = simulate(&cfg(false, 60), &g, &nf, 7);
        assert!(
            with_cs.collision_fraction < without.collision_fraction * 0.5,
            "CS {} vs no-CS {}",
            with_cs.collision_fraction,
            without.collision_fraction
        );
        assert!(
            without.collision_fraction > 0.15,
            "uncoordinated load should collide"
        );
    }

    #[test]
    fn transmissions_never_overlap_with_perfect_sensing() {
        // With ideal sensing and zero propagation delay in the envelope
        // model, carrier sense leaves only same-slot starts as collisions —
        // they should be rare.
        let (g, nf) = easy_gains(3);
        let r = simulate(&cfg(true, 40), &g, &nf, 3);
        assert!(
            r.collision_fraction < 0.15,
            "residual {}",
            r.collision_fraction
        );
    }

    #[test]
    fn hidden_node_increases_collisions() {
        // Node 0 and node 1 cannot hear each other (gain below threshold)
        // but both reach node 2: carrier sense cannot help.
        let mut gains = vec![vec![1e-4; 3]; 3];
        gains[0][1] = 1e-9;
        gains[1][0] = 1e-9;
        let noise = vec![1e-6; 3];
        let hidden = simulate(&cfg(true, 60), &gains, &noise, 5);
        let (g2, nf2) = easy_gains(3);
        let normal = simulate(&cfg(true, 60), &g2, &nf2, 5);
        assert!(
            hidden.collision_fraction > normal.collision_fraction,
            "hidden {} vs normal {}",
            hidden.collision_fraction,
            normal.collision_fraction
        );
    }

    #[test]
    fn collision_stats_basic_cases() {
        // two packets overlapping from different tx -> both collided
        let times = vec![vec![0.0], vec![0.3]];
        let (f, per) = collision_stats(&times, 0.55);
        assert!((f - 1.0).abs() < 1e-12);
        assert_eq!(per, vec![1.0, 1.0]);
        // well separated -> no collision
        let times = vec![vec![0.0], vec![2.0]];
        let (f, _) = collision_stats(&times, 0.55);
        assert_eq!(f, 0.0);
        // same tx back-to-back is not a collision
        let times = vec![vec![0.0, 0.3]];
        let (f, _) = collision_stats(&times, 0.55);
        assert_eq!(f, 0.0);
    }

    #[test]
    fn collision_stats_edge_cases() {
        // empty schedules: zero fractions, one per-tx slot each
        let (f, per) = collision_stats(&[vec![], vec![]], 0.55);
        assert_eq!(f, 0.0);
        assert_eq!(per, vec![0.0, 0.0]);
        let (f, per) = collision_stats(&[], 0.55);
        assert_eq!(f, 0.0);
        assert!(per.is_empty());
        // zero packet duration: nothing can overlap, even identical times
        let (f, per) = collision_stats(&[vec![1.0, 1.0], vec![1.0]], 0.0);
        assert_eq!(f, 0.0);
        assert_eq!(per, vec![0.0, 0.0]);
        // single node: self-overlap is never a collision
        let (f, per) = collision_stats(&[vec![0.0, 0.1, 0.2]], 0.55);
        assert_eq!(f, 0.0);
        assert_eq!(per, vec![0.0]);
        // simultaneous timestamps across transmitters all collide
        let (f, per) = collision_stats(&[vec![2.0], vec![2.0], vec![2.0, 9.0]], 0.55);
        assert!((f - 0.75).abs() < 1e-12, "{f}");
        assert_eq!(per, vec![1.0, 1.0, 0.5]);
    }

    #[test]
    fn per_tx_fractions_match_slow_reference() {
        // The single-pass per-tx accounting must agree with the direct
        // per-transmitter rescan it replaced, bit for bit.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..20 {
            let n = rng.gen_range(1..5);
            let tx_times: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    (0..rng.gen_range(0..10))
                        .map(|_| rng.gen_range(0.0..6.0))
                        .collect()
                })
                .collect();
            let (_, per) = collision_stats(&tx_times, 0.55);
            let mut all: Vec<(usize, f64)> = Vec::new();
            for (tx, times) in tx_times.iter().enumerate() {
                for &t in times {
                    all.push((tx, t));
                }
            }
            all.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            let mut collided = vec![false; all.len()];
            for i in 0..all.len() {
                for j in i + 1..all.len() {
                    if all[j].1 - all[i].1 >= 0.55 {
                        break;
                    }
                    if all[i].0 != all[j].0 {
                        collided[i] = true;
                        collided[j] = true;
                    }
                }
            }
            for (tx, want) in per.iter().enumerate() {
                let mine: Vec<usize> = all
                    .iter()
                    .enumerate()
                    .filter(|(_, (t, _))| *t == tx)
                    .map(|(i, _)| i)
                    .collect();
                let reference = if mine.is_empty() {
                    0.0
                } else {
                    mine.iter().filter(|&&i| collided[i]).count() as f64 / mine.len() as f64
                };
                assert_eq!(want.to_bits(), reference.to_bits(), "tx {tx}");
            }
        }
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let (g, nf) = easy_gains(3);
        let a = simulate(&cfg(true, 20), &g, &nf, 11);
        let b = simulate(&cfg(true, 20), &g, &nf, 11);
        assert_eq!(a.tx_times, b.tx_times);
    }
}
