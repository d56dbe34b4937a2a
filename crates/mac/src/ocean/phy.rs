//! Reception-outcome resolution: the PER-table fast path and the
//! sample-level slow path, plus the dispatch rule between them.
//!
//! **Dispatch rule** (DESIGN.md §11): a reception with **no** overlapping
//! transmission at its destination is decided straight from the
//! [`PerTable`] — its fate depends only on link SNR, which the recorded
//! range/PER curves already measure. Only receptions with actual
//! time-overlap at the receiver — where no single-link curve applies —
//! invoke the sample-level machinery: received powers are *rendered*
//! through the real [`aqua_channel::link::Link`] (a seeded wideband probe
//! through the same multipath + device chain as every dive-site
//! experiment, riding the PR 4 bit-exact geometry-keyed FIR memo), the
//! SINR over the overlap is formed, and the equivalent interference-free
//! range at that SINR indexes the same PER table. Probe renders are
//! memoized per 0.5 m range bucket in one process-wide memo behind
//! [`ProbeCache`], so a process pays a few hundred sample-level renders
//! in all, however many runs it makes, not millions.
//!
//! Every outcome is a pure function of `(reception, seed)`: the Bernoulli
//! draw comes from a per-reception `StdRng` keyed by
//! `(seed, tx, dest, start time)`, never from a shared stream, and each
//! probe power is a pure function of its bucket.
//! [`PhyResolver::resolve_batch`] therefore fans only the cold probe
//! renders across [`aqua_par::Pool`] workers and resolves the receptions
//! themselves serially, with results bit-identical for every pool size
//! (`mac/tests/ocean_determinism.rs`). Resolving a reception from the
//! warm memo costs microseconds; a batch fan-out of those would cost
//! more in thread start-up than it saves.

use aqua_channel::environments::{Environment, Site};
use aqua_channel::geometry::Pos;
use aqua_channel::link::{Link, LinkConfig};
use aqua_par::Pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;

use super::event::Reception;
use super::per_table::{Band, PerTable};
use super::topology::{RangeGain, TX_POWER};

/// Process-wide memo of rendered Lake probe powers, keyed by range
/// bucket. A probe power is a pure function of its bucket (fixed probe
/// seed, fixed geometry, one environment), so every run in the process
/// shares one render per bucket and no run can tell who paid for it.
static LAKE_PROBES: Mutex<BTreeMap<u32, f64>> = Mutex::new(BTreeMap::new());

/// Probe-power cache: mean-square received power of the standard wideband
/// probe, rendered sample-level through the real Lake channel (the
/// calibration environment of the PER knots) at quantized ranges.
///
/// Renders are memoized per 0.5 m bucket in a process-wide memo and
/// paid once per process; the cache itself only records which buckets
/// its run resolved, so [`ProbeCache::rendered_buckets`] reads the same
/// whatever ran before in the process.
pub struct ProbeCache {
    touched: Mutex<HashSet<u32>>,
}

/// Range quantization of the probe cache (meters per bucket).
pub const PROBE_BUCKET_M: f64 = 0.5;
const PROBE_SEED: u64 = 0x0CEA_0CEA;
const PROBE_SAMPLES: usize = 4800; // 0.1 s at 48 kHz

fn bucket(range_m: f64) -> u32 {
    (range_m.max(1.0) / PROBE_BUCKET_M).round() as u32
}

/// Renders the probe at bucket `b` sample-level through the Lake
/// channel at 2 m depth and returns its mean-square received power.
fn render_probe(b: u32) -> f64 {
    let r = b as f64 * PROBE_BUCKET_M;
    let mut cfg = LinkConfig::s9_pair(
        Environment::preset(Site::Lake),
        Pos::new(0.0, 0.0, 2.0),
        Pos::new(r, 0.0, 2.0),
        PROBE_SEED,
    );
    cfg.noise = false;
    cfg.impulses = false;
    let mut link = Link::new(cfg);
    let mut rng = StdRng::seed_from_u64(PROBE_SEED ^ b as u64);
    // Uniform white probe scaled to the standard TX_POWER band power
    // (rms² = 0.04): uniform on [-1, 1] has power 1/3.
    let scale = (TX_POWER * 3.0).sqrt();
    let probe: Vec<f64> = (0..PROBE_SAMPLES)
        .map(|_| rng.gen_range(-1.0..=1.0) * scale)
        .collect();
    let rx = link.transmit(&probe, 0.0);
    rx.iter().map(|&x| x * x).sum::<f64>() / rx.len().max(1) as f64
}

fn memo_get(b: u32) -> Option<f64> {
    LAKE_PROBES
        .lock()
        .expect("probe memo poisoned")
        .get(&b)
        .copied()
}

/// Renders every bucket of `ranges_m` that the process memo lacks,
/// fanned across `pool` and outside the memo lock. Marks nothing as
/// resolved by a run: that is [`ProbeCache::power`]'s job.
fn warm(pool: &Pool, ranges_m: impl Iterator<Item = f64>) {
    let mut cold: Vec<u32> = {
        let memo = LAKE_PROBES.lock().expect("probe memo poisoned");
        ranges_m
            .map(bucket)
            .filter(|b| !memo.contains_key(b))
            .collect()
    };
    if cold.is_empty() {
        return;
    }
    cold.sort_unstable();
    cold.dedup();
    let powers = pool.par_map_slice(&cold, |&b| render_probe(b));
    let mut memo = LAKE_PROBES.lock().expect("probe memo poisoned");
    memo.extend(cold.into_iter().zip(powers));
}

impl ProbeCache {
    /// A Lake probe cache for one run, with no buckets resolved yet.
    pub fn lake() -> Self {
        Self {
            touched: Mutex::new(HashSet::new()),
        }
    }

    /// Rendered received power (mean square) at `range_m`, quantized to
    /// the cache bucket. A bucket missing from the process memo is
    /// rendered here, outside the memo lock.
    pub fn power(&self, range_m: f64) -> f64 {
        let b = bucket(range_m);
        self.touched.lock().expect("probe cache poisoned").insert(b);
        memo_get(b).unwrap_or_else(|| {
            let p = render_probe(b);
            LAKE_PROBES
                .lock()
                .expect("probe memo poisoned")
                .insert(b, p);
            p
        })
    }

    /// Number of distinct range buckets this run resolved. Renders are
    /// paid once per process, so this counts the buckets the run needed,
    /// not the renders it paid for.
    pub fn rendered_buckets(&self) -> usize {
        self.touched.lock().expect("probe cache poisoned").len()
    }
}

/// Fate of one reception after PHY resolution.
#[derive(Debug, Clone, Copy)]
pub struct RxOutcome {
    /// Transmitting node.
    pub tx: u32,
    /// Destination node.
    pub dest: u32,
    /// Whether the packet was delivered.
    pub delivered: bool,
    /// Whether resolution went through the sample-level overlap path.
    pub overlap: bool,
    /// Whether the destination was transmitting (half-duplex loss).
    pub dest_busy: bool,
    /// End-to-end latency: carrier-sense access delay + propagation +
    /// packet duration (seconds).
    pub latency_s: f64,
}

/// The dispatcher: owns the PER table, the run's probe cache and the RNG
/// keying.
pub struct PhyResolver {
    table: PerTable,
    band: Band,
    rg: RangeGain,
    probe: ProbeCache,
    packet_duration_s: f64,
    seed: u64,
}

impl PhyResolver {
    /// A resolver for the given band using the recorded PER table, the
    /// lake probe cache and per-reception RNG keyed by `seed`.
    pub fn new(band: Band, rg: RangeGain, packet_duration_s: f64, seed: u64) -> Self {
        Self {
            table: PerTable::recorded(),
            band,
            rg,
            probe: ProbeCache::lake(),
            packet_duration_s,
            seed,
        }
    }

    /// Distinct probe range buckets this resolver's receptions needed
    /// ([`ProbeCache::rendered_buckets`]).
    pub fn rendered_buckets(&self) -> usize {
        self.probe.rendered_buckets()
    }

    /// Resolves a batch of receptions in item order. Probe buckets the
    /// batch's overlap receptions need and the process memo lacks are
    /// rendered first, fanned across `pool`; the receptions themselves
    /// then resolve serially. Equal to `rxs.iter().map(|rx|
    /// self.resolve(rx))` bit for bit, for every pool size.
    pub fn resolve_batch(&self, pool: &Pool, rxs: &[Reception]) -> Vec<RxOutcome> {
        // The ranges `resolve` renders: signal and interferers of every
        // reception that takes the slow path.
        let ranges = rxs
            .iter()
            .filter(|rx| !rx.dest_busy && !rx.interferers.is_empty())
            .flat_map(|rx| {
                let itf = rx.interferers.iter();
                let itf = itf.map(|itf| self.rg.range_for_sensed(itf.power));
                std::iter::once(signal_range(rx)).chain(itf)
            });
        warm(pool, ranges);
        rxs.iter().map(|rx| self.resolve(rx)).collect()
    }

    /// Resolves one reception. Pure in `(rx, self.seed)` up to the
    /// memoized probe renders (whose values are themselves pure).
    pub fn resolve(&self, rx: &Reception) -> RxOutcome {
        let prop = rx.arrival_s - rx.start_s;
        let range = signal_range(rx);
        let latency_s = rx.access_delay_s + prop + self.packet_duration_s;
        let base = RxOutcome {
            tx: rx.tx,
            dest: rx.dest,
            delivered: false,
            overlap: !rx.interferers.is_empty(),
            dest_busy: rx.dest_busy,
            latency_s,
        };
        if rx.dest_busy {
            // Half-duplex: receiver was transmitting during the window.
            return base;
        }
        let per = if rx.interferers.is_empty() {
            // Fast path: clean reception, recorded curve applies.
            self.table.per(self.band, range)
        } else {
            // Slow path: render signal and interferer powers sample-level
            // and fold the SINR back into an equivalent clean range.
            let p_sig = self.probe.power(range);
            let mut interference = 0.0;
            for itf in &rx.interferers {
                let r_itf = self.rg.range_for_sensed(itf.power);
                let frac = (itf.overlap_s / self.packet_duration_s).clamp(0.0, 1.0);
                interference += self.probe.power(r_itf) * frac;
            }
            // Rendered powers and the budget noise floor share units
            // (in-band power relative to the 0.04 transmit band power),
            // so the SINR composes directly; the calibrated fit then
            // inverts it into the clean range with the same SNR, which
            // indexes the recorded PER curve.
            let noise = self.rg.noise;
            let sinr = p_sig / (noise + interference);
            let r_eff = self
                .rg
                .range_for_sensed((sinr * noise).max(f64::MIN_POSITIVE));
            self.table.per(self.band, r_eff)
        };
        let mut rng = StdRng::seed_from_u64(reception_key(
            self.seed,
            rx.tx,
            rx.dest,
            rx.start_s.to_bits(),
        ));
        let u: f64 = rng.gen_range(0.0..1.0);
        RxOutcome {
            delivered: u >= per,
            ..base
        }
    }
}

/// Transmitter-to-destination range implied by the propagation delay
/// (clamped to ≥ 1 m).
fn signal_range(rx: &Reception) -> f64 {
    ((rx.arrival_s - rx.start_s) * super::event::SOUND_SPEED).max(1.0)
}

/// SplitMix64-style mixing of the reception identity into an RNG seed:
/// decorrelated across `(tx, dest, start)` while fully deterministic.
fn reception_key(seed: u64, tx: u32, dest: u32, start_bits: u64) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for w in [tx as u64, dest as u64, start_bits] {
        h ^= w;
        h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ocean::event::Interferer;

    fn clean_rx(range_m: f64) -> Reception {
        let prop = range_m / super::super::event::SOUND_SPEED;
        Reception {
            tx: 0,
            dest: 1,
            start_s: 10.0,
            arrival_s: 10.0 + prop,
            access_delay_s: 0.16,
            dest_busy: false,
            interferers: vec![],
        }
    }

    #[test]
    fn clean_reception_at_close_range_delivers() {
        let rg = RangeGain::lake();
        let phy = PhyResolver::new(Band::Adaptive, rg, 0.55, 1);
        // Adaptive PER at 5 m is exactly 0: always delivered.
        let out = phy.resolve(&clean_rx(5.0));
        assert!(out.delivered && !out.overlap && !out.dest_busy);
        assert!((out.latency_s - (0.16 + 5.0 / 1500.0 + 0.55)).abs() < 1e-12);
        assert_eq!(phy.rendered_buckets(), 0, "fast path renders nothing");
    }

    #[test]
    fn dest_busy_always_loses() {
        let rg = RangeGain::lake();
        let phy = PhyResolver::new(Band::Adaptive, rg, 0.55, 1);
        let mut rx = clean_rx(5.0);
        rx.dest_busy = true;
        assert!(!phy.resolve(&rx).delivered);
    }

    #[test]
    fn heavy_overlap_hurts_delivery() {
        let rg = RangeGain::lake();
        let phy = PhyResolver::new(Band::Adaptive, rg, 0.55, 1);
        let mut delivered_clean = 0;
        let mut delivered_jammed = 0;
        for k in 0..40 {
            let mut rx = clean_rx(25.0);
            rx.start_s = k as f64; // vary the Bernoulli key
            if phy.resolve(&rx).delivered {
                delivered_clean += 1;
            }
            // Equal-power interferer overlapping the full window.
            rx.interferers = vec![Interferer {
                node: 2,
                power: rg.sensed(25.0),
                overlap_s: 0.55,
            }];
            if phy.resolve(&rx).delivered {
                delivered_jammed += 1;
            }
        }
        assert!(
            delivered_jammed < delivered_clean,
            "jammed {delivered_jammed} vs clean {delivered_clean}"
        );
        assert!(phy.rendered_buckets() >= 1, "slow path rendered probes");
    }

    #[test]
    fn outcomes_are_deterministic() {
        let rg = RangeGain::lake();
        let phy = PhyResolver::new(Band::Adaptive, rg, 0.55, 42);
        let mut rx = clean_rx(28.0);
        rx.interferers = vec![Interferer {
            node: 3,
            power: rg.sensed(40.0),
            overlap_s: 0.2,
        }];
        let a = phy.resolve(&rx);
        let b = phy.resolve(&rx);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
    }

    #[test]
    fn probe_power_falls_with_range() {
        let probe = ProbeCache::lake();
        let near = probe.power(5.0);
        let far = probe.power(40.0);
        assert!(near > far, "{near} vs {far}");
        assert_eq!(probe.rendered_buckets(), 2);
        // Memoized: same bucket, no third render.
        let again = probe.power(5.1);
        assert_eq!(again.to_bits(), probe.power(5.0).to_bits());
        assert_eq!(probe.rendered_buckets(), 2);
    }

    #[test]
    fn cold_fan_out_fills_the_memo_with_serial_renders() {
        // Past the hearing radius: no simulated link and no other test
        // reaches these buckets, so the process memo starts cold here.
        let rg = RangeGain::lake();
        let ranges = [150.0, 151.5, 153.0, 154.5, 156.0, 157.5];
        assert!(ranges[0] > rg.hearing_radius());
        let buckets: Vec<u32> = ranges.iter().map(|&r| bucket(r)).collect();
        assert!(buckets.iter().all(|&b| memo_get(b).is_none()), "warm memo");
        // Each reception is overlapped by the transmitter of the next
        // range, so the batch needs every bucket.
        let rxs: Vec<Reception> = ranges
            .iter()
            .enumerate()
            .map(|(k, &r)| {
                let start_s = 10.0 + k as f64;
                Reception {
                    tx: k as u32,
                    dest: 99,
                    start_s,
                    arrival_s: start_s + r / super::super::event::SOUND_SPEED,
                    access_delay_s: 0.16,
                    dest_busy: false,
                    interferers: vec![Interferer {
                        node: 98,
                        power: rg.sensed(ranges[(k + 1) % ranges.len()]),
                        overlap_s: 0.3,
                    }],
                }
            })
            .collect();
        let phy = PhyResolver::new(Band::Adaptive, rg, 0.55, 9);
        let batch = phy.resolve_batch(&Pool::new(4).with_chunk(1), &rxs);
        for &b in &buckets {
            let warm = memo_get(b).expect("fan-out rendered the bucket");
            assert_eq!(warm.to_bits(), render_probe(b).to_bits(), "bucket {b}");
        }
        assert_eq!(phy.rendered_buckets(), buckets.len());
        let serial = PhyResolver::new(Band::Adaptive, rg, 0.55, 9);
        for (out, rx) in batch.iter().zip(&rxs) {
            let want = serial.resolve(rx);
            assert!(out.overlap);
            assert_eq!(out.delivered, want.delivered);
            assert_eq!(out.latency_s.to_bits(), want.latency_s.to_bits());
        }
    }
}
