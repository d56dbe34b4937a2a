//! Oracle-equivalence property suite: on small random topologies the
//! event-driven [`aqua_mac::netsim::simulate`] must be **bit-identical**
//! to the slot-stepped reference loop [`slot_oracle`] (shared with the
//! `ocean::event` unit tests from `tests/support/`) — every transmission
//! timestamp, the collision fraction, every per-transmitter fairness
//! fraction, and the simulated duration. Any divergence in RNG draw order,
//! carrier sensing, backoff semantics or duration accounting shows up here
//! as a bit diff.

use aqua_mac::netsim::{collision_stats, simulate, MacConfig, MacResult};
use proptest::prelude::*;
use slot_oracle::slot_oracle;

#[path = "support/slot_oracle.rs"]
mod slot_oracle;

fn assert_identical(ev: &MacResult, oracle: &MacResult, ctx: &str) {
    assert_eq!(ev.tx_times, oracle.tx_times, "tx_times diverge: {ctx}");
    assert_eq!(
        ev.collision_fraction.to_bits(),
        oracle.collision_fraction.to_bits(),
        "collision fraction {} vs {} ({ctx})",
        ev.collision_fraction,
        oracle.collision_fraction
    );
    assert_eq!(
        ev.per_tx_collision_fraction.len(),
        oracle.per_tx_collision_fraction.len(),
        "{ctx}"
    );
    for (i, (a, b)) in ev
        .per_tx_collision_fraction
        .iter()
        .zip(&oracle.per_tx_collision_fraction)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "per-tx {i}: {a} vs {b} ({ctx})");
    }
    assert_eq!(
        ev.duration_s.to_bits(),
        oracle.duration_s.to_bits(),
        "duration {} vs {} ({ctx})",
        ev.duration_s,
        oracle.duration_s
    );
}

/// Builds an `n×n` gain matrix from a flat sample of per-pair exponents:
/// gains span nine orders of magnitude so cases mix always-audible,
/// hidden-terminal and fully-disconnected links.
fn gains_from(n: usize, exps: &[f64]) -> Vec<Vec<f64>> {
    let mut g = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                g[i][j] = 10f64.powf(exps[i * n + j]);
            }
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline contract: random ≤6-node topologies and MAC configs,
    /// event-driven ≡ oracle bit for bit.
    #[test]
    fn event_driven_matches_oracle(
        n in 1usize..=6,
        exps in proptest::collection::vec(-9.0f64..=-3.0, 36),
        noise_exp in -7.0f64..=-5.0,
        carrier_sense in any::<bool>(),
        max_packets in 1usize..=25,
        packet_duration_s in 0.2f64..=1.0,
        slot_choice in 0usize..3,
        margin in 1.0f64..=8.0,
        init_lo in 0.0f64..=3.0,
        init_span in 0.0f64..=4.0,
        gap_lo in 0.1f64..=1.0,
        gap_span in 0.1f64..=3.0,
        backoff_lo in 1u32..=3,
        backoff_span in 0u32..=3,
        seed in 0u64..=100_000,
    ) {
        let gains = gains_from(n, &exps);
        let noise = vec![10f64.powf(noise_exp); n];
        let cfg = MacConfig {
            slot_s: [0.04, 0.08, 0.16][slot_choice],
            packet_duration_s,
            max_packets,
            initial_delay_s: (init_lo, init_lo + init_span),
            inter_packet_gap_s: (gap_lo, gap_lo + gap_span),
            carrier_sense,
            threshold_margin: margin,
            cs_backoff_packets: (backoff_lo, backoff_lo + backoff_span),
        };
        let ev = simulate(&cfg, &gains, &noise, seed);
        let oracle = slot_oracle(&cfg, &gains, &noise, seed);
        let ctx = format!("n={n} cs={carrier_sense} seed={seed} cfg={cfg:?}");
        assert_identical(&ev, &oracle, &ctx);
    }

    /// Strong-coupling stress: every node hears every other far above the
    /// margin, so carrier sense and backoff extension fire constantly —
    /// the RNG-draw-order torture case.
    #[test]
    fn saturated_channel_matches_oracle(
        n in 2usize..=6,
        max_packets in 5usize..=40,
        seed in 0u64..=100_000,
    ) {
        let gains = vec![vec![1e-4; n]; n];
        let noise = vec![1e-6; n];
        let cfg = MacConfig {
            max_packets,
            // tight gaps keep the channel contended the whole run
            initial_delay_s: (0.0, 1.0),
            inter_packet_gap_s: (0.1, 0.5),
            ..MacConfig::default()
        };
        let ev = simulate(&cfg, &gains, &noise, seed);
        let oracle = slot_oracle(&cfg, &gains, &noise, seed);
        assert_identical(&ev, &oracle, &format!("saturated n={n} seed={seed}"));
    }
}

/// The 1 M-slot safety cap must truncate both simulators at the same
/// simulated duration.
#[test]
fn capped_run_truncates_identically() {
    // One packet per node but an initial delay far beyond the cap for
    // node 1: the oracle idles to the cap; the event core must report the
    // same capped duration (and the same node-0 transmissions).
    let gains = vec![vec![0.0, 0.0], vec![0.0, 0.0]];
    let noise = vec![1e-6; 2];
    let cfg = MacConfig {
        max_packets: 1,
        initial_delay_s: (100_000.0, 100_000.0),
        ..MacConfig::default()
    };
    let ev = simulate(&cfg, &gains, &noise, 3);
    let oracle = slot_oracle(&cfg, &gains, &noise, 3);
    assert_identical(&ev, &oracle, "capped");
    assert_eq!(oracle.duration_s, 1_000_000.0 * cfg.slot_s);
}
