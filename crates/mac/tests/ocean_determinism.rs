//! Parallel ≡ serial regression for the ocean simulator, mirroring
//! `eval/tests/determinism.rs`: the same deployment run on 1, 2 and 4
//! workers (the `AQUA_PAR_THREADS` settings, here as explicit pools) must
//! produce **bit-identical** results field by field. Work distribution
//! decides wall-clock, never results: MAC decisions are serial by
//! construction, and each reception outcome is a pure function of
//! `(reception, seed)` resolved in item order.

use aqua_mac::ocean::{run_ocean, ChurnConfig, OceanConfig, OceanResult, TopologyKind};
use aqua_par::Pool;

fn assert_result_identical(par: &OceanResult, ser: &OceanResult, threads: usize) {
    let ctx = format!("{threads} threads");
    assert_eq!(par.nodes, ser.nodes, "{ctx}");
    assert_eq!(par.duration_s.to_bits(), ser.duration_s.to_bits(), "{ctx}");
    assert_eq!(par.transmissions, ser.transmissions, "{ctx}");
    assert_eq!(par.receptions, ser.receptions, "{ctx}");
    assert_eq!(par.delivered, ser.delivered, "{ctx}");
    assert_eq!(
        par.delivery_rate.to_bits(),
        ser.delivery_rate.to_bits(),
        "{ctx}: delivery {} vs {}",
        par.delivery_rate,
        ser.delivery_rate
    );
    assert_eq!(par.dest_busy_losses, ser.dest_busy_losses, "{ctx}");
    assert_eq!(par.churn_losses, ser.churn_losses, "{ctx}");
    assert_eq!(
        par.downtime_frac.to_bits(),
        ser.downtime_frac.to_bits(),
        "{ctx}"
    );
    assert_eq!(par.overlap_receptions, ser.overlap_receptions, "{ctx}");
    assert_eq!(
        par.collision_fraction.to_bits(),
        ser.collision_fraction.to_bits(),
        "{ctx}: collisions {} vs {}",
        par.collision_fraction,
        ser.collision_fraction
    );
    assert_eq!(
        par.latency_mean_s.to_bits(),
        ser.latency_mean_s.to_bits(),
        "{ctx}: latency mean"
    );
    assert_eq!(
        par.latency_p50_s.to_bits(),
        ser.latency_p50_s.to_bits(),
        "{ctx}: latency p50"
    );
    assert_eq!(
        par.latency_p90_s.to_bits(),
        ser.latency_p90_s.to_bits(),
        "{ctx}: latency p90"
    );
    assert_eq!(par.fairness.to_bits(), ser.fairness.to_bits(), "{ctx}");
    assert_eq!(par.events, ser.events, "{ctx}");
    assert_eq!(par.peak_heap, ser.peak_heap, "{ctx}");
    assert_eq!(
        par.peak_collision_window, ser.peak_collision_window,
        "{ctx}"
    );
    assert_eq!(
        par.mean_degree.to_bits(),
        ser.mean_degree.to_bits(),
        "{ctx}"
    );
}

#[test]
fn parallel_ocean_run_is_bit_identical_to_serial() {
    // Dense swarm + small batch: many reception flushes per run, each
    // fanned across workers with chunk size 1 to force real interleaving.
    let mut cfg = OceanConfig::deployment(TopologyKind::Swarm, 48, 900.0, 11);
    cfg.mac.inter_packet_gap_s = (20.0, 60.0); // contended enough to overlap
    cfg.mac.initial_delay_s = (0.0, 30.0);
    cfg.batch = 8;
    let serial = run_ocean(&cfg, &Pool::new(1));
    assert!(serial.receptions > 20, "workload too small: {serial:?}");
    assert!(
        serial.overlap_receptions > 0,
        "no sample-level work exercised: {serial:?}"
    );
    for threads in [2usize, 4] {
        let par = run_ocean(&cfg, &Pool::new(threads).with_chunk(1));
        assert_result_identical(&par, &serial, threads);
    }
}

#[test]
fn grid_run_is_pool_invariant_too() {
    let cfg = OceanConfig::deployment(TopologyKind::Grid, 49, 600.0, 5);
    let serial = run_ocean(&cfg, &Pool::new(1));
    let par = run_ocean(&cfg, &Pool::new(4).with_chunk(1));
    assert_result_identical(&par, &serial, 4);
}

#[test]
fn churned_fleet_is_pool_invariant() {
    // Churn shifts MAC event timing (deferred wakeups) and drops
    // asleep-destination receptions before the parallel PHY ever sees
    // them — neither may depend on worker count.
    let mut cfg = OceanConfig::deployment(TopologyKind::Swarm, 48, 900.0, 11);
    cfg.mac.inter_packet_gap_s = (20.0, 60.0);
    cfg.mac.initial_delay_s = (0.0, 30.0);
    cfg.batch = 8;
    cfg.churn = ChurnConfig {
        mtbf_s: 200.0,
        mttr_s: 90.0,
        duty_cycle: 0.8,
        duty_period_s: 45.0,
    };
    let serial = run_ocean(&cfg, &Pool::new(1));
    assert!(serial.churn_losses > 0, "churn must bite: {serial:?}");
    assert!(serial.delivered > 0, "fleet must still deliver: {serial:?}");
    for threads in [2usize, 4] {
        let par = run_ocean(&cfg, &Pool::new(threads).with_chunk(1));
        assert_result_identical(&par, &serial, threads);
    }
}

/// Pinned baselines captured before the relay stack landed: a plain
/// (hooks-disabled) ocean run must still produce these exact numbers,
/// float for float. The `SimHooks` seam the relay tier plugs into must
/// leave the default trajectory — MAC decisions, RNG stream, PHY draws —
/// completely untouched. Any drift here means the seam leaked.
mod pinned_baselines {
    use super::*;

    fn swarm_cfg() -> OceanConfig {
        let mut cfg = OceanConfig::deployment(TopologyKind::Swarm, 48, 900.0, 11);
        cfg.mac.inter_packet_gap_s = (20.0, 60.0);
        cfg.mac.initial_delay_s = (0.0, 30.0);
        cfg.batch = 8;
        cfg
    }

    #[test]
    fn plain_swarm_matches_pre_relay_capture() {
        let r = run_ocean(&swarm_cfg(), &Pool::new(1));
        assert_eq!(r.transmissions, 1050);
        assert_eq!(r.receptions, 1050);
        assert_eq!(r.delivered, 1032);
        assert_eq!(r.delivery_rate.to_bits(), 0.9828571428571429f64.to_bits());
        assert_eq!(r.dest_busy_losses, 1);
        assert_eq!(r.churn_losses, 0);
        assert_eq!(r.overlap_receptions, 660);
        assert_eq!(
            r.collision_fraction.to_bits(),
            0.5933333333333334f64.to_bits()
        );
        assert_eq!(r.latency_mean_s.to_bits(), 1.0756141806825923f64.to_bits());
        assert_eq!(r.latency_p50_s.to_bits(), 0.5725487884358379f64.to_bits());
        assert_eq!(r.latency_p90_s.to_bits(), 2.8902639100224503f64.to_bits());
        assert_eq!(r.fairness.to_bits(), 0.9958707360861759f64.to_bits());
        assert_eq!(r.events, 9989);
        assert_eq!(r.peak_heap, 53);
        assert_eq!(r.peak_collision_window, 4);
        assert_eq!(r.probe_renders, 104);
        assert_eq!(r.mean_degree.to_bits(), 47.0f64.to_bits());
    }

    #[test]
    fn churned_swarm_matches_pre_relay_capture() {
        let mut cfg = swarm_cfg();
        cfg.churn = ChurnConfig {
            mtbf_s: 200.0,
            mttr_s: 90.0,
            duty_cycle: 0.8,
            duty_period_s: 45.0,
        };
        let r = run_ocean(&cfg, &Pool::new(1));
        assert_eq!(r.transmissions, 792);
        assert_eq!(r.delivered, 440);
        assert_eq!(r.delivery_rate.to_bits(), 0.5555555555555556f64.to_bits());
        assert_eq!(r.churn_losses, 343);
        assert_eq!(r.downtime_frac.to_bits(), 0.4224462962962963f64.to_bits());
        assert_eq!(r.overlap_receptions, 233);
        assert_eq!(
            r.collision_fraction.to_bits(),
            0.5227272727272727f64.to_bits()
        );
        assert_eq!(r.latency_mean_s.to_bits(), 12.858549419039925f64.to_bits());
        assert_eq!(r.latency_p90_s.to_bits(), 20.90800041278718f64.to_bits());
        assert_eq!(r.fairness.to_bits(), 0.848408357874071f64.to_bits());
        assert_eq!(r.events, 6165);
        assert_eq!(r.peak_heap, 51);
        assert_eq!(r.probe_renders, 86);
    }

    #[test]
    fn swarm_result_is_independent_of_process_history() {
        // Probe renders are memoized process-wide, so a later run finds
        // buckets warmed by earlier ones. That may change who pays for a
        // render, never a result or the run's own bucket count.
        let first = run_ocean(&swarm_cfg(), &Pool::new(1));
        let mut other = OceanConfig::deployment(TopologyKind::Fleet, 64, 900.0, 29);
        other.mac.inter_packet_gap_s = (20.0, 60.0);
        other.batch = 8;
        let other = run_ocean(&other, &Pool::new(2));
        assert!(other.overlap_receptions > 0, "other run renders: {other:?}");
        let again = run_ocean(&swarm_cfg(), &Pool::new(2));
        assert_result_identical(&again, &first, 2);
        assert_eq!(first.probe_renders, 104);
        assert_eq!(again.probe_renders, 104);
    }

    #[test]
    fn plain_grid_matches_pre_relay_capture() {
        let cfg = OceanConfig::deployment(TopologyKind::Grid, 49, 600.0, 5);
        let r = run_ocean(&cfg, &Pool::new(1));
        assert_eq!(r.transmissions, 115);
        assert_eq!(r.delivered, 88);
        assert_eq!(r.delivery_rate.to_bits(), 0.7652173913043478f64.to_bits());
        assert_eq!(
            r.collision_fraction.to_bits(),
            0.26956521739130435f64.to_bits()
        );
        assert_eq!(r.latency_mean_s.to_bits(), 0.5621497222391182f64.to_bits());
        assert_eq!(r.fairness.to_bits(), 0.8231292517006803f64.to_bits());
        assert_eq!(r.events, 345);
        assert_eq!(r.peak_heap, 52);
        assert_eq!(r.mean_degree.to_bits(), 44.0f64.to_bits());
    }
}

#[test]
fn zero_downtime_churn_is_bit_identical_to_none() {
    // A churn config that schedules no outages must leave the whole run
    // untouched — the wake_at seam defers nothing and draws nothing.
    let base = OceanConfig::deployment(TopologyKind::Swarm, 40, 900.0, 23);
    let mut zero = base.clone();
    zero.churn = ChurnConfig {
        mtbf_s: 0.0,
        mttr_s: 0.0,
        duty_cycle: 1.0,
        duty_period_s: 600.0,
    };
    let a = run_ocean(&base, &Pool::new(1));
    let b = run_ocean(&zero, &Pool::new(1));
    assert_result_identical(&a, &b, 1);
}
