//! `relay_durable`: one crash-churned, journaled relay run per op — a
//! 36-node grid simulated for 3 h with 4 multi-hop flows, audited by the
//! conservation oracle — on a 2-worker pool. The `aqua-mac::ocean` event
//! core, the `aqua-net` relay state machine with its journal and replay,
//! and the small-batch use of `aqua-par`.

use crate::common::*;
use aqua_mac::ocean::{run_ocean, ChurnConfig, TopologyKind};
use aqua_net::bundle::{fragment_message, Priority};
use aqua_net::sim::RelayTopology;
use aqua_net::{
    check_invariants, recover, run_relay_ocean_audit, Journal, JournalConfig, Record,
    RelayOceanConfig, RelayOceanResult,
};
use aqua_par::Pool;

const NODES: usize = 36;
const SIM_S: f64 = 10_800.0;
const FLOWS: usize = 4;
const WORKERS: usize = 2;
const DIGEST_OPS: u64 = 2;
const TAIL_P: f64 = 80.0;
const SETUP_REPS: usize = 3;

/// The `recovery` experiment's flows: each destination three rows and
/// three columns diagonally from its source.
fn flows(nodes: usize, count: usize) -> Vec<(u16, u16)> {
    let cols = (nodes as f64).sqrt().ceil() as usize;
    let mut pairs = Vec::with_capacity(count);
    let mut k = 0usize;
    while pairs.len() < count {
        let src = (k * 13 + 1) % nodes;
        k += 1;
        let (row, col) = (src / cols, src % cols);
        let (dst_row, dst_col) = if col + 3 < cols && (row + 3) * cols + col + 3 < nodes {
            (row + 3, col + 3)
        } else if row >= 3 && col >= 3 {
            (row - 3, col - 3)
        } else {
            continue;
        };
        pairs.push((src as u16, (dst_row * cols + dst_col) as u16));
    }
    pairs
}

fn op_cfg(seed: u64, i: u64) -> RelayOceanConfig {
    let mut cfg = RelayOceanConfig::deployment(
        RelayTopology::Kind(TopologyKind::Grid),
        NODES,
        SIM_S,
        derive(seed, 5, i) >> 16,
    );
    cfg.crash = ChurnConfig {
        mtbf_s: 1800.0,
        mttr_s: 300.0,
        duty_cycle: 1.0,
        duty_period_s: 0.0,
    };
    cfg.journal = Some(JournalConfig::default());
    // the `recovery` experiment's relay tuning
    cfg.mac.inter_packet_gap_s = (60.0, 180.0);
    cfg.relay.spray_copies = 16;
    cfg.relay.neighbor_expiry_s = 1800.0;
    cfg.relay.min_rto_s = 120.0;
    cfg.relay.max_rto_s = 480.0;
    cfg.relay.focus_after_s = 180.0;
    cfg.relay.max_hops = 64;
    cfg.traffic.pairs = flows(NODES, FLOWS);
    cfg.traffic.ttl_s = (SIM_S + 3600.0) as u16;
    cfg
}

/// One op: the audited run (timed) and its conservation check (not
/// timed; the traced run times it as `net.audit_ms`).
fn run_op(
    cfg: &RelayOceanConfig,
    pool: &Pool,
) -> Result<(RelayOceanResult, std::time::Duration), String> {
    let (r, d) = cpu_timed(|| run_relay_ocean_audit(cfg, pool));
    let (res, audit) = r.map_err(|e| format!("config rejected: {e}"))?;
    check(&res, &check_invariants(&audit))?;
    Ok((res, d))
}

fn check(res: &RelayOceanResult, violations: &[aqua_net::Violation]) -> Result<(), String> {
    if !violations.is_empty() {
        return Err(format!(
            "{} invariant violations: {:?}",
            violations.len(),
            violations.first()
        ));
    }
    if res.dup_deliveries != 0 || res.payload_mismatches != 0 {
        return Err(format!(
            "dup_deliveries {} payload_mismatches {}",
            res.dup_deliveries, res.payload_mismatches
        ));
    }
    Ok(())
}

#[derive(Default)]
struct Guards {
    ops_without_reboots: usize,
    ops_without_replay: usize,
    offered: u64,
    delivered: u64,
}

impl Guards {
    fn add(&mut self, r: &RelayOceanResult) {
        self.ops_without_reboots += (r.reboots == 0) as usize;
        self.ops_without_replay += (r.journal_replayed == 0) as usize;
        self.offered += r.msgs_offered;
        self.delivered += r.msgs_delivered;
    }

    fn ratio(&self) -> f64 {
        self.delivered as f64 / self.offered.max(1) as f64
    }

    fn check(&self, rep: &mut Report) {
        rep.guard(
            self.ops_without_reboots == 0,
            format!("{} ops without reboots", self.ops_without_reboots),
        );
        rep.guard(
            self.ops_without_replay == 0,
            format!(
                "{} ops without replayed journal records",
                self.ops_without_replay
            ),
        );
        rep.guard(
            self.ratio() >= 0.5,
            format!(
                "delivered {}/{} offered messages",
                self.delivered, self.offered
            ),
        );
    }
}

/// Set-up: a warm-up op on a fixed configuration outside the measured
/// sequence, so set-up time does not depend on the seed.
fn setup(pool: &Pool) {
    let cfg = op_cfg(0x5E7, 0);
    std::hint::black_box(run_relay_ocean_audit(&cfg, pool).expect("valid config"));
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::default();
    let pool = Pool::new(WORKERS);
    let (_, setup_s, setup_times) = setup_median(SETUP_REPS, || setup(&pool));
    rep.note("setup_s_samples", json_nums(&setup_times));
    rep.note("stamp", machine_stamp(WORKERS));
    if trace {
        traced(&mut rep, &pool, seed, seconds);
        return rep;
    }
    let mut digest = Digest::default();
    let mut guards = Guards::default();
    let lp = Loop::run(seconds, min_ops_for_tail(TAIL_P), |i| {
        let (res, d) = run_op(&op_cfg(seed, i), &pool)?;
        guards.add(&res);
        if i < DIGEST_OPS {
            digest.add(&res);
        }
        Ok(d)
    });
    rep.end_to_end(&lp, TAIL_P, setup_s);
    guards.check(&mut rep);
    rep.note("sim_digest", digest.value().to_string());
    rep
}

/// Journal records shaped like the workload's custody traffic: the
/// flows' bundles accepted, their fragments received, released and
/// delivered.
fn journal_records(seed: u64) -> Vec<Record> {
    let mut recs = Vec::new();
    for round in 0..40u16 {
        for (k, &(src, dst)) in flows(NODES, FLOWS).iter().enumerate() {
            let payload = payload_bytes(64, derive(seed, 6, (round as u64) << 8 | k as u64));
            let bundles = fragment_message(
                src,
                dst,
                round,
                Priority::Chat,
                true,
                14_400,
                16,
                &payload,
                32,
            )
            .expect("valid fragmentation");
            for b in bundles {
                recs.push(Record::Accept {
                    came_from: src,
                    copies: 8,
                    expires_s: 14_400.0,
                    bundle: b.clone(),
                });
                recs.push(Record::FragIn { bundle: b.clone() });
                recs.push(Record::Release { key: b.key() });
            }
            recs.push(Record::Deliver { src, seq: round });
        }
    }
    recs
}

fn traced(rep: &mut Report, pool: &Pool, seed: u64, seconds: f64) {
    let serial = Pool::new(1);
    let mut t = Tracer::default();
    let mut guards = Guards::default();
    let (mut digest, mut digest_serial) = (Digest::default(), Digest::default());
    let (mut t2, mut t1) = (0.0, 0.0);
    let (mut events, mut receptions, mut reboots, mut replayed, mut jbytes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut op_ms, mut audit_ms, mut us_per_event, mut self_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());

    // journal costs on records of the workload's shape
    let recs = journal_records(seed);
    let mut journal = Journal::new(JournalConfig::default());
    let (_, append) = timed(|| {
        t.span("net.journal_append", |_| {
            for r in &recs {
                journal.append(r);
            }
            journal.sync();
        })
    });
    let append_us = append.as_secs_f64() * 1e6 / recs.len() as f64;
    let (_, replay_recs) = journal.crash(0);
    let (recovered, replay) = timed(|| t.span("net.recover", |_| recover(&replay_recs, 0.0)));
    std::hint::black_box(recovered);
    let replay_us = replay.as_secs_f64() * 1e6 / replay_recs.len().max(1) as f64;
    let mean_record_bytes = journal.len_bytes() as f64 / recs.len() as f64;

    let started = std::time::Instant::now();
    let mut i = 0u64;
    while i < DIGEST_OPS || started.elapsed().as_secs_f64() < seconds {
        let cfg = op_cfg(seed, i);
        let (r2, d2) = timed(|| t.span("net.relay_op", |_| run_relay_ocean_audit(&cfg, pool)));
        let (r1, d1) = timed(|| run_relay_ocean_audit(&cfg, &serial));
        let (res, audit) = r2.expect("valid config");
        let (res1, _) = r1.expect("valid config");
        let (violations, da) = timed(|| t.span("net.audit", |_| check_invariants(&audit)));
        if let Err(e) = check(&res, &violations) {
            rep.op_failed(format!("traced op {i}: {e}"));
        }
        guards.add(&res);
        if i < DIGEST_OPS {
            digest.add(&res);
            digest_serial.add(&res1);
        }
        t2 += ms(d2);
        t1 += ms(d1);
        op_ms.push(ms(d2));
        audit_ms.push(ms(da));
        events += res.events;
        receptions += res.receptions;
        reboots += res.reboots;
        replayed += res.journal_replayed;
        jbytes += res.journal_bytes;

        // the event core and table PHY on this op's topology, MAC and
        // crash schedule, without the relay hooks
        let mut ocfg =
            aqua_mac::ocean::OceanConfig::deployment(TopologyKind::Grid, NODES, SIM_S, cfg.seed);
        ocfg.mac = cfg.mac.clone();
        ocfg.band = cfg.band;
        ocfg.batch = cfg.batch;
        ocfg.churn = cfg.crash;
        let (ocean, dm) = timed(|| t.span("mac.run_ocean", |_| run_ocean(&ocfg, pool)));
        let upe = ms(dm) * 1e3 / ocean.events.max(1) as f64;
        us_per_event.push(upe);
        let explained = (res.events as f64 * upe
            + res.journal_bytes as f64 / mean_record_bytes * append_us
            + res.journal_replayed as f64 * replay_us)
            / 1e3;
        self_ms.push(ms(d2) - explained);
        i += 1;
    }
    rep.attempted = i;
    guards.check(rep);
    rep.guard(
        digest.value() == digest_serial.value(),
        "sim.digest differs between 2-worker and 1-worker pools".into(),
    );
    let n = i as f64;
    rep.set("mac.events_per_op", events as f64 / n, "count");
    rep.set("mac.receptions_per_op", receptions as f64 / n, "count");
    rep.set("mac.us_per_event", median(&us_per_event), "us");
    rep.set("net.reboots_per_op", reboots as f64 / n, "count");
    rep.set("net.replayed_per_op", replayed as f64 / n, "count");
    rep.set("net.journal_bytes_per_op", jbytes as f64 / n, "bytes");
    rep.set("net.journal_append_us", append_us, "us");
    rep.set("net.replay_us_per_record", replay_us, "us");
    rep.set("net.audit_ms", mean(&audit_ms), "ms");
    rep.set("net.delivered_ratio", guards.ratio(), "ratio");
    rep.set("net.self_ms", mean(&self_ms), "ms");
    rep.set("par.speedup_2v1", t1 / t2, "ratio");
    rep.set(
        "par.empty_fanout_us",
        crate::link_mix::empty_fanout_us(),
        "us",
    );
    rep.set("sim.digest", digest.value() as f64, "hash");
    rep.set(
        "guard.ops_without_reboots",
        guards.ops_without_reboots as f64,
        "count",
    );
    rep.set(
        "guard.ops_without_replay",
        guards.ops_without_replay as f64,
        "count",
    );
    let mac_share = events as f64 * median(&us_per_event) / 1e3 / op_ms.iter().sum::<f64>();
    rep.note(
        "reconciliation",
        format!(
            "{{\"ops\":{i},\"op_ms_2_workers_mean\":{:.3},\"op_ms_1_worker_mean\":{:.3},\
             \"event_core_share\":{mac_share:.4},\"journal_record_bytes_mean\":{mean_record_bytes:.2},\
             \"net_self_ms\":{:.3}}}",
            t2 / n,
            t1 / n,
            mean(&self_ms)
        ),
    );
    crate::write_trace(&t, "relay_durable", seed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_duplicate_delivery_fails_the_op() {
        let mut r = RelayOceanResult {
            nodes: NODES,
            duration_s: SIM_S,
            transmissions: 1,
            receptions: 1,
            frames_delivered: 1,
            churn_losses: 0,
            downtime_frac: 0.1,
            msgs_offered: 4,
            msgs_delivered: 3,
            delivery_ratio: 0.75,
            payload_mismatches: 0,
            latency_mean_s: 1.0,
            latency_p50_s: 1.0,
            latency_p90_s: 1.0,
            relay: Default::default(),
            reboots: 5,
            dup_deliveries: 0,
            journal_bytes: 100,
            journal_syncs: 1,
            journal_compactions: 0,
            journal_replayed: 10,
            events: 100,
            peak_heap: 10,
        };
        assert!(check(&r, &[]).is_ok());
        r.dup_deliveries = 1;
        assert!(check(&r, &[]).is_err());
        r.dup_deliveries = 0;
        r.payload_mismatches = 1;
        assert!(check(&r, &[]).is_err());
    }

    #[test]
    fn flows_cross_three_rows_and_columns() {
        for (s, d) in flows(NODES, FLOWS) {
            let (s, d) = (s as i32, d as i32);
            assert_eq!(((d / 6 - s / 6).abs(), (d % 6 - s % 6).abs()), (3, 3));
        }
    }
}
