//! `transfer_lake`: serial 480 B bulk transfers on the Lake preset,
//! alternating the static engine (`repro transfer`'s path) and the
//! adaptive engine (`repro faults`'s path), every fourth op under a
//! seeded burst-train fault schedule. No pool: the control workload for
//! `aqua-par`, `aqua-mac` and `aqua-net` changes.

use crate::common::*;
use aqua_channel::environments::{Environment, Site};
use aqua_channel::fault::FaultSchedule;
use aqua_channel::geometry::Pos;
use aqua_channel::link::{Link, LinkConfig, SAMPLE_RATE};
use aqua_phy::bandselect::Band;
use aqua_phy::feedback::{decode_tone, encode_tone};
use aqua_proto::transfer::{Reassembler, TransferParams, TransferPlan};
use aquapp::bulk::{
    run_adaptive_transfer, run_bulk_transfer, BlockAck, BulkConfig, BulkOutcome, BulkReason,
    ACK_DIVERSITY_SHIFT,
};
use aquapp::trial::{run_trial, Scheme, TrialConfig};

const BYTES: usize = 480;
const RANGES_M: [f64; 3] = [5.0, 15.0, 25.0];
const WINDOW: usize = 12;
/// Ops in `sim.digest` and the minimum a run makes (both engines, all
/// three ranges, faulted and clean).
const DIGEST_OPS: u64 = 12;
const TAIL_P: f64 = 80.0;
const SETUP_REPS: usize = 3;
/// Forward exchanges the traced run times per op.
const FWD_SAMPLES: u64 = 6;

#[derive(Debug, Clone)]
struct Op {
    adaptive: bool,
    faulted: bool,
    cfg: BulkConfig,
    data: Vec<u8>,
}

/// Op `i`: the range rotates 5/15/25 m, the engines alternate, and one
/// op in four — one of each engine per eight — runs under faults.
fn op_input(seed: u64, i: u64) -> Op {
    let adaptive = i % 2 == 1;
    let faulted = matches!(i % 8, 3 | 6);
    let s = derive(seed, 2, i);
    let faults =
        faulted.then(|| FaultSchedule::seeded(s ^ 0xFA17).with_burst_train(0.0, 600.0, 0.05, 0.5));
    let cfg = BulkConfig {
        base: TrialConfig::standard(
            Environment::preset(Site::Lake),
            Pos::new(0.0, 0.0, 1.0),
            Pos::new(RANGES_M[(i % 3) as usize], 0.0, 1.0),
            s >> 20,
        ),
        params: TransferParams::default_rs(),
        window: WINDOW,
        // each engine's experiment budget: `repro transfer` / `repro faults`
        max_rounds: if adaptive { 13 } else { 24 },
        faults,
    };
    Op {
        adaptive,
        faulted,
        cfg,
        data: payload_bytes(BYTES, s),
    }
}

fn run_op(op: &Op) -> BulkOutcome {
    let out = if op.adaptive {
        run_adaptive_transfer(&op.cfg, &op.data)
    } else {
        run_bulk_transfer(&op.cfg, &op.data)
    };
    out.expect("the transfer configuration is valid")
}

/// The op check: a completed transfer returns the input bytes exactly.
fn check(op: &Op, out: &BulkOutcome) -> Result<(), String> {
    match (&out.delivered, out.reason) {
        (Some(d), BulkReason::Completed) if *d == op.data => Ok(()),
        (Some(_), BulkReason::Completed) => Err("delivered bytes differ from the input".into()),
        (None, BulkReason::Completed) => Err("completed without delivered bytes".into()),
        (Some(_), r) => Err(format!("delivered bytes but reason {r:?}")),
        (None, _) => Ok(()),
    }
}

#[derive(Default)]
struct Guards {
    retx_ops: usize,
    faulted_completed: usize,
}

impl Guards {
    fn add(&mut self, op: &Op, out: &BulkOutcome) {
        self.retx_ops += (out.rounds > 1) as usize;
        self.faulted_completed += (op.faulted && out.delivered.is_some()) as usize;
    }

    fn check(&self, rep: &mut Report) {
        rep.guard(
            self.retx_ops >= 1,
            "no op needed a retransmission round".into(),
        );
        rep.guard(
            self.faulted_completed >= 1,
            "no faulted op completed".into(),
        );
    }
}

/// Set-up, on fixed inputs so its time does not depend on the seed: one
/// transfer outside the measured sequence, then one fragment
/// on the narrowest band — the longest data section a transfer sends —
/// so the thread's per-size FFT plans, filter spectra and heap reach
/// their ceiling before timing instead of at a seed-dependent op.
fn setup() {
    std::hint::black_box(run_op(&op_input(0x3A3A, 0)));
    let mut t = op_input(0x3A3A, 2).cfg.base;
    let plan = TransferPlan::new(BYTES, TransferParams::default_rs());
    t.payload = plan.segment(&payload_bytes(BYTES, 0x3A3A))[0].to_bits();
    t.frame.payload_bits = t.payload.len();
    t.scheme = Scheme::Fixed(Band::new(0, 0));
    std::hint::black_box(run_trial(&t));
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::default();
    let (_, setup_s, setup_times) = setup_median(SETUP_REPS, setup);
    rep.note("setup_s_samples", json_nums(&setup_times));
    rep.note("stamp", machine_stamp(1));
    if trace {
        traced(&mut rep, seed, seconds);
        return rep;
    }
    let mut digest = Digest::default();
    let mut guards = Guards::default();
    let lp = Loop::run(seconds, DIGEST_OPS.max(min_ops_for_tail(TAIL_P)), |i| {
        let op = op_input(seed, i);
        let (out, d) = cpu_timed(|| run_op(&op));
        check(&op, &out)?;
        guards.add(&op, &out);
        if i < DIGEST_OPS {
            digest.add(&out);
        }
        Ok(d)
    });
    rep.end_to_end(&lp, TAIL_P, setup_s);
    guards.check(&mut rep);
    rep.note("sim_digest", digest.value().to_string());
    rep
}

/// `block_ack_exchange`'s public calls on the op's reverse link: a fresh
/// `Link`, then each ACK tone twice (frequency diversity) through
/// `encode_tone` → `transmit_with_faults` → `decode_tone`.
fn ack_exchange(t: &mut Tracer, op: &Op, link_seed: u64) {
    let base = &op.cfg.base;
    let params = base.frame.params;
    let ack = BlockAck {
        done: false,
        base: 0,
        need: (0..WINDOW).map(|i| i % 3 == 0).collect(),
    };
    t.span("bulk.ack_exchange", |t| {
        let mut back = t.span("channel.link_new", |_| {
            Link::new(LinkConfig {
                fs: SAMPLE_RATE,
                env: base.env.clone(),
                tx_device: base.bob_device,
                rx_device: base.alice_device,
                tx_traj: base.bob_traj.clone(),
                rx_traj: base.alice_traj.clone(),
                noise: true,
                impulses: false,
                seed: link_seed,
            })
        });
        let faults = op.cfg.faults.as_ref().map(|f| (f, 0.0));
        for (i, &tone) in ack.to_tones().iter().enumerate() {
            for copy in 0..2usize {
                let bin = tone + copy * ACK_DIVERSITY_SHIFT;
                let t0 = (2 * i + copy) as f64 * params.symbol_duration_s();
                let tx = encode_tone(&params, bin);
                let rx = t.span("channel.render_static", |_| {
                    back.transmit_with_faults(&tx, t0, faults)
                });
                std::hint::black_box(decode_tone(&params, &rx, 0.25));
            }
        }
    });
}

fn traced(rep: &mut Report, seed: u64, seconds: f64) {
    let mut t = Tracer::default();
    let mut guards = Guards::default();
    let mut digest = Digest::default();
    let (mut fwd, mut rounds, mut acks_lost, mut ack_exchanges) = (0usize, 0usize, 0usize, 0usize);
    let (mut static_ms, mut adaptive_ms, mut self_ms, mut op_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = std::time::Instant::now();
    let mut i = 0u64;
    while i < DIGEST_OPS || started.elapsed().as_secs_f64() < seconds {
        let op = op_input(seed, i);
        let (out, d) = t.span("bulk.op", |_| timed(|| run_op(&op)));
        if let Err(e) = check(&op, &out) {
            rep.op_failed(format!("traced op {i}: {e}"));
        }
        guards.add(&op, &out);
        if i < DIGEST_OPS {
            digest.add(&out);
        }
        op_ms.push(ms(d));
        if op.adaptive {
            adaptive_ms.push(ms(d));
        } else {
            static_ms.push(ms(d));
        }
        // one ACK exchange per round (static); the adaptive engine adds a
        // re-solicitation per lost ACK and one exchange per probe (an
        // upper bound when both of a round's attempts are lost)
        let acks = if op.adaptive {
            out.rounds + out.probes + out.acks_lost
        } else {
            out.rounds
        };
        fwd += out.packets_sent;
        rounds += out.rounds;
        acks_lost += out.acks_lost;
        ack_exchanges += acks;

        // per-call costs on this op's own inputs
        let mark = t.mark();
        let plan = TransferPlan::new(BYTES, op.cfg.params);
        let frags = t.span("bulk.rs", |_| plan.segment(&op.data));
        for k in 0..FWD_SAMPLES {
            let mut trial = op.cfg.base.clone();
            trial.payload = frags[k as usize].to_bits();
            trial.frame.payload_bits = trial.payload.len();
            trial.seed = derive(seed, 3, i * FWD_SAMPLES + k);
            trial.faults = op.cfg.faults.clone();
            t.span("bulk.fwd_exchange", |_| run_trial(&trial));
        }
        ack_exchange(&mut t, &op, derive(seed, 4, i));
        t.span("bulk.rs", |_| {
            // erasure decode: drop `parity` fragments of every generation
            let mut reasm = Reassembler::new(plan);
            for g in 0..plan.generations() {
                let s = plan.gen_start(g);
                for f in &frags[s + op.cfg.params.parity..s + plan.gen_frag_count(g)] {
                    reasm.accept(f);
                }
            }
            assert_eq!(
                reasm.assemble().as_deref(),
                Some(&op.data[..]),
                "RS recovery"
            );
        });
        let tot = t.totals_since(mark);
        let get = |n: &str| tot.get(n).map(|v| v.1 / v.0 as f64).unwrap_or(0.0);
        let rs_ms = tot.get("bulk.rs").map(|v| v.1).unwrap_or(0.0);
        let explained = out.packets_sent as f64 * get("bulk.fwd_exchange")
            + acks as f64 * get("bulk.ack_exchange")
            + rs_ms;
        self_ms.push(ms(d) - explained);
        i += 1;
    }
    rep.attempted = i;
    guards.check(rep);
    let n = i as f64;
    rep.set("bulk.fwd_exchanges_per_op", fwd as f64 / n, "count");
    rep.set("bulk.rounds_per_op", rounds as f64 / n, "count");
    rep.set("bulk.acks_lost_per_op", acks_lost as f64 / n, "count");
    rep.set("bulk.fwd_exchange_ms", t.mean_ms("bulk.fwd_exchange"), "ms");
    rep.set("bulk.ack_exchange_ms", t.mean_ms("bulk.ack_exchange"), "ms");
    rep.set("bulk.rs_ms", 2.0 * t.mean_ms("bulk.rs"), "ms");
    rep.set("bulk.self_ms", mean(&self_ms), "ms");
    rep.set("bulk.static_op_ms_p50", median(&static_ms), "ms");
    rep.set("bulk.adaptive_op_ms_p50", median(&adaptive_ms), "ms");
    rep.set(
        "channel.render_static_ms",
        t.mean_ms("channel.render_static"),
        "ms",
    );
    rep.set("channel.link_new_ms", t.mean_ms("channel.link_new"), "ms");
    rep.set("sim.digest", digest.value() as f64, "hash");
    rep.set("guard.retx_ops", guards.retx_ops as f64, "count");
    rep.set(
        "guard.faulted_completed",
        guards.faulted_completed as f64,
        "count",
    );
    let fwd_share = fwd as f64 * t.mean_ms("bulk.fwd_exchange") / op_ms.iter().sum::<f64>();
    let ack_share =
        ack_exchanges as f64 * t.mean_ms("bulk.ack_exchange") / op_ms.iter().sum::<f64>();
    rep.note(
        "where_transfer_time_goes",
        format!(
            "{{\"op_ms_mean\":{:.3},\"fwd_exchanges_per_op\":{:.2},\"fwd_exchange_ms\":{:.3},\
             \"fwd_share\":{fwd_share:.4},\"ack_exchanges_per_op\":{:.2},\"ack_exchange_ms\":{:.3},\
             \"ack_share\":{ack_share:.4},\"link_new_ms\":{:.4},\"ack_tone_render_ms\":{:.4},\
             \"rs_ms_per_op\":{:.4},\"self_ms\":{:.3}}}",
            mean(&op_ms),
            fwd as f64 / n,
            t.mean_ms("bulk.fwd_exchange"),
            ack_exchanges as f64 / n,
            t.mean_ms("bulk.ack_exchange"),
            t.mean_ms("channel.link_new"),
            t.mean_ms("channel.render_static"),
            2.0 * t.mean_ms("bulk.rs"),
            mean(&self_ms),
        ),
    );
    crate::write_trace(&t, "transfer_lake", seed);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(delivered: Option<Vec<u8>>, reason: BulkReason) -> BulkOutcome {
        BulkOutcome {
            delivered,
            reason,
            rounds: 1,
            packets_sent: 16,
            packets_delivered: 16,
            erasures: 0,
            duplicates: 0,
            acks_lost: 0,
            suspensions: 0,
            probes: 0,
            suspended_s: 0.0,
            airtime_s: 1.0,
            goodput_bps: 1.0,
        }
    }

    #[test]
    fn planted_wrong_bytes_fail_the_op() {
        let op = op_input(1, 0);
        assert!(check(&op, &outcome(Some(op.data.clone()), BulkReason::Completed)).is_ok());
        assert!(check(&op, &outcome(None, BulkReason::RoundBudget)).is_ok());
        let mut wrong = op.data.clone();
        wrong[7] ^= 0x10;
        assert!(check(&op, &outcome(Some(wrong), BulkReason::Completed)).is_err());
        assert!(check(&op, &outcome(None, BulkReason::Completed)).is_err());
    }
}
