//! `link_mix`: one `ExperimentEngine::trial_series` of 8 mixed packets per
//! op on a 2-worker pool — the paper's per-packet stack (channel render,
//! receiver front end, PHY, Viterbi) and the large-batch pool fan-out.

use crate::common::*;
use aqua_channel::environments::{Environment, Site};
use aqua_channel::geometry::Pos;
use aqua_channel::link::{Link, LinkConfig, SAMPLE_RATE};
use aqua_channel::mobility::Trajectory;
use aqua_coding::conv::{encode as conv_encode, Rate};
use aqua_eval::engine::ExperimentEngine;
use aqua_eval::link_experiments::FIXED_BANDS;
use aqua_par::Pool;
use aqua_phy::bandselect::{best_single_bin, select_band, Band};
use aqua_phy::chanest::estimate;
use aqua_phy::feedback::{decode_feedback_whitened, decode_tone, encode_feedback, noise_bin_power};
use aqua_phy::frame::{build_header, locate_training};
use aqua_phy::ofdm::{data_section_len, demodulate_data, modulate_data, DecodeOptions};
use aqua_phy::preamble::{detect_streaming, Preamble};
use aquapp::trial::{front_end, run_trial, Scheme, TrialConfig, TrialResult};
use std::collections::HashMap;

const PACKETS: usize = 8;
const WORKERS: usize = 2;
/// Ops whose outcomes make up `sim.digest` (the traced run re-executes
/// them on a 1-worker pool).
const DIGEST_OPS: u64 = 3;
const TAIL_P: f64 = 95.0;
/// A set-up is one ~50 ms fan-out, so take the median of many.
const SETUP_REPS: usize = 9;
/// Silence `run_trial` prepends to the header (its `LEAD_SAMPLES`).
const LEAD_SAMPLES: usize = 2400;
/// Seed of `run_trial`'s pre-dive noise-floor calibration.
const CALIBRATION_SEED: u64 = 0xCA11_B007;

/// One packet of the mix.
#[derive(Debug, Clone, Copy)]
struct Packet {
    site: Site,
    range_m: f64,
    fixed: bool,
    sway: bool,
    seed: u64,
}

/// The seeded packet mix of op `op`: random site and range; every fourth
/// packet on the fixed 1–4 kHz band and every fifth on the swaying rig,
/// counted over the run's packet sequence from seeded offsets.
fn packets(seed: u64, op: u64) -> Vec<Packet> {
    let mut rng = SplitMix::new(derive(seed, 1, op));
    let fixed_off = seed % 4;
    let sway_off = (seed / 4) % 5;
    (0..PACKETS as u64)
        .map(|k| {
            let g = op * PACKETS as u64 + k;
            Packet {
                site: Site::UNDERWATER[rng.below(6) as usize],
                range_m: 5.0 + 25.0 * rng.unit(),
                fixed: (g + fixed_off).is_multiple_of(4),
                sway: (g + sway_off).is_multiple_of(5),
                seed: rng.next_u64() >> 16,
            }
        })
        .collect()
}

fn trial_cfg(p: &Packet) -> TrialConfig {
    let mut cfg = TrialConfig::standard(
        Environment::preset(p.site),
        Pos::new(0.0, 0.0, 1.0),
        Pos::new(p.range_m, 0.0, 1.0),
        p.seed,
    );
    if p.fixed {
        cfg.scheme = Scheme::Fixed(FIXED_BANDS[0].1);
    }
    if p.sway {
        // fig12's rope-suspended rig
        cfg.alice_traj = Trajectory::Oscillating {
            base: Pos::new(0.0, 0.0, 1.0),
            azimuth: 0.0,
            rms_accel: 0.8,
            seed: p.seed ^ 0x5A,
        };
    }
    cfg
}

/// The op check: every decoded packet carries its payload.
fn check(cfgs: &[TrialConfig], results: &[TrialResult]) -> Result<(), String> {
    if results.len() != cfgs.len() {
        return Err(format!(
            "{} results for {} packets",
            results.len(),
            cfgs.len()
        ));
    }
    for (k, (c, r)) in cfgs.iter().zip(results).enumerate() {
        if r.packet_ok && r.bits.as_deref() != Some(&c.payload[..]) {
            return Err(format!(
                "packet {k}: packet_ok but bits differ from payload"
            ));
        }
    }
    Ok(())
}

fn run_op(engine: &ExperimentEngine, cfgs: &[TrialConfig]) -> Vec<TrialResult> {
    engine.trial_series(cfgs.len(), |i| cfgs[i as usize].clone())
}

struct Setup {
    engine: ExperimentEngine,
}

fn setup() -> Setup {
    let engine = ExperimentEngine::with_pool(Pool::new(WORKERS));
    // warm-up op: the first fan-out of the run, on a fixed mix so set-up
    // time does not depend on the seed
    let cfgs: Vec<TrialConfig> = packets(0xAA55, 0).iter().map(trial_cfg).collect();
    std::hint::black_box(run_op(&engine, &cfgs));
    Setup { engine }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::default();
    let (st, setup_s, setup_times) = setup_median(SETUP_REPS, setup);
    rep.note("setup_s_samples", json_nums(&setup_times));
    rep.note("stamp", machine_stamp(WORKERS));
    if trace {
        traced(&mut rep, &st, seed, seconds);
        return rep;
    }
    let mut digest = Digest::default();
    let mut shares = Shares::default();
    let lp = Loop::run(seconds, min_ops_for_tail(TAIL_P), |op| {
        let pk = packets(seed, op);
        shares.add(&pk);
        let cfgs: Vec<TrialConfig> = pk.iter().map(trial_cfg).collect();
        let (results, d) = cpu_timed(|| run_op(&st.engine, &cfgs));
        check(&cfgs, &results)?;
        if op < DIGEST_OPS {
            results.iter().for_each(|r| digest.add(r));
        }
        Ok(d)
    });
    rep.end_to_end(&lp, TAIL_P, setup_s);
    shares.guard(&mut rep);
    rep.note("sim_digest", digest.value().to_string());
    rep
}

#[derive(Default)]
struct Shares {
    packets: usize,
    fixed: usize,
    sway: usize,
}

impl Shares {
    fn add(&mut self, pk: &[Packet]) {
        self.packets += pk.len();
        self.fixed += pk.iter().filter(|p| p.fixed).count();
        self.sway += pk.iter().filter(|p| p.sway).count();
    }

    fn guard(&self, rep: &mut Report) {
        let n = self.packets.max(1) as f64;
        let (f, s) = (self.fixed as f64 / n, self.sway as f64 / n);
        rep.guard(
            (f - 0.25).abs() <= 0.05,
            format!("fixed-band share {f:.3}, configured 0.25"),
        );
        rep.guard(
            (s - 0.20).abs() <= 0.05,
            format!("swaying share {s:.3}, configured 0.20"),
        );
    }
}

/// What the stage replay decided, compared against `run_trial`.
#[derive(Debug, PartialEq)]
struct Decision {
    band: Option<Band>,
    bits: Option<Vec<u8>>,
    packet_ok: bool,
}

impl Decision {
    fn of(r: &TrialResult) -> Self {
        Self {
            band: r.band,
            bits: r.bits.clone(),
            packet_ok: r.packet_ok,
        }
    }
}

/// `run_trial`'s stages, in its order, each call wrapped in a span. Its
/// decisions must equal `run_trial`'s on the same config, so the spans
/// time the program's own path.
fn stage_replay(
    t: &mut Tracer,
    cfg: &TrialConfig,
    floors: &mut HashMap<Site, Vec<f64>>,
    site: Site,
) -> Decision {
    let params = cfg.frame.params;
    let preamble = Preamble::new(params);
    let moving = !matches!(cfg.alice_traj, Trajectory::Static { .. })
        || !matches!(cfg.bob_traj, Trajectory::Static { .. });
    let render: &'static str = if moving {
        "channel.render_moving"
    } else {
        "channel.render_static"
    };
    let link = |tx: aqua_channel::device::Device,
                rx: aqua_channel::device::Device,
                ttraj: &Trajectory,
                rtraj: &Trajectory,
                seed: u64| LinkConfig {
        fs: SAMPLE_RATE,
        env: cfg.env.clone(),
        tx_device: tx,
        rx_device: rx,
        tx_traj: ttraj.clone(),
        rx_traj: rtraj.clone(),
        noise: true,
        impulses: false,
        seed,
    };
    let fwd_cfg = link(
        cfg.alice_device,
        cfg.bob_device,
        &cfg.alice_traj,
        &cfg.bob_traj,
        cfg.seed ^ 0xF0,
    );
    let bwd_cfg = link(
        cfg.bob_device,
        cfg.alice_device,
        &cfg.bob_traj,
        &cfg.alice_traj,
        cfg.seed ^ 0x0B,
    );
    let mut forward = t.span("channel.link_new", |_| Link::new(fwd_cfg));
    let mut backward = t.span("channel.link_new", |_| Link::new(bwd_cfg));
    let none = Decision {
        band: None,
        bits: None,
        packet_ok: false,
    };

    let mut header_tx = vec![0.0; LEAD_SAMPLES];
    header_tx.extend(build_header(&cfg.frame, &preamble, cfg.bob_id));
    let header_raw = t.span(render, |_| {
        forward.transmit_with_faults(&header_tx, 0.0, None)
    });
    let header_rx = t.span("dsp.front_end", |_| front_end(&header_raw));
    let Some(det) = t.span("phy.detect", |_| {
        detect_streaming(&header_rx, &preamble, &cfg.detector)
    }) else {
        return none;
    };
    let off = det.offset;
    // receiver-ID check (its result feeds no decision compared here)
    let id_start = off + preamble.len();
    if let Some(w) = header_rx
        .get(id_start..)
        .filter(|w| w.len() >= params.symbol_len())
    {
        let end = (params.symbol_len() + params.cp).min(w.len());
        t.span("phy.feedback", |_| decode_tone(&params, &w[..end], 0.3));
    }
    let header_end_s = (off + preamble.len() + params.symbol_len()) as f64 / SAMPLE_RATE;

    let (bob_band, alice_band) = match cfg.scheme {
        Scheme::Fixed(b) | Scheme::Stale(b) => {
            t.span("phy.estimate_select", |_| {
                estimate(&params, &preamble, &header_rx[off..])
            });
            (b, b)
        }
        Scheme::Adaptive => {
            let selected = t.span("phy.estimate_select", |_| {
                let est = estimate(&params, &preamble, &header_rx[off..]);
                select_band(&est.snr_db, &cfg.band_cfg).or_else(|| best_single_bin(&est.snr_db))
            });
            let Some(selected) = selected else {
                return none;
            };
            let fb_tx = t.span("phy.feedback", |_| encode_feedback(&params, selected));
            let floor = floors.entry(site).or_insert_with(|| {
                let mut cal = aqua_channel::noise::NoiseGenerator::new(
                    cfg.env.noise.clone(),
                    SAMPLE_RATE,
                    CALIBRATION_SEED,
                );
                noise_bin_power(&params, &front_end(&cal.generate(8 * params.n_fft)))
            });
            let fb_raw = t.span(render, |_| {
                backward.transmit_with_faults(&fb_tx, header_end_s + 0.002, None)
            });
            let fb_rx = t.span("dsp.front_end", |_| front_end(&fb_raw));
            let decoded = t.span("phy.feedback", |_| {
                decode_feedback_whitened(&params, &fb_rx, 0.3, Some(floor.as_slice()))
            });
            let Some(decoded) = decoded else {
                return Decision {
                    band: Some(selected),
                    ..none
                };
            };
            (selected, decoded.band)
        }
    };

    let data_tx = t.span("phy.modulate", |_| {
        // `run_trial` also encodes the payload for its coded-BER figure
        std::hint::black_box(conv_encode(&cfg.payload, Rate::TwoThirds));
        modulate_data(&params, alice_band, &cfg.payload)
    });
    let data_start_s = (LEAD_SAMPLES + cfg.frame.data_start_offset()) as f64 / SAMPLE_RATE;
    let data_raw = t.span(render, |_| {
        forward.transmit_with_faults(&data_tx, data_start_s, None)
    });
    let data_rx = t.span("dsp.front_end", |_| front_end(&data_raw));
    let lost = Decision {
        band: Some(bob_band),
        ..none
    };
    let expected = off.saturating_sub(LEAD_SAMPLES);
    let Some(train_at) = t.span("phy.demod", |_| {
        locate_training(&params, &data_rx, expected, 2 * params.cp, 0.2)
    }) else {
        return lost;
    };
    if data_rx.len() < train_at + data_section_len(&params, bob_band, cfg.payload.len()) {
        return lost;
    }
    let opts = DecodeOptions {
        bandpass: false,
        differential: cfg.differential && cfg.decode.differential,
        ..cfg.decode
    };
    let decoded = t.span("phy.demod", |_| {
        demodulate_data(
            &params,
            bob_band,
            &data_rx[train_at..],
            cfg.payload.len(),
            &opts,
        )
    });
    // Viterbi is the tail of `demodulate_data`; time it on the same soft
    // bits so the PHY share can be split from the decoder's.
    t.span("coding.viterbi", |_| {
        aqua_coding::viterbi::decode_soft(&decoded.soft, Rate::TwoThirds)
    });
    let packet_ok = decoded.bits == cfg.payload;
    Decision {
        band: Some(bob_band),
        bits: Some(decoded.bits),
        packet_ok,
    }
}

fn traced(rep: &mut Report, st: &Setup, seed: u64, seconds: f64) {
    let serial = ExperimentEngine::with_pool(Pool::new(1));
    let mut t = Tracer::default();
    let mut floors = HashMap::new();
    let mut shares = Shares::default();
    let (mut t2, mut t1) = (0.0, 0.0);
    let mut digest = Digest::default();
    let mut digest_serial = Digest::default();
    let (mut trials, mut data_phase, mut self_ms) = (0usize, 0usize, Vec::new());
    let (mut sway_ms, mut static_ms) = (Vec::new(), Vec::new());
    let mut op_ms = Vec::new();
    let started = std::time::Instant::now();
    let mut op = 0u64;
    while op < DIGEST_OPS.max(4) || started.elapsed().as_secs_f64() < seconds {
        let pk = packets(seed, op);
        shares.add(&pk);
        let cfgs: Vec<TrialConfig> = pk.iter().map(trial_cfg).collect();
        let (res2, d2) = t.span("par.par_map", |_| timed(|| run_op(&st.engine, &cfgs)));
        let (res1, d1) = timed(|| run_op(&serial, &cfgs));
        if let Err(e) = check(&cfgs, &res2) {
            rep.op_failed(format!("traced op {op}: {e}"));
        }
        t2 += ms(d2);
        t1 += ms(d1);
        op_ms.push(ms(d2));
        if op < DIGEST_OPS {
            res2.iter().for_each(|r| digest.add(r));
            res1.iter().for_each(|r| digest_serial.add(r));
        }
        for (p, cfg) in pk.iter().zip(&cfgs) {
            let (r, d) = timed(|| run_trial(cfg));
            let mark = t.mark();
            let dec = stage_replay(&mut t, cfg, &mut floors, p.site);
            if dec != Decision::of(&r) {
                rep.errors.push(format!(
                    "stage replay diverged from run_trial (op {op}): {dec:?} vs {:?}",
                    Decision::of(&r)
                ));
            }
            let staged: f64 = t
                .totals_since(mark)
                .iter()
                .filter(|(n, _)| **n != "coding.viterbi")
                .map(|(_, v)| v.1)
                .sum();
            self_ms.push(ms(d) - staged);
            if p.sway {
                sway_ms.push(ms(d));
            } else {
                static_ms.push(ms(d));
            }
            trials += 1;
            data_phase += r.data_phase as usize;
        }
        op += 1;
    }
    rep.attempted = op;
    shares.guard(rep);
    rep.guard(
        digest.value() == digest_serial.value(),
        "sim.digest differs between 2-worker and 1-worker pools".into(),
    );

    let viterbi = t.mean_ms("coding.viterbi");
    rep.set(
        "channel.render_static_ms",
        t.mean_ms("channel.render_static"),
        "ms",
    );
    rep.set(
        "channel.render_moving_ms",
        t.mean_ms("channel.render_moving"),
        "ms",
    );
    rep.set("channel.link_new_ms", t.mean_ms("channel.link_new"), "ms");
    let transmits = t.count("channel.render_static") + t.count("channel.render_moving");
    rep.set(
        "channel.transmits_per_op",
        transmits as f64 / op as f64,
        "count",
    );
    rep.set("dsp.front_end_ms", t.mean_ms("dsp.front_end"), "ms");
    rep.set("phy.detect_ms", t.mean_ms("phy.detect"), "ms");
    rep.set(
        "phy.estimate_select_ms",
        t.mean_ms("phy.estimate_select"),
        "ms",
    );
    rep.set("phy.feedback_ms", t.mean_ms("phy.feedback"), "ms");
    rep.set("phy.modulate_ms", t.mean_ms("phy.modulate"), "ms");
    let demod_calls = t.count("coding.viterbi").max(1) as f64;
    let demod_total: f64 = t
        .totals_since(0)
        .get("phy.demod")
        .map(|v| v.1)
        .unwrap_or(0.0);
    rep.set(
        "phy.demod_ms",
        (demod_total / demod_calls - viterbi).max(0.0),
        "ms",
    );
    rep.set("coding.viterbi_ms", viterbi, "ms");
    rep.set("trial.self_ms", mean(&self_ms), "ms");
    rep.set(
        "trial.data_phase_ratio",
        data_phase as f64 / trials.max(1) as f64,
        "ratio",
    );
    rep.set("par.speedup_2v1", t1 / t2, "ratio");
    rep.set("par.empty_fanout_us", empty_fanout_us(), "us");
    rep.set("par.cold_trial_ms", cold_trial_ms(seed), "ms");
    rep.set("sim.digest", digest.value() as f64, "hash");
    rep.set(
        "guard.fixed_share",
        shares.fixed as f64 / shares.packets as f64,
        "ratio",
    );
    rep.set(
        "guard.sway_share",
        shares.sway as f64 / shares.packets as f64,
        "ratio",
    );

    // reconciliation: attributed stage time vs the warm serial trial, and
    // the 2-worker op vs its packets run serially on one warm thread
    let stage_total: f64 = t
        .totals_since(0)
        .iter()
        .filter(|(n, _)| !matches!(**n, "coding.viterbi" | "par.par_map"))
        .map(|(_, v)| v.1)
        .sum();
    let serial_trials: f64 = sway_ms.iter().chain(&static_ms).sum();
    rep.note(
        "reconciliation",
        format!(
            "{{\"ops\":{op},\"trials\":{trials},\"warm_serial_trial_ms_sum\":{serial_trials:.3},\
             \"attributed_stage_ms_sum\":{stage_total:.3},\"attributed_share\":{:.4},\
             \"op_ms_2_workers_mean\":{:.3},\"op_ms_1_worker_mean\":{:.3},\
             \"warm_serial_packets_per_op_ms\":{:.3}}}",
            stage_total / serial_trials,
            t2 / op as f64,
            t1 / op as f64,
            serial_trials / op as f64
        ),
    );
    rep.note(
        "sway_vs_static",
        format!(
            "{{\"swaying_trial_ms_mean\":{:.3},\"static_trial_ms_mean\":{:.3},\
             \"render_moving_ms\":{:.3},\"render_static_ms\":{:.3},\"swaying_packets\":{},\
             \"static_packets\":{}}}",
            mean(&sway_ms),
            mean(&static_ms),
            t.mean_ms("channel.render_moving"),
            t.mean_ms("channel.render_static"),
            sway_ms.len(),
            static_ms.len()
        ),
    );
    rep.note("traced_op_ms_p50", format!("{:.4}", median(&op_ms)));
    crate::write_trace(&t, "link_mix", seed);
}

/// Mean cost of a 2-item fan-out that does no work.
pub fn empty_fanout_us() -> f64 {
    let pool = Pool::new(WORKERS);
    let reps = 200;
    let (_, d) = timed(|| {
        for _ in 0..reps {
            std::hint::black_box(pool.par_map(2, |i| i));
        }
    });
    d.as_secs_f64() * 1e6 / reps as f64
}

/// First trial on a fresh thread minus the same trial warm (the cost a
/// scoped pool pays per worker per fan-out for its thread-local caches).
pub fn cold_trial_ms(seed: u64) -> f64 {
    let cfgs: Vec<TrialConfig> = packets(seed ^ 0xC01D, 0).iter().map(trial_cfg).collect();
    let diffs: Vec<f64> = cfgs
        .iter()
        .take(4)
        .map(|cfg| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    let (_, cold) = timed(|| run_trial(cfg));
                    let (_, warm) = timed(|| run_trial(cfg));
                    ms(cold) - ms(warm)
                })
                .join()
                .expect("cold-trial probe thread panicked")
            })
        })
        .collect();
    median(&diffs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn planted_wrong_bits_fail_the_op() {
        let cfg = trial_cfg(&packets(1, 0)[0]);
        let mut r = TrialResult {
            preamble_detected: true,
            id_ok: true,
            channel: None,
            band: None,
            feedback_ok: true,
            bits: Some(cfg.payload.clone()),
            packet_ok: true,
            data_phase: true,
            coded_ber: 0.0,
            coded_bitrate_bps: 0.0,
        };
        assert!(check(std::slice::from_ref(&cfg), std::slice::from_ref(&r)).is_ok());
        r.bits.as_mut().expect("bits")[0] ^= 1;
        let lp = Loop::run(0.0, 2, |_| {
            check(std::slice::from_ref(&cfg), std::slice::from_ref(&r)).map(|_| Duration::ZERO)
        });
        assert_eq!((lp.attempted, lp.failed), (2, 2));
    }

    #[test]
    fn configured_shares_hold() {
        let mut s = Shares::default();
        (0..10).for_each(|op| s.add(&packets(7, op)));
        let mut rep = Report::default();
        s.guard(&mut rep);
        assert!(rep.errors.is_empty(), "{:?}", rep.errors);
    }
}
