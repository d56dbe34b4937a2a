//! `rx_stream`: the phone's live path. Set-up runs four two-way exchanges
//! over the shared `Medium` (Bob's streaming receiver answers with his
//! feedback, Alice decodes it and sends the data) and records every 20 ms
//! block Bob heard. Each op replays one block into
//! `StreamingReceiver::push`; a fresh receiver starts each recorded
//! exchange, as it did live.

use crate::common::*;
use aqua_channel::device::Device;
use aqua_channel::environments::{Environment, Site};
use aqua_channel::geometry::Pos;
use aqua_channel::medium::Medium;
use aqua_channel::mobility::Trajectory;
use aqua_phy::feedback::{decode_feedback_whitened, noise_bin_power};
use aqua_phy::frame::{build_header, FrameConfig};
use aqua_phy::ofdm::modulate_data;
use aqua_phy::preamble::Preamble;
use aquapp::receiver::{RxEvent, StreamingReceiver};

const FS: f64 = 48_000.0;
const BLOCK: usize = 960;
const BOB_ID: u8 = 9;
const EXCHANGES: [(Site, f64); 4] = [
    (Site::Bridge, 6.0),
    (Site::Lake, 15.0),
    (Site::Park, 10.0),
    (Site::Lake, 25.0),
];
/// Passes recorded, each the four exchanges on fresh seeds: the replay
/// loops over all of them, so the tail is drawn from more than one
/// channel realization per site.
const ROUNDS: u64 = 4;
/// Seeds tried per exchange before set-up gives up.
const MAX_TRIES: u64 = 16;
const TAIL_P: f64 = 99.0;
const SETUP_REPS: usize = 3;

struct Recording {
    blocks: Vec<Vec<f64>>,
    /// Block indices where a recorded exchange starts (a fresh receiver).
    starts: Vec<usize>,
    /// Events set-up's live receiver emitted (the pass oracle).
    events: Vec<RxEvent>,
    payloads: Vec<Vec<u8>>,
    tries: Vec<u64>,
}

/// One two-way exchange, as `crates/core/tests/medium_exchange.rs` runs
/// it, feeding Bob's blocks to `rx` and appending them to `blocks`.
/// Returns the decoded payload, or `None` when this seed's exchange did
/// not complete.
fn exchange(
    site: Site,
    range_m: f64,
    seed: u64,
    payload: &[u8],
    rx: &mut StreamingReceiver,
    blocks: &mut Vec<Vec<f64>>,
    events: &mut Vec<RxEvent>,
) -> Option<Vec<u8>> {
    let frame = FrameConfig::default();
    let params = frame.params;
    let preamble = Preamble::new(params);
    let mut medium = Medium::new(Environment::preset(site), FS, seed);
    let alice = medium.add_node(
        Device::default_rig(seed.wrapping_mul(3) | 1),
        Trajectory::fixed(Pos::new(0.0, 0.0, 1.0)),
    );
    let bob = medium.add_node(
        Device::default_rig(seed.wrapping_mul(7) | 2),
        Trajectory::fixed(Pos::new(range_m, 0.0, 1.0)),
    );
    let t0: u64 = 4_800;
    let header = build_header(&frame, &preamble, BOB_ID);
    medium.transmit(alice, t0, &header);

    let mut push = |medium: &mut Medium, clock: u64, events: &mut Vec<RxEvent>| {
        let block = medium.capture(bob, clock, BLOCK);
        let ev = rx.push(&block);
        blocks.push(block);
        events.extend(ev.iter().cloned());
        ev
    };
    let mut clock: u64 = 0;
    let mut band = None;
    while band.is_none() && clock < t0 + 3 * header.len() as u64 {
        for e in push(&mut medium, clock, events) {
            if let RxEvent::FeedbackReady { band: b, waveform } = e {
                medium.transmit(bob, clock + BLOCK as u64, &waveform);
                band = Some(b);
            }
        }
        clock += BLOCK as u64;
    }
    band?;
    let ambient = medium.capture(alice, 1_000_000, 8 * params.n_fft);
    let npp = noise_bin_power(&params, &ambient);
    let fb = medium.capture(alice, t0 + header.len() as u64, 48_000);
    let decoded = decode_feedback_whitened(&params, &fb, 0.3, Some(&npp))?;
    let data = modulate_data(&params, decoded.band, payload);
    let data_at = t0 + frame.data_start_offset() as u64;
    medium.transmit(alice, data_at, &data);
    let deadline = data_at + (data.len() + 60_000) as u64;
    while clock < deadline {
        for e in push(&mut medium, clock, events) {
            match e {
                RxEvent::Packet { bits, .. } => return Some(bits),
                RxEvent::DataLost => return None,
                _ => {}
            }
        }
        clock += BLOCK as u64;
    }
    None
}

fn setup(seed: u64) -> Recording {
    let mut rec = Recording {
        blocks: Vec::new(),
        starts: Vec::new(),
        events: Vec::new(),
        payloads: Vec::new(),
        tries: Vec::new(),
    };
    for round in 0..ROUNDS {
        for (k, &(site, range)) in EXCHANGES.iter().enumerate() {
            // an exchange the simulated channel loses is retried on the
            // next derived seed and not recorded, so every recorded
            // exchange carries its packet
            for attempt in 0..MAX_TRIES {
                let s = derive(seed, 7, round << 16 | (k as u64) << 8 | attempt) >> 16;
                let payload: Vec<u8> = (0..16).map(|i| ((s >> i) & 1) as u8).collect();
                let mut rx = StreamingReceiver::new(FrameConfig::default(), BOB_ID);
                let (mut blocks, mut events) = (Vec::new(), Vec::new());
                let got = exchange(site, range, s, &payload, &mut rx, &mut blocks, &mut events);
                if got.as_deref() == Some(&payload[..]) {
                    rec.starts.push(rec.blocks.len());
                    rec.blocks.extend(blocks);
                    rec.events.extend(events);
                    rec.payloads.push(payload);
                    rec.tries.push(attempt + 1);
                    break;
                }
            }
        }
    }
    rec
}

fn packets(events: &[RxEvent]) -> Vec<Vec<u8>> {
    events
        .iter()
        .filter_map(|e| match e {
            RxEvent::Packet { bits, .. } => Some(bits.clone()),
            _ => None,
        })
        .collect()
}

/// The pass check: a pass emits exactly set-up's events and packets.
fn check_pass(rec: &Recording, events: &[RxEvent]) -> Result<(), String> {
    if packets(events) != rec.payloads {
        return Err(format!(
            "pass decoded {} packets, not the {} set-up decoded",
            packets(events).len(),
            rec.payloads.len()
        ));
    }
    if events != rec.events.as_slice() {
        return Err("pass events differ from set-up's".into());
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rep = Report::default();
    let (rec, setup_s, setup_times) = setup_median(SETUP_REPS, || setup(seed));
    rep.note("setup_s_samples", json_nums(&setup_times));
    rep.note("stamp", machine_stamp(1));
    rep.note(
        "recording",
        format!(
            "{{\"blocks\":{},\"passes\":{ROUNDS},\"exchange_tries\":{}}}",
            rec.blocks.len(),
            json_nums(&rec.tries.iter().map(|&x| x as f64).collect::<Vec<_>>())
        ),
    );
    let want = EXCHANGES.len() * ROUNDS as usize;
    rep.guard(
        rec.payloads.len() == want,
        format!(
            "set-up completed {} of {want} exchanges",
            rec.payloads.len()
        ),
    );
    let mut digest = Digest::default();
    rec.events.iter().for_each(|e| digest.add(e));
    rep.note("sim_digest", digest.value().to_string());
    if trace {
        traced(&mut rep, &rec, seed, seconds);
        return rep;
    }

    let mut rx = StreamingReceiver::new(FrameConfig::default(), BOB_ID);
    let mut pass_events = Vec::new();
    let mut passes = 0u64;
    let n = rec.blocks.len() as u64;
    let min_ops = n.max(min_ops_for_tail(TAIL_P));
    let lp = Loop::run(seconds, min_ops, |i| {
        let k = (i % n) as usize;
        if k == 0 {
            pass_events.clear();
        }
        if rec.starts.contains(&k) {
            rx = StreamingReceiver::new(FrameConfig::default(), BOB_ID);
        }
        let (ev, d) = cpu_timed(|| rx.push(&rec.blocks[k]));
        pass_events.extend(ev);
        if k + 1 == n as usize {
            passes += 1;
            // the pass's last block carries its check
            check_pass(&rec, &pass_events)?;
        }
        Ok(d)
    });
    rep.end_to_end(&lp, TAIL_P, setup_s);
    rep.note("passes", passes.to_string());
    rep
}

fn traced(rep: &mut Report, rec: &Recording, seed: u64, seconds: f64) {
    let mut t = Tracer::default();
    let (mut scan, mut event_max, mut feedback) = (Vec::new(), 0.0f64, Vec::new());
    let mut passes = 0u64;
    let started = std::time::Instant::now();
    while passes < 2 || started.elapsed().as_secs_f64() < seconds {
        let mut rx = StreamingReceiver::new(FrameConfig::default(), BOB_ID);
        let mut events = Vec::new();
        for (k, block) in rec.blocks.iter().enumerate() {
            if rec.starts.contains(&k) {
                rx = StreamingReceiver::new(FrameConfig::default(), BOB_ID);
            }
            let mark = t.mark();
            let ev = t.span("rx.push", |_| rx.push(block));
            let d = t.dur_ms(mark);
            if ev.is_empty() {
                scan.push(d);
            } else {
                event_max = event_max.max(d);
                if ev
                    .iter()
                    .any(|e| matches!(e, RxEvent::FeedbackReady { .. }))
                {
                    feedback.push(d);
                }
            }
            events.extend(ev);
        }
        if let Err(e) = check_pass(rec, &events) {
            rep.op_failed(format!("traced pass {passes}: {e}"));
        }
        passes += 1;
    }
    rep.attempted = passes * rec.blocks.len() as u64;
    let per_pass = packets(&rec.events).len() as f64 / ROUNDS as f64;
    rep.guard(
        per_pass == 4.0,
        format!("a pass decodes {per_pass} packets, not 4"),
    );
    rep.set("rx.scan_block_ms_p50", median(&scan), "ms");
    rep.set("rx.event_block_ms_max", event_max, "ms");
    rep.set("rx.feedback_turnaround_ms", mean(&feedback), "ms");
    rep.set("rx.packets_per_pass", per_pass, "count");
    let mut digest = Digest::default();
    rec.events.iter().for_each(|e| digest.add(e));
    rep.set("sim.digest", digest.value() as f64, "hash");
    crate::write_trace(&t, "rx_stream", seed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_wrong_packet_fails_the_pass() {
        let bits = vec![1u8, 0, 1, 1];
        let rec = Recording {
            blocks: Vec::new(),
            starts: vec![0],
            events: vec![RxEvent::Packet {
                bits: bits.clone(),
                value: 11,
            }],
            payloads: vec![bits.clone()],
            tries: vec![1],
        };
        assert!(check_pass(&rec, &rec.events).is_ok());
        let mut wrong = bits;
        wrong[0] ^= 1;
        let planted = [RxEvent::Packet {
            bits: wrong,
            value: 11,
        }];
        assert!(check_pass(&rec, &planted).is_err());
        assert!(check_pass(&rec, &[]).is_err());
    }
}
