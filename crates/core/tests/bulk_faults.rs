//! Acceptance for bulk transfer under time-varying faults (DESIGN.md
//! §13): a 2 KB payload crosses the 15 m Lake link bit-exact through a
//! schedule with a mid-transfer 30 s blackout plus impulsive-burst
//! trains — by suspending, probing, and resuming — where the static
//! engine under the *same* schedule and round budget provably fails.
//! Also pins the hard invariant the fault seam rides on: attaching an
//! empty schedule changes nothing, down to the last airtime bit — and
//! pins the exact outcome of four runs across both engines, so a
//! refactor of the transfer loop cannot move a single field.

use aqua_channel::environments::{Environment, Site};
use aqua_channel::fault::FaultSchedule;
use aqua_channel::geometry::Pos;
use aqua_proto::transfer::TransferParams;
use aquapp::bulk::{
    run_adaptive_transfer, run_bulk_transfer, run_bulk_transfer_with_faults, BulkConfig,
    BulkOutcome, BulkReason,
};
use aquapp::trial::TrialConfig;

/// Deterministic pseudo-random payload (splitmix-style byte stream).
fn payload_bytes(len: usize, mut state: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

fn lake_cfg(range_m: f64, seed: u64) -> BulkConfig {
    BulkConfig {
        base: TrialConfig::standard(
            Environment::preset(Site::Lake),
            Pos::new(0.0, 0.0, 1.0),
            Pos::new(range_m, 0.0, 1.0),
            seed,
        ),
        params: TransferParams::default_rs(),
        window: 12,
        max_rounds: 13,
        faults: None,
    }
}

/// The storm: snapping-shrimp burst trains over the whole session plus a
/// 30 s hard blackout landing mid-transfer (a clean 2 KB run takes
/// ~68 s of airtime over this link, so t = 25 s is a couple of full
/// windows in).
fn storm() -> FaultSchedule {
    FaultSchedule::seeded(0xFA17)
        .with_burst_train(0.0, 180.0, 0.1, 0.7)
        .with_blackout(25.0, 30.0)
}

#[test]
fn adaptive_rides_out_a_30s_blackout_where_the_static_engine_fails() {
    let payload = payload_bytes(2048, 0xA11CE);
    let mut cfg = lake_cfg(15.0, 77);
    cfg.faults = Some(storm());

    // Static engine, same schedule, same round budget: every round that
    // overlaps the blackout is a total loss it pays for in full, and the
    // budget is gone before the payload is.
    let stat = run_bulk_transfer(&cfg, &payload).expect("valid config");
    assert_eq!(stat.delivered, None, "static engine must not survive");
    assert_eq!(stat.reason, BulkReason::RoundBudget);
    assert_eq!(stat.rounds, cfg.max_rounds);

    // Adaptive engine: two dead rounds trigger suspension; backed-off
    // probes cross the blackout without touching the round budget; the
    // transfer resumes where it parked and completes bit-exact.
    let out = run_adaptive_transfer(&cfg, &payload).expect("valid config");
    assert_eq!(
        out.delivered.as_deref(),
        Some(&payload[..]),
        "2 KB must arrive bit-exact through the storm (reason {:?}, rounds {}, probes {})",
        out.reason,
        out.rounds,
        out.probes
    );
    assert_eq!(out.reason, BulkReason::Completed);
    assert!(out.suspensions >= 1, "the blackout must trigger suspension");
    assert!(out.probes >= 1, "resume must come through a probe");
    assert!(
        out.suspended_s > 5.0,
        "the wait crosses a real outage, got {:.1} s",
        out.suspended_s
    );
    assert!(out.rounds <= cfg.max_rounds);
}

#[test]
fn permanent_blackout_ends_in_blackout_not_round_budget() {
    // The link dies 3 s in and never comes back: the adaptive sender
    // must suspend, exhaust its probe budget, and say *why* it failed.
    let payload = payload_bytes(512, 0xBEEF);
    let mut cfg = lake_cfg(15.0, 78);
    cfg.faults = Some(FaultSchedule::seeded(1).with_blackout(3.0, 1e7));

    let out = run_adaptive_transfer(&cfg, &payload).expect("valid config");
    assert_eq!(out.delivered, None);
    assert_eq!(out.reason, BulkReason::Blackout, "explicit failure mode");
    assert!(out.suspensions >= 1);
    assert_eq!(out.probes, aquapp::bulk::PROBE_BUDGET, "probe budget spent");
}

#[test]
fn empty_fault_schedule_is_bit_identical_to_none() {
    // The zero-fault path through the fault seam must be the exact
    // pipeline that shipped before it existed: same bytes, same rounds,
    // same packet counts, airtime equal to the last bit.
    let payload = payload_bytes(480, 0x5EED);
    let plain = lake_cfg(15.0, 901);
    let mut seamed = plain.clone();
    seamed.faults = Some(FaultSchedule::seeded(0xDEAD));
    assert!(seamed.faults.as_ref().unwrap().is_empty());

    for (a, b) in [
        (
            run_bulk_transfer(&plain, &payload).expect("valid config"),
            run_bulk_transfer(&seamed, &payload).expect("valid config"),
        ),
        (
            run_adaptive_transfer(&plain, &payload).expect("valid config"),
            run_adaptive_transfer(&seamed, &payload).expect("valid config"),
        ),
    ] {
        assert_eq!(a.delivered.as_deref(), Some(&payload[..]));
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.reason, b.reason);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.packets_sent, b.packets_sent);
        assert_eq!(a.packets_delivered, b.packets_delivered);
        assert_eq!(a.erasures, b.erasures);
        assert_eq!(a.duplicates, b.duplicates);
        assert_eq!(a.acks_lost, b.acks_lost);
        assert_eq!(
            a.airtime_s.to_bits(),
            b.airtime_s.to_bits(),
            "airtime must match to the bit"
        );
    }
}

/// Every `BulkOutcome` field of one run, floats as raw bits.
#[derive(Debug, PartialEq)]
struct Pin {
    delivered: bool,
    reason: BulkReason,
    rounds: usize,
    packets_sent: usize,
    packets_delivered: usize,
    erasures: usize,
    duplicates: usize,
    acks_lost: usize,
    suspensions: usize,
    probes: usize,
    suspended_s: u64,
    airtime_s: u64,
    goodput_bps: u64,
}

fn pin(out: &BulkOutcome, payload: &[u8]) -> Pin {
    if let Some(d) = &out.delivered {
        assert_eq!(d, payload, "a delivered payload must be bit-exact");
    }
    Pin {
        delivered: out.delivered.is_some(),
        reason: out.reason,
        rounds: out.rounds,
        packets_sent: out.packets_sent,
        packets_delivered: out.packets_delivered,
        erasures: out.erasures,
        duplicates: out.duplicates,
        acks_lost: out.acks_lost,
        suspensions: out.suspensions,
        probes: out.probes,
        suspended_s: out.suspended_s.to_bits(),
        airtime_s: out.airtime_s.to_bits(),
        goodput_bps: out.goodput_bps.to_bits(),
    }
}

#[test]
fn engine_outcomes_are_pinned_to_the_bit() {
    // Four 480 B Lake transfers covering both engines' seed schemes and
    // every path of the transfer loop: static clean, static with forced
    // erasures, adaptive under heavy bursts (ladder + ACK re-solicit) and
    // adaptive through a storm that suspends and probes. Any change to a
    // seed, the session clock or the accounting moves one of these.
    let payload = payload_bytes(480, 0x601D);
    let heavy = FaultSchedule::seeded(0xFA17).with_burst_train(0.0, 600.0, 0.1, 0.7);
    let storm = heavy.clone().with_blackout(6.0, 30.0);
    let clean = lake_cfg(15.0, 4000);
    let faulted = |range_m: f64, seed: u64, faults: FaultSchedule| BulkConfig {
        faults: Some(faults),
        ..lake_cfg(range_m, seed)
    };
    let lose = |round: usize, seq: u16| round == 0 && seq % 3 == 1;
    let got: Vec<Pin> = [
        run_bulk_transfer(&clean, &payload),
        run_bulk_transfer_with_faults(&clean, &payload, lose),
        run_adaptive_transfer(&faulted(25.0, 4182, heavy), &payload),
        run_adaptive_transfer(&faulted(15.0, 4000, storm), &payload),
    ]
    .iter()
    .map(|r| pin(r.as_ref().expect("valid config"), &payload))
    .collect();
    let expected = vec![
        Pin {
            delivered: true,
            reason: BulkReason::Completed,
            rounds: 2,
            packets_sent: 20,
            packets_delivered: 20,
            erasures: 0,
            duplicates: 0,
            acks_lost: 0,
            suspensions: 0,
            probes: 0,
            suspended_s: 0,
            airtime_s: 4626207089641534085,
            goodput_bps: 4641101078789629697,
        },
        Pin {
            delivered: true,
            reason: BulkReason::Completed,
            rounds: 2,
            packets_sent: 24,
            packets_delivered: 20,
            erasures: 4,
            duplicates: 0,
            acks_lost: 0,
            suspensions: 0,
            probes: 0,
            suspended_s: 0,
            airtime_s: 4627284569988320461,
            goodput_bps: 4639973624414077811,
        },
        Pin {
            delivered: true,
            reason: BulkReason::Completed,
            rounds: 3,
            packets_sent: 26,
            packets_delivered: 19,
            erasures: 6,
            duplicates: 1,
            acks_lost: 1,
            suspensions: 0,
            probes: 0,
            suspended_s: 0,
            airtime_s: 4627362597197489461,
            goodput_bps: 4639906123922092684,
        },
        Pin {
            delivered: true,
            reason: BulkReason::Completed,
            rounds: 5,
            packets_sent: 42,
            packets_delivered: 18,
            erasures: 23,
            duplicates: 1,
            acks_lost: 7,
            suspensions: 1,
            probes: 2,
            suspended_s: 4627448617123184640,
            airtime_s: 4628354180763882970,
            goodput_bps: 4639168081473705989,
        },
    ];
    assert_eq!(got, expected);
}
