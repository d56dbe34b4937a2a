//! Repository benchmark for the AquaModem workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <link_mix|transfer_lake|relay_durable|rx_stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one client, generated from
//! `--seed`, calling only the library's public entry points. `--trace 0`
//! times the untraced loop for `--seconds` and reports the end-to-end
//! metrics; `--trace 1` is a separate run that wraps calls into each
//! layer in spans and reports the per-layer metrics (and writes the spans
//! to `perfbench/out/`). Every op's output is checked; the last stdout
//! line is the JSON result, earlier lines carry the machine stamp and
//! notes (tail percentile, digest, reconciliation).

mod common;
mod link_mix;
mod relay_durable;
mod rx_stream;
mod transfer_lake;

use common::{json_str, Report, Tracer};

const WORKLOADS: [&str; 4] = ["link_mix", "transfer_lake", "relay_durable", "rx_stream"];

/// End-to-end metrics (`--trace 0`), as listed in `BENCHMARK.json`.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "op_ms_p50",
    "op_ms_tail",
    "peak_rss_mb",
];

/// Per-layer metrics (`--trace 1`), as listed in `BENCHMARK.json`. A
/// workload that does not reach a layer reports its metrics as 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("channel.render_static_ms", "ms"),
    ("channel.render_moving_ms", "ms"),
    ("channel.link_new_ms", "ms"),
    ("channel.transmits_per_op", "count"),
    ("dsp.front_end_ms", "ms"),
    ("phy.detect_ms", "ms"),
    ("phy.estimate_select_ms", "ms"),
    ("phy.feedback_ms", "ms"),
    ("phy.modulate_ms", "ms"),
    ("phy.demod_ms", "ms"),
    ("coding.viterbi_ms", "ms"),
    ("trial.self_ms", "ms"),
    ("trial.data_phase_ratio", "ratio"),
    ("par.speedup_2v1", "ratio"),
    ("par.empty_fanout_us", "us"),
    ("par.cold_trial_ms", "ms"),
    ("bulk.fwd_exchanges_per_op", "count"),
    ("bulk.rounds_per_op", "count"),
    ("bulk.acks_lost_per_op", "count"),
    ("bulk.fwd_exchange_ms", "ms"),
    ("bulk.ack_exchange_ms", "ms"),
    ("bulk.rs_ms", "ms"),
    ("bulk.self_ms", "ms"),
    ("bulk.static_op_ms_p50", "ms"),
    ("bulk.adaptive_op_ms_p50", "ms"),
    ("mac.events_per_op", "count"),
    ("mac.receptions_per_op", "count"),
    ("mac.us_per_event", "us"),
    ("net.reboots_per_op", "count"),
    ("net.replayed_per_op", "count"),
    ("net.journal_bytes_per_op", "bytes"),
    ("net.journal_append_us", "us"),
    ("net.replay_us_per_record", "us"),
    ("net.audit_ms", "ms"),
    ("net.delivered_ratio", "ratio"),
    ("net.self_ms", "ms"),
    ("rx.scan_block_ms_p50", "ms"),
    ("rx.event_block_ms_max", "ms"),
    ("rx.feedback_turnaround_ms", "ms"),
    ("rx.packets_per_pass", "count"),
    ("sim.digest", "hash"),
    ("trace.span_overhead_us", "us"),
    ("guard.fixed_share", "ratio"),
    ("guard.sway_share", "ratio"),
    ("guard.retx_ops", "count"),
    ("guard.faulted_completed", "count"),
    ("guard.ops_without_reboots", "count"),
    ("guard.ops_without_replay", "count"),
    ("guard.failed_checks", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Writes the traced run's spans next to the benchmark.
pub fn write_trace(t: &Tracer, workload: &str, seed: u64) {
    let path = std::path::PathBuf::from(format!("perfbench/out/trace_{workload}_seed{seed}.jsonl"));
    let span_us = span_overhead_us();
    match t.write(&path, 500_000) {
        Ok(()) => println!(
            "{{\"trace_file\":{},\"spans\":{},\"span_cost_us\":{span_us:.4},\
             \"recording_cost_ms\":{:.3}}}",
            json_str(&path.to_string_lossy()),
            t.spans.len(),
            t.spans.len() as f64 * span_us / 1e3
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Mean cost of recording one empty span.
fn span_overhead_us() -> f64 {
    let mut t = Tracer::default();
    let n = 20_000;
    let (_, d) = common::timed(|| {
        for _ in 0..n {
            t.span("probe", |_| ());
        }
    });
    d.as_secs_f64() * 1e6 / n as f64
}

fn render(rep: &Report, trace: bool) -> String {
    let mut members = Vec::new();
    let mut push = |name: &str, unit: &str| {
        let v = rep.metrics.get(name).map(|m| m.0).unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        members.push(format!(
            "{}:{{\"value\":{v},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    };
    if trace {
        PER_LAYER.iter().for_each(|(n, u)| push(n, u));
    } else {
        for n in END_TO_END {
            let unit = rep.metrics.get(n).map(|m| m.1).unwrap_or("");
            push(n, unit);
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.errors.is_empty(),
        rep.attempted.max(1),
        rep.failed,
        members.join(",")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (s, secs, tr) = (args.seed, args.seconds, args.trace);
    let mut rep = match args.workload.as_str() {
        "link_mix" => link_mix::run(s, secs, tr),
        "transfer_lake" => transfer_lake::run(s, secs, tr),
        "relay_durable" => relay_durable::run(s, secs, tr),
        _ => rx_stream::run(s, secs, tr),
    };
    if tr {
        rep.set("trace.span_overhead_us", span_overhead_us(), "us");
        rep.set("guard.failed_checks", rep.errors.len() as f64, "count");
    }
    let notes: Vec<String> = rep
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!(
        "{{\"workload\":{},\"seed\":{s},\"trace\":{tr},\"notes\":{{{}}}}}",
        json_str(&args.workload),
        notes.join(",")
    );
    for e in &rep.errors {
        eprintln!("perfbench: {e}");
    }
    println!("{}", render(&rep, tr));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for n in END_TO_END {
            assert!(json.contains(&format!("\"name\": \"{n}\"")), "{n} missing");
        }
        for (n, u) in PER_LAYER {
            assert!(
                json.contains(&format!("\"name\": \"{n}\",\n      \"unit\": \"{u}\"")),
                "{n} ({u}) missing"
            );
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
