#!/usr/bin/env bash
# Tier-1 gate for the AquaModem workspace: formatting, release build, tests,
# docs, and compile checks for examples and benches. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --examples"
cargo build --examples

echo "==> cargo bench --no-run"
cargo bench --no-run

echo "==> perf smoke: dsp_hot_paths against the §3 runtime budget (2x slack)"
BENCH_OUT=$(cargo bench -p aqua-bench --bench dsp_hot_paths)
echo "$BENCH_OUT"
check_budget() {
  # check_budget <bench-name> <budget-ms>: parses the criterion-shim line
  # "  <name>: mean 1.234 ms (min ...)" and fails when mean > budget.
  local name="$1" budget_ms="$2" line ms
  line=$(echo "$BENCH_OUT" | grep -F "$name: mean") || {
    echo "perf-smoke FAIL: bench '$name' not found in output"
    exit 1
  }
  # -n/p: print only on a real match, so a format drift in the criterion
  # shim fails the gate instead of silently parsing to zero
  ms=$(echo "$line" | sed -nE 's/.*mean ([0-9.]+) (ns|µs|ms|s) .*/\1 \2/p' |
    awk '{v=$1; if ($2=="ns") v/=1e6; else if ($2=="µs") v/=1e3; else if ($2=="s") v*=1e3; print v}')
  if [ -z "$ms" ]; then
    echo "perf-smoke FAIL: cannot parse timing from '$line'"
    exit 1
  fi
  awk -v v="$ms" -v b="$budget_ms" -v n="$name" 'BEGIN {
    if (v > b) { printf "perf-smoke FAIL: %s mean %.3f ms > budget %s ms\n", n, v, b; exit 1 }
    printf "perf-smoke ok: %s mean %.3f ms (budget %s ms)\n", n, v, b
  }'
}
check_budget "feedback_decode_rtt_window" 2
check_budget "preamble_detect_0.33s_buffer" 10
# PR 3's Stockham rewrite: 960-pt forward FFT ≈ 12 µs (was 26 µs); gate at
# the same 2x slack as the budgets above so a regression to the copying
# mixed-radix path fails loudly without tripping on scheduler noise.
check_budget "fft_960_forward" 0.025

echo "==> perf smoke: channel_render (PR 5 polyphase fractional-delay engine)"
# PR 5 baseline: the 0.5 s fast-motion lake render was 1040 ms per packet
# on this container (ROADMAP's ~50 ms/trial estimate was 20x optimistic);
# the polyphase engine brought it to ~28 ms (37x) and resample_const from
# 40.6 ms to ~1.1 ms. Gate both at ~2x slack so a regression to per-tap
# transcendental evaluation fails loudly.
BENCH_OUT=$(cargo bench -p aqua-bench --bench channel_render)
echo "$BENCH_OUT"
check_budget "render_moving_0.5s" 55
check_budget "resample_const_0.5s" 3

echo "==> perf smoke: eval_throughput trials/s floor (PR 4 per-trial overhaul)"
EVAL_OUT=$(cargo bench -p aqua-bench --bench eval_throughput)
echo "$EVAL_OUT"
# The acceptance floor is >= 165 trials/s on the 4-trial series, i.e. a
# series mean <= 24.2 ms. The gate reads the *min* sample: a throughput
# floor asserts what the machine can do, and the min is immune to the
# transient scheduler interference that inflates individual samples on a
# loaded machine. The floor was measured on a 1-core machine (typical min
# there: ~20-21 ms = ~190 trials/s); a 2-CPU VM with slower cores has read
# 26-38 ms, so a red here can be the machine rather than the code.
check_floor() {
  local name="$1" budget_ms="$2" line ms
  line=$(echo "$EVAL_OUT" | grep -F "$name: mean") || {
    echo "perf-smoke FAIL: bench '$name' not found in output"
    exit 1
  }
  ms=$(echo "$line" | sed -nE 's/.*\(min ([0-9.]+) (ns|µs|ms|s),.*/\1 \2/p' |
    awk '{v=$1; if ($2=="ns") v/=1e6; else if ($2=="µs") v/=1e3; else if ($2=="s") v*=1e3; print v}')
  if [ -z "$ms" ]; then
    echo "perf-smoke FAIL: cannot parse min timing from '$line'"
    exit 1
  fi
  awk -v v="$ms" -v b="$budget_ms" -v n="$name" 'BEGIN {
    if (v > b) { printf "perf-smoke FAIL: %s min %.3f ms > floor budget %s ms\n", n, v, b; exit 1 }
    printf "perf-smoke ok: %s min %.3f ms (floor budget %s ms, >= %.0f trials/s)\n", n, v, b, 4000.0 / v
  }'
}
check_floor "trials_per_second" 24.2

echo "==> ocean simulator: oracle equivalence + parallel determinism suites"
# The PR 6 contracts, run in release where the proptest case count is
# cheap: the event-driven core (which also runs netsim::simulate) must be
# bit-identical to the slot-stepped reference loop that
# ocean_equivalence.rs includes from tests/support/ on random <=6-node topologies, and bit-identical
# across 1/2/4-worker pools on real deployments. (Debug `cargo test -q`
# above runs them too; this names them so a red shows up next to the
# contract it broke.)
cargo test -q -p aqua-mac --release --test ocean_equivalence --test ocean_determinism
cargo test -q -p aqua-eval --release --test per_calibration

echo "==> bulk transfer: RS codec proptests + parser fuzz + end-to-end suite"
# PR 7 contracts, run in release where the proptest case counts and the
# 2 KB lake transfer are cheap: the RS(n, k) codec must survive random
# erasure/error patterns up to the design distance, the packet/fragment
# parsers must reject every corrupted bitstream, and a multi-kilobyte
# payload must cross the lossy lake link bit-exact with forced packet
# erasures (where the ARQ-only baseline provably cannot).
cargo test -q -p aqua-coding --release --test rs_proptests
cargo test -q -p aqua-proto --release --test packet_fuzz
cargo test -q -p aquapp --release --test bulk_transfer

echo "==> fault injection: determinism + block-ACK fuzz + blackout acceptance"
# PR 8 contracts, run in release where the fault-schedule proptests and
# the 2 KB storm transfers are cheap: the same seed must reproduce the
# same bursts/fades/blackouts sample-exact and an empty schedule must be
# bit-identical to no schedule; corrupted/truncated block-ACK tone
# streams must never parse (and never as a `done` ACK); and the adaptive
# engine must carry a 2 KB payload bit-exact through a mid-transfer 30 s
# blackout by suspend/probe/resume where the static engine's round
# budget provably dies.
cargo test -q -p aqua-channel --release --test fault_determinism
cargo test -q -p aquapp --release --test ack_fuzz --test bulk_faults

echo "==> DTN relay: frame fuzz + custody props + determinism + acceptance"
# PR 9 contracts, run in release where the fuzz case counts and the
# multi-hour simulated acceptance runs are cheap: the bundle/beacon/
# custody-ACK parsers must reject every corrupted bitstream, custody
# must never double-accept or double-deliver and the spray arithmetic
# must conserve the copy budget; relay-enabled churned runs must be
# bit-identical across 1/2/4-worker pools; hooks-disabled ocean runs
# must still reproduce the pre-relay pinned baselines float-for-float
# (covered by ocean_determinism above); a 2 KB payload must cross a
# 3-hop chain bit-exact while the middle relay churns mid-custody; and
# a partitioned swarm must deliver through a surfacing gateway where
# direct transmission provably cannot.
cargo test -q -p aqua-net --release \
  --test frame_fuzz --test custody_props \
  --test relay_determinism --test relay_acceptance

echo "==> crash recovery: chaos sweep + journal fuzz + recovery props"
# PR 10 contracts, run in release where the 32-schedule chaos sweep and
# the proptest case counts are cheap: every seeded crash schedule must
# satisfy custody conservation, at-most-once delivery and
# journal-bounded loss; arbitrary byte soup must never parse as journal
# records and truncation at every offset must recover a clean prefix;
# random custody op sequences must crash/recover to exactly the durable
# state, deterministically and idempotently; Sleep-only churn must stay
# bit-identical with the journal on; and the 3-hop mid-custody
# power-cycle must deliver durable and provably lose volatile.
cargo test -q -p aqua-net --release \
  --test chaos --test journal_fuzz --test recovery_props

echo "==> perf smoke: transfer_goodput (PR 7 bulk pipeline)"
# One 480 B selective-repeat transfer (24 packet exchanges + block ACKs)
# is ~142 ms on this container; the RS striping of 2 KB is ~0.25 ms.
# Gate both at ~2-4x slack.
BENCH_OUT=$(cargo bench -p aqua-bench --bench transfer_goodput)
echo "$BENCH_OUT"
check_budget "bulk_transfer_480b" 400
check_budget "rs_stripe_2kb" 1

echo "==> perf smoke: ocean_events_per_second (PR 6 event-driven core)"
# One quick-size 150-node, 30-simulated-minute grid run per iteration:
# ~76 ms mean on this container (~40 k events/s single-worker floor at
# quick size; the 10 000-node full deployment sustains ~870 k events/s
# as per-event costs amortize). Gate at ~4x slack: a regression to
# per-slot scanning would cost >100x, not 4x.
BENCH_OUT=$(cargo bench -p aqua-bench --bench ocean_events)
echo "$BENCH_OUT"
check_budget "ocean_events_per_second" 300

echo "==> perf smoke: journal_replay (PR 10 reboot recovery hot path)"
# Parse + replay a ~1k-record custody journal: ~0.14 ms on this
# container. Reboot storms replay thousands of logs per chaos run, so
# gate the single replay at ~35x slack (5 ms) — a regression to
# quadratic record handling would blow through it instantly.
BENCH_OUT=$(cargo bench -p aqua-bench --bench journal_replay)
echo "$BENCH_OUT"
check_budget "journal_replay_1k_records" 5

echo "==> throughput smoke: repro <exp> quick end-to-end under 60 s each"
# Typical quick-size times: transfer ~2 s (480 B x 4 ranges x 2 FEC
# modes), faults ~3 s (480 B x 4 levels x 2 engines; the storm row
# suspends and probes through a 30 s blackout), ocean ~0.3 s (grid/swarm/
# fleet at 150 nodes, 30 simulated minutes), relay ~1 s (60-node 3 h
# churn sweep), recovery ~1 s (36-node 3 h crash sweep), fig9 ~8 s, fig19
# under 1 s (the MAC collision table on the event core). The 60 s budget
# is slack for slow machines.
repro_smoke() {
  local exp="$1" start elapsed
  start=$(date +%s)
  cargo run -q -p aqua-eval --release --bin repro -- "$exp" quick >/dev/null
  elapsed=$(($(date +%s) - start))
  if [ "$elapsed" -gt 60 ]; then
    echo "throughput-smoke FAIL: repro $exp quick took ${elapsed}s (> 60 s)"
    exit 1
  fi
  echo "throughput-smoke ok: repro $exp quick in ${elapsed}s (budget 60 s)"
}
for exp in transfer faults ocean relay recovery fig9 fig19; do
  repro_smoke "$exp"
done

echo "==> parallel never loses to serial: repro relay standard, 1 vs 2 workers"
# Relay runs flush receptions before every transmission decision, so a
# per-flush pool fan-out once made 2 workers 4-5x slower than 1 (29-40 s
# vs 7.3-8.1 s on a 2-vCPU VM). Only cold probe renders fan out now, and
# the two worker counts run in about the same time (6.8-7.6 s vs 7.4-8.6 s,
# EXPERIMENTS.md "Parallel vs serial wall time"). The standard size
# keeps the wall time far above timer and start-up noise (quick runs
# take well under a second); each count keeps its best of two runs,
# alternated, so one steal-time spike on a shared VM cannot fail the gate.
relay_wall_ms() {
  local start end
  start=$(date +%s%N)
  AQUA_PAR_THREADS="$1" cargo run -q -p aqua-eval --release --bin repro -- relay standard >/dev/null
  end=$(date +%s%N)
  echo $(((end - start) / 1000000))
}
best1="" best2=""
for _ in 1 2; do
  t1=$(relay_wall_ms 1)
  t2=$(relay_wall_ms 2)
  if [ -z "$best1" ] || [ "$t1" -lt "$best1" ]; then best1=$t1; fi
  if [ -z "$best2" ] || [ "$t2" -lt "$best2" ]; then best2=$t2; fi
done
awk -v a="$best1" -v b="$best2" 'BEGIN {
  if (b > 1.25 * a) { printf "parallel FAIL: relay standard %.1f s on 2 workers > 1.25x %.1f s on 1\n", b / 1000, a / 1000; exit 1 }
  printf "parallel ok: relay standard %.1f s on 2 workers vs %.1f s on 1 (bound 1.25x)\n", b / 1000, a / 1000
}'

echo "CI green."
