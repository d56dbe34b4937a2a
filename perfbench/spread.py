#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workloads link_mix,rx_stream --seeds 1-10 \
        --seconds 20 [--bin .bench_build/release/perfbench]

Runs the built benchmark once per (workload, seed) from the repository
root and prints, per metric, the median of the runs and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of that median, next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--bin", default=".bench_build/release/perfbench")
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
    ok = True
    for w in a.workloads.split(","):
        runs = []
        for s in seeds(a.seeds):
            out = subprocess.run(
                [a.bin, "--workload", w, "--seed", str(s), "--seconds", a.seconds, "--trace", "0"],
                capture_output=True, text=True, check=True,
            ).stdout.strip().splitlines()[-1]
            res = json.loads(out)
            if not res["correct"] or res["failed"]:
                ok = False
                print(f"{w} seed {s}: correct={res['correct']} failed={res['failed']}")
            runs.append({k: v["value"] for k, v in res["metrics"].items()})
        for m in bounds:
            vals = [r[m] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
            flag = "" if m == "setup_s" or spread < bounds[m] / 3 else "  <-- above bound/3"
            print(f"{w:14} {m:12} median {med:12.5f} spread {spread:6.3f} bound {bounds[m]}{flag}")
            print(f"{'':14} {'':12} runs {' '.join(f'{v:.4g}' for v in vals)}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
