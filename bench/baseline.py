"""Record a baseline with the benchmark's own procedure.

Run from the repository root:

  python3 bench/baseline.py [--out bench/baseline.json]

Two independent sets of untraced runs are made, each with SEEDS_PER_SET
seeds per workload (set A seeds 1..N, set B seeds N+1..2N), at the run
length in BENCHMARK.json, followed by one traced run per workload. For
every workload and end-to-end metric the output gives, per set, the median
and the spread (the distance between the first and third quartile of
`statistics.quantiles(values, n=4)`, as a share of the median), and the
ratio of the set B median to the set A median. Every run must pass its
correctness check, or the script stops.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS_PER_SET = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} reported incorrect output")
    return result


def summarize(runs) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "spread": (q3 - q1) / median,
            "values": values,
        }
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="bench/baseline.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = {}
    for label, first in (("A", 1), ("B", SEEDS_PER_SET + 1)):
        sets[label] = {}
        for workload in workloads:
            runs = []
            for seed in range(first, first + SEEDS_PER_SET):
                runs.append(run_once(workload, seed, seconds, 0))
                print(label, workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
            sets[label][workload] = summarize(runs)

    comparison = {}
    for workload in workloads:
        comparison[workload] = {}
        for name, bound in bounds.items():
            a = sets["A"][workload][name]
            b = sets["B"][workload][name]
            comparison[workload][name] = {
                "bound": bound,
                "spread_A": a["spread"],
                "spread_B": b["spread"],
                "median_ratio_B_over_A": b["median"] / a["median"],
            }

    traced = {}
    for workload in workloads:
        result = run_once(workload, 1, seconds, 1)
        traced[workload] = {k: v["value"] for k, v in result["metrics"].items()}
        print("traced", workload, flush=True)

    baseline = {
        "machine": {
            "cpu": cpu_model(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "seeds_per_set": SEEDS_PER_SET,
        "sets": sets,
        "comparison": comparison,
        "traced_seed1": traced,
    }
    (ROOT / args.out).write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    for workload, metrics in comparison.items():
        for name, c in metrics.items():
            print(f"{workload:14s} {name:18s} bound {c['bound']:.2f}  spread A "
                  f"{c['spread_A']:.4f}  B {c['spread_B']:.4f}  B/A {c['median_ratio_B_over_A']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
