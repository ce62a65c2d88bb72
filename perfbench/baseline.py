"""Run the benchmark over several seeds and write the results as a baseline.

    python3 perfbench/baseline.py --label NAME

From the root of a checkout: runs every workload of BENCHMARK.json once per
seed 1 to 10 with tracing off, then once traced, and writes to
perfbench/baseline.json, for every metric, its values, median, quartiles
and spread (the distance between the quartiles as a share of the median,
from statistics.quantiles(values, n=4)).  The
machine facts written alongside are what the numbers depend on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run

SEEDS = list(range(1, 11))


def one_run(spec, workload, seed, trace):
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: {wall:.1f} s, correct {result['correct']}", file=sys.stderr)
    return result, wall


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit id")
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    doc = {
        "label": args.label,
        "machine": {
            "cpus": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "system": platform.platform(),
            "note": "shared machine; no CPU pinning, frequency or cache control",
        },
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [one_run(spec, workload, seed, 0) for seed in SEEDS]
        metrics = {m["name"]: [r["metrics"][m["name"]]["value"] for r, _ in runs] for m in spec["end_to_end"]}
        traced, traced_wall = one_run(spec, workload, SEEDS[0], 1)
        doc["workloads"][workload] = {
            "correct": all(r["correct"] for r, _ in runs) and traced["correct"],
            "attempted": [r["attempted"] for r, _ in runs],
            "failed": [r["failed"] for r, _ in runs],
            "run_wall_s": [round(w, 1) for _, w in runs],
            "end_to_end": {name: summary(values) for name, values in metrics.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "traced_run_wall_s": round(traced_wall, 1),
        }
        for name, s in doc["workloads"][workload]["end_to_end"].items():
            print(f"  {workload} {name}: median {s['median']:.6g} spread {s['spread']:.3f}", file=sys.stderr)
    (run.BENCH / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
