"""Smoke test of the benchmark itself: one short run of every workload, plain
and traced, must pass its checks and report every metric BENCHMARK.json
names.  Run from the root of a checkout:

    python3 perfbench/smoke.py

Exits 0 when every run passed, 1 otherwise.  A short rank-ladder run still
solves one whole ladder (about a minute), traced a quarter more.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
            cmd[0] = sys.executable
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: {proc.stderr[-500:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"checks failed: {result['failed']} of {result['attempted']}")
                missing = [m for m in wanted[trace] if m not in result["metrics"]]
                extra = [m for m in result["metrics"] if m not in wanted[trace]]
                if missing or extra:
                    problems.append(f"missing metrics {missing}, unexpected {extra}")
            print(f"{workload} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
            ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
