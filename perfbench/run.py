"""The torbun benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; torbun is imported from its `src/`
directory, never from an installed copy.  Workloads (see BENCHMARK.json and
each module's docstring): cli-fixtures, rank-ladder, shared-fans.

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end ones: setup_s, latency_p50_ms, latency_p90_ms, ops_per_s and
peak_rss_mb.  The failure count of the sixth, error_rate, is the object's
`failed` out of `attempted`.  With --trace 1 the metrics are the per-layer
ones, measured on operations run in this process with timing wrappers
installed; every fourth operation also runs untraced, and the difference
of the two medians over these twins is trace.overhead_pct.  A human-readable
summary goes to stderr.  The exit code is 0 when the run completed, even if
checks failed (that is reported as "correct": false), and 2 when it could
not run at all.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import pkgutil
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("cli-fixtures", "rank-ladder", "shared-fans")
CLI_START_SAMPLES = 3


@dataclass
class Context:
    root: Path
    env: dict  # environment for child processes
    golden: dict
    traced: bool = False
    state: object = None  # what the workload's in-process set-up built


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("TORBUN_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def time_child(ctx: Context, code: str) -> float:
    """Wall seconds of one `python -c code` process, start-up included."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ctx.root,
        env=ctx.env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=170,
    )
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.decode(errors='replace')[-2000:]}")
    return dt


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _betacf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _betacf(b, a, 1.0 - x) / b


def quantile(samples, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  The operations of a workload fall into groups of
    unlike cost, and a plain sample quantile jumps between two groups when
    it sits at their edge; this estimate moves smoothly."""
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def import_torbun():
    """Import torbun and all its modules from SRC.  Every module must be
    loaded before a tracer is made, or one first imported during a traced
    operation would keep references to the timing wrappers."""
    sys.path.insert(0, str(SRC))
    import torbun

    if Path(torbun.__file__).resolve().parent != SRC / "torbun":
        raise ImportError(f"torbun was imported from {torbun.__file__}, not from {SRC}")
    for module in pkgutil.iter_modules(torbun.__path__):
        importlib.import_module(f"torbun.{module.name}")
    return torbun


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "torbun" / "__init__.py").is_file():
        return fail(f"no torbun sources under {SRC}")
    try:
        golden = json.loads((BENCH / "golden.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read golden.json: {exc}")
    os.environ.pop("TORBUN_SEED", None)
    ctx = Context(ROOT, child_env(), golden, traced=bool(args.trace))
    try:
        import_torbun()
        import harness
        import tracing

        workload = __import__(args.workload.replace("-", "_"))
        setup_samples = [
            time_child(ctx, workload.SETUP_CODE.format(seed=args.seed))
            for _ in range(workload.SETUP_SAMPLES)
        ]
    except (RuntimeError, ImportError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    setup_trace = None
    tracer = tracing.Tracer() if args.trace else None
    if args.workload == "shared-fans":
        if tracer is None:
            ctx.state = workload.setup()
        else:
            ctx.state, setup_trace = tracer.run(workload.setup)
    # a cold workload starts every execution, traced or not, with empty memos
    prepare = tracing.clear_memos if workload.COLD else None

    wall0 = time.perf_counter()
    out = harness.measure(workload.ops(ctx, args.seed), args.seconds, tracer, prepare)
    wall = time.perf_counter() - wall0

    # a run cut inside a batch measured a seed-dependent part of it
    correct = out.failed == 0 and not out.truncated
    if not out.latencies:
        print("no operation completed", file=sys.stderr)
        correct = False
    completed = out.attempted - out.failed
    timed = sum(out.latencies) + sum(out.traced_latencies)

    if tracer is None:
        if args.workload == "cli-fixtures":
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        lat = out.latencies or [0.0]
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "latency_p50_ms": (1000.0 * quantile(lat, 0.5), "ms"),
            "latency_p90_ms": (1000.0 * quantile(lat, 0.9), "ms"),
            "ops_per_s": (completed / timed if timed else 0.0, "1/s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        shown = dict(metrics, error_rate=(out.failed / out.attempted if out.attempted else 1.0, "1"))
        print(
            f"{args.workload} seed {args.seed}: {out.attempted} ops attempted, {out.failed} failed, "
            f"{len(out.latencies)} latency samples, {len(setup_samples)} set-up samples, "
            f"{timed:.2f} s in operations, {wall:.2f} s with checks",
            file=sys.stderr,
        )
        for kind, samples in sorted(out.by_kind.items()):
            print(f"  {kind}: {len(samples)} ops, median {1000 * statistics.median(samples):.1f} ms", file=sys.stderr)
    else:
        metrics, absent = tracing.layer_metrics(tracer, out.traces)
        for name in absent:
            print(f"absent: {name} (what it reads is not in this version of torbun)", file=sys.stderr)
            metrics[name] = (0.0, tracing.LAYER_METRICS[name][0])
        setup_build = tracing.layer_metrics(tracer, [setup_trace])[0].get("fans.build_ms", (0.0,))[0] if setup_trace else 0.0
        metrics["fans.setup_build_ms"] = (setup_build, "ms")
        starts = [time_child(ctx, "import torbun.cli") for _ in range(CLI_START_SAMPLES)]
        metrics["cli.start_ms"] = (1000.0 * statistics.median(starts), "ms")
        if out.pairs:
            plain = quantile([u for u, _t in out.pairs], 0.5)
            overhead = 100.0 * (quantile([t for _u, t in out.pairs], 0.5) - plain) / plain
        else:
            overhead = 0.0
        metrics["trace.overhead_pct"] = (overhead, "%")
        shown = metrics
        print(
            f"{args.workload} seed {args.seed} traced: {len(out.traced_latencies)} traced ops, "
            f"{len(out.pairs)} of them with an untraced twin, {out.failed} failed, {wall:.2f} s with checks",
            file=sys.stderr,
        )
        for name, (calls, incl, own) in sorted(tracing.span_summary(out.traces).items()):
            print(f"  span {name}: {calls} calls, {1000 * incl:.1f} ms, self {1000 * own:.1f} ms", file=sys.stderr)
    for name, (value, unit) in shown.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
