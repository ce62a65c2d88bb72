"""The closed-loop measuring loop shared by the workloads.

One client in this process runs one operation at a time and starts the next
only when the previous one has finished.  An operation's latency is the wall
time of its `execute` call; its `check` runs afterwards, outside the timing.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Op:
    kind: str
    execute: Callable[[], Any]
    check: Callable[[Any], bool]
    # a run ends only where a batch ends (a whole ladder, for rank-ladder)
    batch_end: bool = True


@dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)  # seconds, untraced ops that passed
    traced_latencies: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    by_kind: dict = field(default_factory=dict)  # kind -> list of seconds
    pairs: list = field(default_factory=list)  # (untraced, traced) seconds of twin executions
    truncated: bool = False  # the hard stop ended the run inside a batch


def run_op(op: Op, out: Measurement, tracer, prepare) -> float:
    """Execute and check one operation; return the seconds it took."""
    out.attempted += 1
    if prepare is not None:
        prepare()
    trace = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.execute()
        else:
            result, trace = tracer.run(op.execute)
        dt = time.perf_counter() - t0
        ok = op.check(result)
    except Exception:  # one failing operation must not end the run
        dt = time.perf_counter() - t0
        print(f"operation {op.kind} raised:\n{traceback.format_exc(limit=4)}", file=sys.stderr)
        ok = False
    if not ok:
        out.failed += 1
        print(f"operation {op.kind} failed its check", file=sys.stderr)
    elif trace is None:
        out.latencies.append(dt)
        out.by_kind.setdefault(op.kind, []).append(dt)
    else:
        out.traced_latencies.append(dt)
        out.traces.append(trace)
    return dt


# wall seconds after which no further operation starts, whatever the batch,
# so that a run on a slow machine still ends within its time limit
HARD_STOP_S = 120.0


def measure(ops, seconds: float, tracer=None, prepare=None) -> Measurement:
    """Run operations from `ops` until `seconds` of operation time are spent.

    A run stops at the end of a batch, before a batch that would not fit in
    the time left, judged by the length of the batch just finished; the
    first batch always runs.  With a tracer, every operation runs traced,
    and every fourth one also untraced, alternating which of the two goes
    first; these twins give the tracing overhead.  (Four is prime to the
    three fans shared-fans takes in turn, so its twins cover all three.)
    `prepare` runs, untimed, before every execution.
    """
    out = Measurement()
    spent = 0.0  # operation time, checks excluded
    batch_start = 0.0
    hard_stop = time.perf_counter() + HARD_STOP_S
    for index, op in enumerate(ops):
        if time.perf_counter() > hard_stop:
            print(f"stopped after {HARD_STOP_S:.0f} s, inside a batch", file=sys.stderr)
            out.truncated = True
            break
        if tracer is None:
            spent += run_op(op, out, None, prepare)
        elif index % 4:
            spent += run_op(op, out, tracer, prepare)
        else:
            failed = out.failed
            order = (None, tracer) if index % 8 == 0 else (tracer, None)
            times = {t: run_op(op, out, t, prepare) for t in order}
            spent += sum(times.values())
            if out.failed == failed:
                out.pairs.append((times[None], times[tracer]))
        if op.batch_end:
            batch = spent - batch_start
            batch_start = spent
            if spent + batch > seconds:
                break
    return out
