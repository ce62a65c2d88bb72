"""Workload cli-fixtures: the README example commands over the shipped
fixtures, plus check-fan on the singular, cone-over-square and point fans,
each run as its own `python -m torbun.cli` process, repeated in passes whose
order the seed shuffles.  A run holds whole passes only, so every command
has the same share of the latency samples in every run.

This is what a command-line user pays on every call: interpreter start-up,
import, problem parsing with rank-2 fan validation, then the command.  It is
the only workload where the `cli` and `problem` layers and start-up time
dominate.  Every command's exit code and the sha256 of its stdout must match
the values recorded in golden.json (the CLI promises byte-identical output).

The traced run executes the same commands in this process through
`torbun.cli.main(argv)`, emptying the program's memos before each one, as a
fresh process would have them (the untraced run empties them too, which
costs nothing there).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import subprocess
import sys

import torbun.cli
from harness import Op

COMMANDS = (
    ("check-fan", "fixtures/f1_bundle.json"),
    ("presentation", "fixtures/f1_bundle.json", "--equivariant"),
    ("mw-product", "fixtures/f1_weights.json", "--cross-check", "--oracle"),
    ("pp-to-mw", "fixtures/f1_piecewise.json"),
    ("equiv-mult", "fixtures/f1_piecewise.json", "--sigma", "[0,1]", "--tau", "[]"),
    ("residue", "fixtures/f1_piecewise.json", "--tau", "[1]"),
    ("subbundle", "fixtures/p1p1_skew.json"),
    ("check-fan", "fixtures/singular_fan.json"),
    ("check-fan", "fixtures/cone_over_square.json"),
    ("check-fan", "fixtures/point_fan.json"),
)

SETUP_SAMPLES = 9
SETUP_CODE = "import torbun"
COLD = True  # the in-process traced run empties the memos before each command


def command_key(argv) -> str:
    return " ".join(argv)


def run_subprocess(ctx, argv):
    """(exit code, sha256 of stdout) of one CLI process."""
    proc = subprocess.run(
        [sys.executable, "-m", "torbun.cli", *argv],
        cwd=ctx.root,
        env=ctx.env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        timeout=120,
    )
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def run_in_process(argv):
    """(exit code, sha256 of stdout) of torbun.cli.main(argv) in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = torbun.cli.main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def ops(ctx, seed: int):
    rng = random.Random(seed)
    golden = ctx.golden["cli-fixtures"]
    while True:
        order = list(COMMANDS)
        rng.shuffle(order)
        for position, argv in enumerate(order):
            want = golden[command_key(argv)]
            last = position == len(order) - 1

            def check(result, want=want):
                return list(result) == [want["exit"], want["sha256"]]

            if ctx.traced:
                yield Op(argv[0], lambda argv=argv: run_in_process(argv), check, batch_end=last)
            else:
                yield Op(argv[0], lambda argv=argv: run_subprocess(ctx, argv), check, batch_end=last)


def record(ctx) -> dict:
    """Exit code and stdout digest of every command, for golden.json."""
    out = {}
    for argv in COMMANDS:
        code, digest = run_subprocess(ctx, argv)
        out[command_key(argv)] = {"exit": code, "sha256": digest}
    return out
