"""Write golden.json: the expected outputs the benchmark's checks compare
against.  Run it from the root of a checkout of the commit whose outputs
are the reference:

    python3 perfbench/record.py

It records the exit code and stdout sha256 of every cli-fixtures command,
and the product tables of every weight pair on the rank-ladder rungs
without a change of basis.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    run.import_torbun()
    import cli_fixtures
    import rank_ladder

    ctx = run.Context(run.ROOT, run.child_env(), {})
    os.environ.pop("TORBUN_SEED", None)
    golden = {"cli-fixtures": cli_fixtures.record(ctx), "rank-ladder": rank_ladder.record(ctx)}
    path = run.BENCH / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
