#!/usr/bin/env python3
"""Informational digest of the program's outputs, for diffing commits.

    python3 bench/digest.py > bench/DIGEST.jsonl

One JSON line for the `compare` table, then one per operation of each
workload's first round at seed 0: the simulate reports of protocol and
lr-long, the analysis pass, and the cli children's stdout.  Floats are
written with repr, so any change in any digit shows in the diff.  Nothing
checks the digest: the benchmark's gate is its reference and property
checks, so a deliberate correction of the method changes the digest and
still passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run

SEED = 0


def render(out):
    if dataclasses.is_dataclass(out):
        out = dataclasses.asdict(out)
        out.pop("maxrss_kb", None)
    return out


def main() -> int:
    run.load_program()
    import workloads
    from bellodds import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["compare", "--format", "csv"])
    print(json.dumps({"compare": buf.getvalue().splitlines()}))
    for name in run.WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name](SEED, run.ROOT)
        wl.setup()
        for op in wl.round(0):
            print(json.dumps({"workload": name, "op": op.name, "output": render(op.call(workloads.Tracer()))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
