#!/usr/bin/env python3
"""Benchmark of bellodds: four workloads, timed end to end, outputs checked
against exact references.

    python3 bench/run.py --workload protocol --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from the src/ directory next to
bench/.  With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics (setup_s, ops_per_s, op_p50_ms, peak_rss_mb); with
--trace 1 it carries the per-layer metrics and the tracing overhead, and the
spans are written to .bench_out/.  --workload all runs the four workloads in
turn, each in its own process, and prints one such line for each.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 7
# Enough rounds for both traced and untraced ones in a traced run.
MIN_ROUNDS = 4
WORKLOAD_NAMES = ("protocol", "lr-long", "analysis", "cli")


def load_program() -> None:
    """Put the checkout's src/ first on sys.path and import bellodds from
    it, or exit with an error."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import bellodds
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import bellodds from {src}: {exc}")
    if Path(bellodds.__file__).resolve().parent.parent != src:
        raise SystemExit(f"bench: bellodds was imported from {bellodds.__file__}, not from {src}")


def measure_setup(name: str, seed: int) -> float:
    """Median wall time of fresh processes that import bellodds, build the
    workload's inputs and warm the caches, then exit."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_rounds(wl, seconds: float, tracer, tracing: bool) -> dict:
    """Run whole rounds, an even number and at least MIN_ROUNDS, until
    `seconds` have passed.  After each round the workload's calibration
    kernel runs, and the round's times are normalized to the reference host
    speed (calibrate.py).  When tracing, odd rounds record spans and even
    rounds do not, so their difference is the tracing overhead."""
    kernel, reference_ns = calibrate.KERNELS[wl.kernel]
    attempted = failed = 0
    problems: list[str] = []
    op_ns, raw_op_ns, raw_round_ns, kernel_ns = array("d"), array("d"), array("d"), array("d")
    round_ns: dict[bool, array] = {False: array("d"), True: array("d")}
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        ops = wl.round(index)
        traced = tracing and index % 2 == 1
        tracer.enabled = traced
        times = []
        for op in ops:
            t0 = time.perf_counter_ns()
            try:
                with tracer.span(f"op.{op.name}"):
                    out = op.call(tracer)
            except Exception:
                failed += 1
                out = None
                print(f"bench: {wl.name}/{op.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            times.append(time.perf_counter_ns() - t0)
            attempted += 1
            if out is not None:
                problems += wl.check(op, out, index)
        tracer.enabled = False
        k = kernel()
        scale = reference_ns / k
        round_ns[traced].append(sum(times) * scale)
        if not traced:
            op_ns.extend(t * scale for t in times)
            raw_op_ns.extend(times)
            raw_round_ns.append(sum(times))
            kernel_ns.append(k)
        index += 1
        if time.perf_counter() >= deadline and index >= MIN_ROUNDS and index % 2 == 0:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "op_ns": op_ns,
        "raw_op_ns": raw_op_ns,
        "round_ns": round_ns,
        "raw_round_ns": raw_round_ns,
        "host_slowdown": statistics.median(kernel_ns) / reference_ns,
        "ops_per_round": len(ops),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[name](seed, ROOT)
    setup_s = None if trace else measure_setup(name, seed)
    wl.setup()
    tracer = Tracer()
    stats = run_rounds(wl, seconds, tracer, trace)
    peak_rss_mb = wl.peak_rss_mb()
    t0 = time.perf_counter()
    wl.reference()
    problems = stats["problems"] + wl.finish() + wl.replay()
    print(f"bench: {name}: references and checks took {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    for p in problems:
        print(f"bench: CHECK FAILED {name}: {p}", file=sys.stderr)

    round_s = statistics.median(stats["round_ns"][False]) / 1e9
    if trace:
        report_self_times(name, tracer)
        import layers

        tracer.enabled = True
        metrics = layers.probe(tracer, ROOT)
        overhead = statistics.median(stats["round_ns"][True]) / 1e9 / round_s - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        tracer.write(ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl")
    else:
        ops_per_s = stats["ops_per_round"] / round_s
        op_ns = stats["op_ns"]
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_p50_ms": (statistics.median(op_ns) / 1e6, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        info = {f"{key}_per_s": ops_per_s * total / len(op_ns) for key, total in wl.info().items()}
        if len(op_ns) >= 100:
            info["op_p90_ms"] = statistics.quantiles(op_ns, n=10)[-1] / 1e6
        info["raw_ops_per_s"] = stats["ops_per_round"] / (statistics.median(stats["raw_round_ns"]) / 1e9)
        info["raw_op_p50_ms"] = statistics.median(stats["raw_op_ns"]) / 1e6
        info["host_slowdown"] = stats["host_slowdown"]
        for key, value in info.items():
            print(f"{name}: {key} = {value:.6g} (informational, {len(op_ns)} operations)")
    return {
        "correct": not problems,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def report_self_times(name: str, tracer) -> None:
    """Self time of each span name over the traced rounds, to stderr."""
    table = tracer.self_times()
    total = sum(row["self_ms"] for row in table.values())
    print(f"bench: {name}: self time by layer over the traced rounds", file=sys.stderr)
    for span, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(
            f"  {span:34s} spans {row['spans']:7d}  calls {row['calls']:8d}  total {row['total_ms']:10.1f} ms"
            f"  self {row['self_ms']:10.1f} ms  {100.0 * row['self_ms'] / total:5.1f}%",
            file=sys.stderr,
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so no workload sees another's caches or
        # resident memory
        for name in WORKLOAD_NAMES:
            print(f"== {name}", flush=True)
            argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv], check=True)
        return 0
    load_program()
    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload](args.seed, ROOT).setup()
        return 0
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
