"""Per-layer probes: direct calls into each module's public functions, each
loop of calls inside one span, reduced to the per-layer metrics.

Every metric is the median over REPEATS spans.  The probes are the same on
every workload, so a per-layer figure can be compared across workloads and
commits.  Names are <module>.<function>_<unit>.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
from pathlib import Path

from bellodds import cli
from bellodds.adversary import minimax_lr_chained, minimax_lr_ghz, minimax_lr_hardy
from bellodds.bayes import TrialTally, kl_per_trial, log_bayes_factor
from bellodds.scenarios import hardy_optimize_r, scenario_pair
from bellodds.simulate import replication_summaries, run_trajectory, summarize, trial_stream

from tracing import Tracer
from workloads import (
    CLI_SIM_REPS,
    LR_LONG_LABELS,
    LR_LONG_UPPER,
    PROTOCOL_LABELS,
    Simulation,
    spec_for,
)

REPEATS = 5
# Grid points of the default searches: (200+1)^3 for GHZ (the fourth average
# is solved), (100+1)^4 for chained k=2, and 1000+1 per Hardy mode.
GRID_POINTS = {"ghz": 201**3, "chained": 101**4, "hardy": 2 * 1001}


def _median_span(tracer: Tracer, name: str, calls: int, body) -> float:
    """Median over REPEATS of the per-call time of body(), in ns."""
    per_call = []
    for _ in range(REPEATS):
        with tracer.span(name, calls=calls) as span:
            body()
        per_call.append(span.duration_ns / calls)
    return statistics.median(per_call)


def probe(tracer: Tracer, root: Path) -> dict[str, tuple[float, str]]:
    """Run every probe with tracer enabled; return {metric: (value, unit)}."""
    m: dict[str, tuple[float, str]] = {}
    specs = [spec_for(label) for label in PROTOCOL_LABELS]
    pairs = [scenario_pair(s).pair for s in specs[:4]]

    def kl_loop():
        for _ in range(500):
            for pair in pairs:
                kl_per_trial(pair)

    m["bayes.kl_per_trial_ns"] = (_median_span(tracer, "bayes.kl_per_trial", 2000, kl_loop), "ns")
    tallies = (TrialTally(1, 1), TrialTally(1, 0))

    def lbf_loop():
        for _ in range(1000):
            for tally in tallies:
                log_bayes_factor(pairs[1], tally)

    m["bayes.log_bayes_factor_ns"] = (_median_span(tracer, "bayes.log_bayes_factor", 2000, lbf_loop), "ns")

    def cold_loop():
        for spec in specs:
            scenario_pair.cache_clear()
            scenario_pair(spec)

    m["scenarios.scenario_pair_cold_us"] = (_median_span(tracer, "scenarios.scenario_pair", len(specs), cold_loop) / 1e3, "us")

    def hit_loop():
        for _ in range(400):
            for spec in specs:
                scenario_pair(spec)

    m["scenarios.scenario_pair_hit_ns"] = (_median_span(tracer, "scenarios.scenario_pair", 2000, hit_loop), "ns")

    def hardy_loop():
        for _ in range(20):
            hardy_optimize_r("paper")
            hardy_optimize_r("literal")

    m["scenarios.hardy_optimize_r_us"] = (_median_span(tracer, "scenarios.hardy_optimize_r", 40, hardy_loop) / 1e3, "us")

    ghz_ns = _median_span(tracer, "adversary.minimax_lr_ghz", 1, minimax_lr_ghz)
    chained_ns = _median_span(tracer, "adversary.minimax_lr_chained", 1, minimax_lr_chained)
    hardy_ns = _median_span(tracer, "adversary.minimax_lr_hardy", 2, lambda: [minimax_lr_hardy(mode=x) for x in ("paper", "literal")])
    m["adversary.minimax_lr_ghz_ms"] = (ghz_ns / 1e6, "ms")
    m["adversary.minimax_lr_chained_ms"] = (chained_ns / 1e6, "ms")
    m["adversary.minimax_lr_hardy_ms"] = (hardy_ns / 1e6, "ms")
    m["adversary.grid_points_per_s"] = (sum(GRID_POINTS.values()) / ((ghz_ns + chained_ns + 2 * hardy_ns) / 1e9), "1/s")

    stream_ns = _median_span(tracer, "simulate.trial_stream", 500, lambda: [trial_stream(7, i) for i in range(500)])
    m["simulate.trial_stream_us"] = (stream_ns / 1e3, "us")

    walk_ns, walk_trials = 0.0, 0
    for truth, labels, upper, reps in (("qm", PROTOCOL_LABELS, 1e6, 200), ("lr", LR_LONG_LABELS, LR_LONG_UPPER, 20)):
        sim = Simulation(7, root, truth, upper, labels, reps)
        sim.setup()
        for label in labels:
            config = sim.config(label, 7)
            stops = [run_trajectory(config, i).stop_trial for i in range(reps)]
            per_rep = _median_span(tracer, "simulate.run_trajectory", reps, lambda: [run_trajectory(config, i) for i in range(reps)])
            m[f"simulate.run_trajectory_us.{truth}.{label}"] = (per_rep / 1e3, "us")
            if truth == "lr":
                walk_ns += (per_rep - stream_ns) * reps
                walk_trials += sum(stops)
    m["simulate.walk_ns_per_trial"] = (walk_ns / walk_trials, "ns")

    summaries = replication_summaries(_k2_config(root))
    m["simulate.summarize_us"] = (_median_span(tracer, "simulate.summarize", 1, lambda: summarize(summaries)) / 1e3, "us")

    m.update(_probe_startup(tracer, root))
    m.update(_probe_cli_main(tracer))
    return m


def _k2_config(root: Path):
    sim = Simulation(7, root, "qm", 1e6, ("chained-k2",), 1000)
    sim.setup()
    return sim.config("chained-k2", 7)


_STARTUP = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import bellodds; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)


def _probe_startup(tracer: Tracer, root: Path) -> dict[str, tuple[float, str]]:
    """Fresh interpreters: a bare one, then the numpy and bellodds imports
    timed inside a child."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    bare, numpy_s, bellodds_s = [], [], []
    for _ in range(REPEATS):
        with tracer.span("cli.interpreter") as span:
            subprocess.run([sys.executable, "-c", "pass"], check=True, env=env)
        bare.append(span.duration_ns / 1e6)
        with tracer.span("cli.imports"):
            out = subprocess.run([sys.executable, "-c", _STARTUP], check=True, env=env, capture_output=True, text=True)
        a, b = (float(x) for x in out.stdout.split())
        numpy_s.append(a * 1e3)
        bellodds_s.append(b * 1e3)
    return {
        "cli.interpreter_ms": (statistics.median(bare), "ms"),
        "cli.import_numpy_ms": (statistics.median(numpy_s), "ms"),
        "cli.import_bellodds_ms": (statistics.median(bellodds_s), "ms"),
    }


CLI_MAIN_ARGS = {
    "analyze": [["analyze", "--scenario", s] for s in ("ghz", "hardy", "hardy-naive")]
    + [["analyze", "--scenario", "chained", "--k", k] for k in ("2", "4")],
    "compare": [["compare"], ["compare", "--format", "csv"]],
    "sweep": [["sweep", "--scenario", "chained", "--k-min", "2", "--k-max", "12"]],
    "simulate": [
        ["simulate", "--scenario", "chained", "--k", "2", "--reps", str(CLI_SIM_REPS)],
        ["simulate", "--scenario", "ghz", "--reps", str(CLI_SIM_REPS)],
    ],
}


def _probe_cli_main(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """cli.main in-process with stdout captured, per call."""
    m = {}
    for command, argvs in CLI_MAIN_ARGS.items():
        def body():
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(argv) != 0:
                        raise RuntimeError(f"cli.main({argv}) failed")

        m[f"cli.main_{command}_ms"] = (_median_span(tracer, "cli.main", len(argvs), body) / 1e6, "ms")
    return m
