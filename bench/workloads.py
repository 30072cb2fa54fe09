"""The benchmark's four workloads.

Each workload is a sequence of rounds, and each round is the same fixed list
of operations with inputs drawn from the run's seed.  The benchmark times
every operation and checks its output against the exact references of
reference.py, never against a stored copy of an earlier output.

- protocol: run_replications under the paper's protocol (prior 100:1, stop at
  0.01 or 1e6, QM true), one batch of PROTOCOL_REPS per scenario per round.
- lr-long: run_replications with LR true and the upper threshold at 1e100, so
  walks run 3.5k-9k trials, one batch of LR_LONG_REPS per scenario per round.
- analysis: one pass over the paper's table and the minimax searches.
- cli: one `python -m bellodds` child process per operation, run one at a
  time, over a fixed mix of subcommands.

This module imports bellodds, so the caller puts the checkout's src/ on
sys.path first (run.load_program).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

from bellodds.adversary import minimax_lr_chained, minimax_lr_ghz, minimax_lr_hardy
from bellodds.bayes import kl_per_trial, required_trials
from bellodds.scenarios import (
    ScenarioSpec,
    chained_pair,
    find_optimal_k,
    ghz_pair,
    hardy_naive_trials,
    hardy_optimize_r,
    hardy_q,
    scenario_pair,
)
from bellodds.simulate import SimulationConfig, run_replications

import checks
import reference as ref
from checks import close
from tracing import Tracer

PROTOCOL_LABELS = ("ghz", "chained-k2", "chained-k4", "hardy-paper", "hardy-naive")
LR_LONG_LABELS = ("chained-k2", "chained-k4", "hardy-paper")
PROTOCOL_REPS = 100
LR_LONG_REPS = 10
LR_LONG_UPPER = 1e100
CLI_SIM_REPS = 1000
SWEEP_KS = range(2, 13)
HARDY_MODES = ("paper", "literal")


def spec_for(label: str) -> ScenarioSpec:
    """The ScenarioSpec whose label() is label."""
    if label.startswith("chained-k"):
        return ScenarioSpec("chained", k=int(label[len("chained-k"):]))
    if label == "hardy-paper":
        return ScenarioSpec("hardy", hardy_mode="paper")
    return ScenarioSpec(label)


def op_seed(seed: int, round_index: int, op_index: int) -> int:
    """64-bit master seed of one operation, a pure function of its position."""
    digest = hashlib.blake2b(f"{seed}:{round_index}:{op_index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass
class Op:
    name: str
    call: Callable[[Tracer], Any]


class Workload:
    """A named workload: inputs from a seed, rounds of operations, checks."""

    name = ""
    #: calibrate.KERNELS entry that tracks this workload's speed on the host
    kernel = "walk"
    #: operations rerun after the timed phase to check the same seed gives
    #: the same output; None reruns the whole first round
    replayed: tuple[str, ...] | None = None

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.first: dict[str, Any] = {}

    def setup(self) -> None:
        """Build the inputs and warm the program's caches."""

    def reference(self) -> None:
        """Compute the exact references; not timed."""

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, out: Any, round_index: int) -> list[str]:
        if round_index == 0:
            self.first[op.name] = out
        return self.check_output(op.name, out)

    def check_output(self, name: str, out: Any) -> list[str]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks over the whole run."""
        return []

    def replay(self) -> list[str]:
        """Rerun round 0 and require identical outputs."""
        tracer = Tracer()
        problems = []
        for op in self.round(0):
            if self.replayed is None or op.name in self.replayed:
                if self.comparable(op.call(tracer)) != self.comparable(self.first[op.name]):
                    problems.append(f"{op.name}: the same seed gave a different output")
        return problems

    def comparable(self, out: Any) -> Any:
        return out

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def info(self) -> dict[str, float]:
        """Counts behind informational throughputs, such as replications."""
        return {}


class Simulation(Workload):
    """Batches of run_replications, one per scenario per round."""

    def __init__(self, seed: int, root: Path, truth: str, upper: float, labels: tuple[str, ...], reps: int) -> None:
        super().__init__(seed, root)
        self.truth, self.labels, self.reps = truth, labels, reps
        self.protocol = ref.Protocol(upper=upper)
        self.pools: dict[str, checks.Pool] = defaultdict(checks.Pool)

    def setup(self) -> None:
        self.specs = {label: spec_for(label) for label in self.labels}
        for spec in self.specs.values():
            scenario_pair(spec)

    def reference(self) -> None:
        self.laws = {label: ref.stopping_law(label, self.truth, self.protocol) for label in self.labels}

    def config(self, label: str, master_seed: int) -> SimulationConfig:
        p = self.protocol
        return SimulationConfig(
            scenario=self.specs[label],
            true_theory=self.truth,
            prior_odds=p.prior,
            lower_threshold=p.lower,
            upper_threshold=p.upper,
            max_trials=p.max_trials,
            master_seed=master_seed,
            replications=self.reps,
        )

    def round(self, index: int) -> list[Op]:
        return [
            Op(label, partial(_run_replications, self.config(label, op_seed(self.seed, index, j))))
            for j, label in enumerate(self.labels)
        ]

    def check_output(self, name: str, report) -> list[str]:
        rep = checks.report_dict(report)
        self.pools[name].add(rep, self.reps)
        return [f"{name}: {p}" for p in checks.check_properties(rep, self.reps, self.protocol)]

    def finish(self) -> list[str]:
        problems = []
        for label in self.labels:
            problems += [f"{label}: {p}" for p in checks.check_law(self.pools[label], self.laws[label], self.truth, self.protocol)]
        return problems

    def info(self) -> dict[str, float]:
        pools = self.pools.values()
        return {"reps": float(sum(p.reps for p in pools)), "trials": sum(p.trials for p in pools)}


def _run_replications(config: SimulationConfig, tracer: Tracer):
    with tracer.span("simulate.run_replications"):
        return run_replications(config)


class Protocol(Simulation):
    name = "protocol"

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root, "qm", 1e6, PROTOCOL_LABELS, PROTOCOL_REPS)


class LrLong(Simulation):
    name = "lr-long"

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root, "lr", LR_LONG_UPPER, LR_LONG_LABELS, LR_LONG_REPS)


def analysis_pass(tracer: Tracer) -> dict:
    """The paper's table and its strategy checks, through the public API."""
    out: dict[str, Any] = {"compare": {}, "sweep": [], "hardy": {}, "minimax_hardy": {}}
    with tracer.span("bayes.required_trials", calls=3):
        for label, pair in (("ghz", ghz_pair()), ("chained-k2", chained_pair(2)), ("chained-k4", chained_pair(4))):
            out["compare"][label] = (pair.q, pair.r, required_trials(pair, ref.TARGET_D))
    with tracer.span("scenarios.hardy_optimize_r"):
        sol = hardy_optimize_r("paper", ref.TARGET_D)
    out["compare"]["hardy-paper"] = (hardy_q(), sol.r_opt, sol.n_real)
    with tracer.span("scenarios.hardy_naive_trials"):
        out["naive"] = hardy_naive_trials(0.5)
    with tracer.span("bayes.kl_per_trial", calls=len(SWEEP_KS)):
        for k in SWEEP_KS:
            pair = chained_pair(k)
            kl = kl_per_trial(pair)
            out["sweep"].append((k, pair.q, pair.r, kl, math.log(ref.TARGET_D) / kl))
    with tracer.span("scenarios.find_optimal_k"):
        out["optimal_k"] = find_optimal_k(ref.TARGET_D, 2, 12)
    for mode in HARDY_MODES:
        with tracer.span("scenarios.hardy_optimize_r"):
            sol = hardy_optimize_r(mode, ref.TARGET_D)
        out["hardy"][mode] = (sol.r_opt, sol.n_real)
    with tracer.span("adversary.minimax_lr_ghz"):
        assignment, value = minimax_lr_ghz()
    out["minimax_ghz"] = (assignment.e, value)
    with tracer.span("adversary.minimax_lr_chained"):
        assignment, value = minimax_lr_chained()
    out["minimax_chained"] = (assignment.probs, value)
    for mode in HARDY_MODES:
        with tracer.span("adversary.minimax_lr_hardy"):
            assignment, n_real = minimax_lr_hardy(mode=mode)
        out["minimax_hardy"][mode] = (assignment.r, n_real)
    return out


# Default grids of the three searches: cells of 2/200, 1/100 and 1/1000.
GHZ_CELL, CHAINED_CELL, HARDY_CELL = 0.01, 0.01, 0.001


def hardy_grid_bound(mode: str) -> float:
    """An upper bound on the Hardy grid optimum: the best of the grid points
    r1 = 3j cells, next to the continuous optimum, with the CH-saturating
    equal split r1/3, which the grid search includes."""
    q, r1 = ref.hardy_q(), ref.hardy_r1(mode)
    share = ref.HARDY_SHARES[mode]
    j = math.floor(r1 / (3 * HARDY_CELL))
    values = []
    for i in (3 * j, 3 * j + 3):
        r = i * HARDY_CELL
        values.append(max(ref.kl(q, r), -math.log1p(-share * r)))
    return min(values)


def check_analysis(out: dict) -> list[str]:
    problems = []
    for label, (q, r, n) in out["compare"].items():
        rq, rr = ref.scenario_qr(label)
        if not (close(q, rq, 1e-12) and close(r, rr, 1e-12, 1e-10) and close(n, ref.trials_for_target(rq, rr))):
            problems.append(f"compare {label}: ({q}, {r}, {n}) vs reference ({rq}, {rr})")
    if out["naive"] != ref.naive_trials():
        problems.append(f"hardy-naive trials {out['naive']} != {ref.naive_trials()}")
    if [row[0] for row in out["sweep"]] != list(SWEEP_KS):
        problems.append("sweep rows are not k = 2..12")
    for k, q, r, kl, n in out["sweep"]:
        rq, rr = ref.chained_qr(k)
        if not (close(q, rq, 1e-12) and close(r, rr, 1e-12) and close(kl, ref.kl(rq, rr)) and close(n, ref.trials_for_target(rq, rr))):
            problems.append(f"sweep k={k}: ({q}, {r}, {kl}, {n})")
    k, n = out["optimal_k"]
    if k != ref.optimal_k() or not close(n, ref.trials_for_target(*ref.chained_qr(k))):
        problems.append(f"find_optimal_k gave ({k}, {n})")
    for mode, (r1, n) in out["hardy"].items():
        if not (close(r1, ref.hardy_r1(mode), 0.0, 1e-10) and close(n, ref.trials_for_target(ref.hardy_q(), ref.hardy_r1(mode)), 1e-8)):
            problems.append(f"hardy_optimize_r({mode}) gave r1={r1}, n={n}")
    problems += _check_grid("minimax_lr_ghz", out["minimax_ghz"], ref.minimax_value("ghz"), (0.5, 0.5, 0.5), GHZ_CELL)
    problems += _check_grid("minimax_lr_chained", out["minimax_chained"], ref.minimax_value("chained"), (0.25, 0.25, 0.25, 0.75), CHAINED_CELL)
    for mode, (r, n) in out["minimax_hardy"].items():
        value, best = math.log(ref.TARGET_D) / n, ref.minimax_value("hardy", mode)
        if not best - 1e-12 <= value <= hardy_grid_bound(mode) + 1e-12:
            problems.append(f"minimax_lr_hardy({mode}) rate {value} outside [{best}, {hardy_grid_bound(mode)}]")
        if abs(r[0] - ref.hardy_r1(mode)) > HARDY_CELL or abs(r[0] - math.fsum(r[1:])) > 1e-12:
            problems.append(f"minimax_lr_hardy({mode}) assignment {r} is not CH-saturating near r1")
    return problems


def _check_grid(name: str, result, best: float, optimum: tuple[float, ...], cell: float) -> list[str]:
    """A grid minimax whose continuous optimum lies on the grid must find its
    value, and an argmin within one cell of it."""
    assignment, value = result
    problems = []
    if abs(value - best) > 1e-12:
        problems.append(f"{name} value {value!r} vs closed form {best!r}")
    if any(abs(a - b) > cell + 1e-12 for a, b in zip(assignment, optimum)):
        problems.append(f"{name} argmin {assignment} is not within a cell of {optimum}")
    return problems


class Analysis(Workload):
    name = "analysis"
    kernel = "grid"

    def round(self, index: int) -> list[Op]:
        return [Op("pass", analysis_pass)]

    def check_output(self, name: str, out: dict) -> list[str]:
        return check_analysis(out)


@dataclass(frozen=True)
class ChildResult:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


def run_child(argv: list[str], root: Path) -> ChildResult:
    """Run one `python -m bellodds` process to its end and reap it with its
    resource usage."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bellodds", *argv], cwd=root, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    # bellodds writes at most a line to stderr, so reading stdout to its end
    # first cannot leave the child blocked on a full stderr pipe
    stdout = proc.stdout.read()
    stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(proc.returncode, stdout, stderr, usage.ru_maxrss)


CLI_COMMANDS = (
    ("analyze-ghz", ["analyze", "--scenario", "ghz"]),
    ("analyze-chained-k2", ["analyze", "--scenario", "chained", "--k", "2"]),
    ("analyze-chained-k4", ["analyze", "--scenario", "chained", "--k", "4"]),
    ("analyze-hardy-paper", ["analyze", "--scenario", "hardy", "--hardy-mode", "paper"]),
    ("analyze-hardy-naive", ["analyze", "--scenario", "hardy-naive"]),
    ("compare-text", ["compare"]),
    ("compare-csv", ["compare", "--format", "csv"]),
    ("sweep", ["sweep", "--scenario", "chained", "--k-min", "2", "--k-max", "12"]),
    ("simulate-chained-k2", ["simulate", "--scenario", "chained", "--k", "2", "--reps", str(CLI_SIM_REPS)]),
    ("simulate-ghz", ["simulate", "--scenario", "ghz", "--reps", str(CLI_SIM_REPS)]),
)


class Cli(Workload):
    name = "cli"
    replayed = ("simulate-chained-k2", "simulate-ghz")

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.protocol = ref.Protocol()
        self.pools: dict[str, checks.Pool] = defaultdict(checks.Pool)
        self.max_rss_kb = 0

    def reference(self) -> None:
        self.laws = {label: ref.stopping_law(label, "qm", self.protocol) for label in ("chained-k2", "ghz")}

    def round(self, index: int) -> list[Op]:
        ops = []
        for j, (name, argv) in enumerate(CLI_COMMANDS):
            if name.startswith("simulate-"):
                argv = [*argv, "--seed", str(op_seed(self.seed, index, j))]
            ops.append(Op(name, partial(self._child, argv)))
        return ops

    def _child(self, argv: list[str], tracer: Tracer) -> ChildResult:
        with tracer.span("cli.main"):
            result = run_child(argv, self.root)
        if result.code != 0:
            raise RuntimeError(f"bellodds {' '.join(argv)} exited {result.code}: {result.stderr.strip()}")
        return result

    def comparable(self, out: ChildResult) -> str:
        return out.stdout

    def check_output(self, name: str, out: ChildResult) -> list[str]:
        self.max_rss_kb = max(self.max_rss_kb, out.maxrss_kb)
        try:
            problems = self._check(name, out.stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        return [f"{name}: {p}" for p in problems]

    def _check(self, name: str, stdout: str) -> list[str]:
        kind, _, label = name.partition("-")
        if kind == "analyze":
            return check_analyze(label, json.loads(stdout))
        if kind == "compare":
            if label == "csv":
                rows = list(csv.reader(io.StringIO(stdout)))
            else:
                rows = [line.split() for line in stdout.splitlines()]
            return check_compare(rows)
        if kind == "sweep":
            return check_sweep(list(csv.reader(io.StringIO(stdout))))
        payload = json.loads(stdout)
        rep = {
            "mean_stop": payload["mean_stop"],
            "stddev_stop": payload["stddev_stop"],
            **payload["quantiles"],
            "decision_counts": payload["decision_counts"],
            "mean_log_d_per_trial": payload["mean_log_d_per_trial"],
        }
        self.pools[label].add(rep, CLI_SIM_REPS)
        rq, rr = ref.scenario_qr(label)
        problems = checks.check_properties(rep, CLI_SIM_REPS, self.protocol)
        if payload["config"]["scenario"] != label or not (close(payload["config"]["q"], rq, 1e-12) and close(payload["config"]["r"], rr, 1e-12)):
            problems.append(f"config echo {payload['config']} does not match {label}")
        return problems

    def finish(self) -> list[str]:
        problems = []
        for label, law in self.laws.items():
            problems += [f"simulate-{label}: {p}" for p in checks.check_law(self.pools[label], law, "qm", self.protocol)]
        return problems

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024.0

    def info(self) -> dict[str, float]:
        return {"reps": float(sum(p.reps for p in self.pools.values()))}


def check_analyze(label: str, payload: dict) -> list[str]:
    rq, rr = ref.scenario_qr(label)
    problems = []
    if not (close(payload["q"], rq, 1e-12) and close(payload["r"], rr, 1e-12, 1e-10)):
        problems.append(f"(q, r) = ({payload['q']}, {payload['r']}) vs ({rq}, {rr})")
    if label == "hardy-naive":
        extras = payload["extras"]
        if payload["kl_nats"] is not None or extras["naive_trials"] != ref.naive_trials():
            problems.append(f"naive theory payload {payload}")
        return problems
    n = ref.trials_for_target(rq, rr)
    if not (close(payload["kl_nats"], ref.kl(rq, rr)) and close(payload["n_real"], n) and payload["n_ceil"] == math.ceil(n)):
        problems.append(f"rate and counts {payload['kl_nats']}, {payload['n_real']}, {payload['n_ceil']} vs {n}")
    if label == "hardy-paper" and not close(payload["extras"]["r_opt"], rr, 0.0, 1e-10):
        problems.append(f"r_opt {payload['extras']['r_opt']} vs {rr}")
    return problems


def expected_compare() -> list[tuple[str, float, float, float, str]]:
    rows = []
    for label in PROTOCOL_LABELS[:4]:
        q, r = ref.scenario_qr(label)
        rows.append((label, q, r, ref.trials_for_target(q, r), "trials_for_target_d"))
    rows.append(("hardy-naive", ref.hardy_q(), 0.0, float(ref.naive_trials()), "trials_to_half_survival"))
    return rows


def check_compare(rows: list[list[str]]) -> list[str]:
    if rows[0] != ["scenario", "q", "r", "n_real", "n_kind"] or len(rows) != 6:
        return [f"table shape {rows}"]
    problems = []
    for got, want in zip(rows[1:], expected_compare()):
        label, q, r, n, kind = got
        if label != want[0] or kind != want[4] or not (
            close(float(q), want[1], 1e-12) and close(float(r), want[2], 1e-12, 1e-10) and close(float(n), want[3])
        ):
            problems.append(f"row {got} vs {want}")
    return problems


def check_sweep(rows: list[list[str]]) -> list[str]:
    if rows[0] != ["k", "theta", "q", "r", "kl_nats", "n_real"] or [int(r[0]) for r in rows[1:]] != list(SWEEP_KS):
        return [f"table shape {rows}"]
    problems = []
    for k_text, theta, q, r, kl, n in rows[1:]:
        k = int(k_text)
        rq, rr = ref.chained_qr(k)
        if not (
            close(float(theta), math.pi / (2 * k), 1e-12) and close(float(q), rq, 1e-12) and close(float(r), rr, 1e-12)
            and close(float(kl), ref.kl(rq, rr)) and close(float(n), ref.trials_for_target(rq, rr))
        ):
            problems.append(f"row k={k}")
    return problems


WORKLOADS = {w.name: w for w in (Protocol, LrLong, Analysis, Cli)}
