"""Command-line front-end: analyze, sweep, simulate, compare.

stdout carries only the machine-readable payload (JSON for single results,
CSV for tables, JSONL for trajectory dumps); diagnostics go to stderr.
Exit codes: 0 success, 1 flag misuse, 2 numerical failure.  Non-finite
numbers are serialized as JSON null so every payload stays strictly
parseable; the affected fields are documented per subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys

from .bayes import LR, QM, _check_int, kl_per_trial, required_trials
from .scenarios import (
    CHAINED,
    GHZ,
    HARDY,
    HARDY_MODE_PAPER,
    HARDY_MODES,
    HARDY_NAIVE,
    KINDS,
    ScenarioSpec,
    chained_pair,
    hardy_naive_trials,
    scenario_pair,
)

__all__ = ["main"]

_USAGE = 1
_NUMERICAL = 2

#: The scenarios of the compare table, in row order.
COMPARE_SPECS = (
    ScenarioSpec(GHZ),
    ScenarioSpec(CHAINED, k=2),
    ScenarioSpec(CHAINED, k=4),
    ScenarioSpec(HARDY),
    ScenarioSpec(HARDY_NAIVE),
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the CLI contract reserves 2 for
    numerical failures, so usage problems exit 1 instead."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_USAGE)


def _clean(value):
    """Replace non-finite floats by None, recursively, for strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    return value


def _emit_json(payload: dict, file=None) -> None:
    print(json.dumps(_clean(payload), allow_nan=False), file=file)


def _target_d(value: float) -> float:
    if not (math.isfinite(value) and value > 1.0):
        raise ValueError(f"--target-d must be finite and > 1, got {value!r}")
    return value


def _spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    """The scenario the flags name.  --k and --hardy-mode default to None, so
    giving one to a scenario that ignores it is an error, not a no-op."""
    for flag, value, kind in (("--k", args.k, CHAINED), ("--hardy-mode", args.hardy_mode, HARDY)):
        if value is not None and args.scenario != kind:
            raise ValueError(f"{flag} applies only to --scenario {kind}, not {args.scenario}")
    k = 2 if args.scenario == CHAINED and args.k is None else args.k
    return ScenarioSpec(kind=args.scenario, k=k, hardy_mode=args.hardy_mode or HARDY_MODE_PAPER)


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", required=True, choices=KINDS,
        help="experiment family to analyze",
    )
    parser.add_argument("--k", type=int, default=None, help="directions per observer (chained only)")
    parser.add_argument(
        "--hardy-mode", choices=HARDY_MODES, default=None,
        help="rate convention for the zero-coincidence setups (hardy only)",
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    target = _target_d(args.target_d)
    spec = _spec_from_args(args)
    pair = scenario_pair(spec).pair
    extras: dict = {}
    if spec.kind == CHAINED:
        extras = {"k": spec.k, "theta": math.pi / (2 * spec.k)}
    elif spec.kind == HARDY:
        extras = {"mode": spec.hardy_mode, "r_opt": pair.r}
    if spec.kind == HARDY_NAIVE:
        # The all-zero LR theory carries unbounded per-trial information, so
        # kl_nats and the trial counts have no finite value; what is finite
        # is how long the theory survives consecutive "no" results.
        kl = n_real = n_ceil = None
        extras = {
            "naive_trials": hardy_naive_trials(0.5),
            "survival_threshold": 0.5,
            "mean_trials_to_first_coincidence": 1.0 / pair.q,
        }
    else:
        kl = kl_per_trial(pair)
        n_real = required_trials(pair, target)
        n_ceil = math.ceil(n_real)
    _emit_json(
        {
            "scenario": args.scenario,
            "q": pair.q,
            "r": pair.r,
            "kl_nats": kl,
            "target_d": target,
            "n_real": n_real,
            "n_ceil": n_ceil,
            "extras": extras,
        }
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    target = _target_d(args.target_d)
    k_min = _check_int("--k-min", args.k_min, 2)
    k_max = _check_int("--k-max", args.k_max, k_min)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["k", "theta", "q", "r", "kl_nats", "n_real"])
    for k in range(k_min, k_max + 1):
        pair = chained_pair(k)
        kl = kl_per_trial(pair)
        writer.writerow([k, math.pi / (2 * k), pair.q, pair.r, kl, required_trials(pair, target)])
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    # numpy loads for this command only
    from .simulate import _DECISIONS, GENERATOR, SimulationConfig, replication_summaries, summarize

    _check_int("--reps", args.reps, 1, 2**32)
    _check_int("--seed", args.seed, 0, 2**64 - 1)
    _check_int("--max-trials", args.max_trials, 1, 2**53)
    spec = _spec_from_args(args)
    config = SimulationConfig(
        scenario=spec,
        true_theory=args.true_theory,
        prior_odds=args.prior_ratio,
        lower_threshold=args.lower,
        upper_threshold=args.upper,
        max_trials=args.max_trials,
        master_seed=args.seed,
        replications=args.reps,
    )
    # the dump file opens before the walk, so a bad path (even "") fails fast
    with open(args.dump_trajectories, "w") if args.dump_trajectories is not None else contextlib.nullcontext() as dump:
        walk = replication_summaries(config)
        if dump is not None:
            # a row at a time, so memory does not grow with --reps
            for i, (stop, code, final) in enumerate(zip(*walk)):
                rec = {"replication": i, "stop_trial": int(stop), "decision": _DECISIONS[code], "final_log_d": float(final)}
                _emit_json(rec, dump)
    report = summarize(walk)
    pair = config.resolved_pair()
    _emit_json(
        {
            "config": {
                "scenario": spec.label(),
                "q": pair.q,
                "r": pair.r,
                "true_theory": config.true_theory,
                "prior_ratio": config.prior_odds,
                "lower": config.lower_threshold,
                "upper": config.upper_threshold,
                "max_trials": config.max_trials,
                "replications": config.replications,
                "master_seed": config.master_seed,
            },
            "generator": GENERATOR,
            "mean_stop": report.mean_stop,
            "stddev_stop": report.stddev_stop,
            "quantiles": {"p05": report.q05, "p50": report.q50, "p95": report.q95},
            "decision_counts": report.decision_counts,
            "mean_log_d_per_trial": report.mean_log_d_per_trial,
        }
    )
    return 0


def _compare_rows(target: float) -> list[tuple[str, float, float, float, str]]:
    rows = []
    for spec in COMPARE_SPECS:
        pair = scenario_pair(spec).pair
        if spec.kind == HARDY_NAIVE:  # unbounded per-trial information
            n, kind = float(hardy_naive_trials(0.5)), "trials_to_half_survival"
        else:
            n, kind = required_trials(pair, target), "trials_for_target_d"
        rows.append((spec.label(), pair.q, pair.r, n, kind))
    return rows


def cmd_compare(args: argparse.Namespace) -> int:
    target = _target_d(args.target_d)
    rows = _compare_rows(target)
    header = ["scenario", "q", "r", "n_real", "n_kind"]
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        cells = [header] + [[row[0], repr(row[1]), repr(row[2]), repr(row[3]), row[4]] for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
        for r in cells:
            print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bellodds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="hypothesis pair and trial count for one scenario")
    _add_scenario_flags(p)
    p.add_argument("--target-d", type=float, default=1e4, help="target Bayes factor (default 1e4)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="chained-scenario table over a range of k")
    p.add_argument("--scenario", required=True, choices=[CHAINED])
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--target-d", type=float, default=1e4)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="replicated sequential experiments to a stopping decision")
    _add_scenario_flags(p)
    p.add_argument("--true-theory", choices=(QM, LR), default=QM)
    p.add_argument("--prior-ratio", type=float, default=100.0, help="prior LR:QM odds")
    p.add_argument("--lower", type=float, default=0.01, help="odds at or below which LR is rejected")
    p.add_argument("--upper", type=float, default=1e6, help="odds at or above which QM is rejected")
    p.add_argument("--max-trials", type=int, default=100_000)
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-trajectories", metavar="PATH", default=None,
                   help="write one JSON object per replication to PATH")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="trial counts of all scenarios side by side")
    p.add_argument("--target-d", type=float, default=1e4)
    p.add_argument("--format", choices=["csv", "text"], default="text")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # raised by --help (0) or _Parser.error (1)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # OSError: an unwritable --dump-trajectories path
        print(f"bellodds: error: {exc}", file=sys.stderr)
        return _USAGE
    except (RuntimeError, ArithmeticError) as exc:
        print(f"bellodds: numerical failure: {exc}", file=sys.stderr)
        return _NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
