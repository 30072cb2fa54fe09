"""The benchmark's references agree with each other and with brute force, and
each of its checks rejects a deliberately corrupted output."""

import contextlib
import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from bellodds import cli
from bellodds.simulate import run_replications

import checks
import reference as ref
import workloads

PROTOCOL = ref.Protocol()


def brute_force_law(q, r, truth, protocol):
    """First-passage law by walking every outcome sequence to its stop."""
    p = q if truth == "qm" else r
    steps = ((p, ref._log_ratio(q, r)), (1.0 - p, ref._log_ratio(1.0 - q, 1.0 - r)))
    pmf = np.zeros(protocol.max_trials + 1)
    decided = {"lr": 0.0, "qm": 0.0, "none": 0.0}

    def walk(n, log_d, weight):
        for w, step in steps:
            if w == 0.0:
                continue
            d, mass = log_d + step, weight * w
            if d >= protocol.log_hi:
                outcome = "lr"
            elif d <= protocol.log_lo:
                outcome = "qm"
            elif n + 1 == protocol.max_trials:
                outcome = "none"
            else:
                walk(n + 1, d, mass)
                continue
            pmf[n + 1] += mass
            decided[outcome] += mass

    walk(0, 0.0, 1.0)
    return pmf, decided


@pytest.mark.parametrize(
    "q, r, truth",
    [(0.3, 0.6, "qm"), (0.3, 0.6, "lr"), (0.8, 0.45, "qm"), (0.4, 0.0, "qm"), (1.0, 0.7, "lr")],
)
def test_lattice_matches_brute_force(q, r, truth):
    protocol = ref.Protocol(prior=2.0, lower=0.2, upper=20.0, max_trials=12)
    law = ref.first_passage(q, r, truth, protocol)
    pmf, decided = brute_force_law(q, r, truth, protocol)
    np.testing.assert_allclose(law.pmf, pmf, rtol=0, atol=1e-13)
    assert law.p_lr_rejected == pytest.approx(decided["lr"], abs=1e-13)
    assert law.p_qm_rejected == pytest.approx(decided["qm"], abs=1e-13)
    assert law.p_undecided == pytest.approx(decided["none"], abs=1e-13)


@pytest.mark.parametrize("closed_form, label", [(ref.ghz_law, "ghz"), (ref.naive_law, "hardy-naive")])
def test_lattice_matches_closed_forms(closed_form, label):
    exact = closed_form(PROTOCOL)
    lattice = ref.first_passage(*ref.scenario_qr(label), "qm", PROTOCOL)
    np.testing.assert_allclose(lattice.pmf, exact.pmf, rtol=0, atol=1e-15)
    for field in ("p_lr_rejected", "p_qm_rejected", "mean", "var"):
        assert getattr(lattice, field) == pytest.approx(getattr(exact, field), rel=1e-12, abs=1e-15)


def test_closed_forms():
    assert ref.ghz_law(PROTOCOL).mean == 33.0  # 32 trials leave the odds at 0.01004
    q = ref.hardy_q()
    naive = ref.naive_law(PROTOCOL)
    assert naive.p_qm_rejected == pytest.approx((1 - q) ** 98, rel=1e-12)
    assert naive.mean == pytest.approx((1 - (1 - q) ** 98) / q, rel=1e-12)


def test_reference_reproduces_the_paper():
    for label, figure in ref.PAPER_TRIALS.items():
        assert round(ref.trials_for_target(*ref.scenario_qr(label)), 1) == figure
    assert ref.naive_trials() == ref.PAPER_NAIVE_TRIALS
    assert round(ref.hardy_r1("paper"), 5) == ref.PAPER_HARDY_R1
    assert ref.optimal_k() == ref.PAPER_OPTIMAL_K
    for mode, share in ref.HARDY_SHARES.items():
        r1 = ref.hardy_r1(mode)
        assert ref.kl(ref.hardy_q(), r1) == pytest.approx(-math.log1p(-share * r1), rel=1e-13)
    assert ref.minimax_value("ghz") == pytest.approx(-math.log(0.75), rel=1e-15)


def test_lattice_reproduces_known_protocol_figures():
    law = ref.stopping_law("chained-k2", "qm", PROTOCOL)
    assert law.mean == pytest.approx(289.045, abs=1e-3)
    assert law.p_qm_rejected == pytest.approx(8.2e-5, rel=0.01)
    assert law.p_qm_rejected <= PROTOCOL.prior / PROTOCOL.upper  # Ville


def exact_report(law, reps):
    """A report whose statistics equal the exact law's."""
    counts = {
        checks.LR_REJECTED: reps - 1 if law.p_qm_rejected else reps,
        checks.QM_REJECTED: 1 if law.p_qm_rejected else 0,
        checks.INCONCLUSIVE: 0,
    }
    return {
        "mean_stop": law.mean,
        "stddev_stop": math.sqrt(law.var),
        "p05": law.quantile(0.05),
        "p50": law.quantile(0.5),
        "p95": law.quantile(0.95),
        "decision_counts": counts,
        "mean_log_d_per_trial": law.drift,
    }


@pytest.fixture(scope="module")
def k2_law():
    return ref.stopping_law("chained-k2", "qm", PROTOCOL)


def test_exact_report_passes(k2_law):
    rep = exact_report(k2_law, 10_000)
    assert checks.check_properties(rep, 10_000, PROTOCOL) == []
    assert checks.check_law(pooled(rep, 10_000), k2_law, "qm", PROTOCOL) == []


def pooled(rep, reps):
    pool = checks.Pool()
    pool.add(rep, reps)
    return pool


def corrupt(rep, **changes):
    return {**rep, **changes}


def test_mean_moved_by_five_se_is_rejected(k2_law):
    reps = 10_000
    rep = exact_report(k2_law, reps)
    se = math.sqrt(k2_law.var / reps)
    for sign in (1, -1):
        bad = corrupt(rep, mean_stop=k2_law.mean + sign * 5 * se)
        assert any("mean stop" in p for p in checks.check_law(pooled(bad, reps), k2_law, "qm", PROTOCOL))


def test_rate_moved_by_five_se_is_rejected(k2_law):
    reps = 10_000
    rep = exact_report(k2_law, reps)
    se = math.sqrt(k2_law.diffusion / (reps * k2_law.mean))
    bad = corrupt(rep, mean_log_d_per_trial=k2_law.drift + 5 * se)
    assert any("Wald" in p for p in checks.check_law(pooled(bad, reps), k2_law, "qm", PROTOCOL))


def test_wrong_rejections_beyond_ville_are_rejected(k2_law):
    reps = 10_000
    counts = {checks.LR_REJECTED: reps - 12, checks.QM_REJECTED: 12, checks.INCONCLUSIVE: 0}
    bad = corrupt(exact_report(k2_law, reps), decision_counts=counts)
    problems = checks.check_law(pooled(bad, reps), k2_law, "qm", PROTOCOL)
    assert any("Ville" in p for p in problems)


def test_undecided_when_impossible_is_rejected(k2_law):
    reps = 10_000
    counts = {checks.LR_REJECTED: reps - 1, checks.QM_REJECTED: 0, checks.INCONCLUSIVE: 1}
    bad = corrupt(exact_report(k2_law, reps), decision_counts=counts)
    assert any("inconclusive" in p for p in checks.check_law(pooled(bad, reps), k2_law, "qm", PROTOCOL))


def test_finite_rate_after_falsification_is_rejected():
    law = ref.naive_law(PROTOCOL)
    bad = corrupt(exact_report(law, 1000), mean_log_d_per_trial=-0.09)
    assert any("infinite" in p for p in checks.check_law(pooled(bad, 1000), law, "qm", PROTOCOL))


def test_property_checks_reject_broken_reports(k2_law):
    rep = exact_report(k2_law, 100)
    counts = {checks.LR_REJECTED: 99, checks.QM_REJECTED: 0, checks.INCONCLUSIVE: 0}
    assert checks.check_properties(corrupt(rep, decision_counts=counts), 100, PROTOCOL)
    assert checks.check_properties(corrupt(rep, p05=rep["p95"] + 1), 100, PROTOCOL)


def test_real_report_passes_and_its_corruption_fails(k2_law):
    wl = workloads.Protocol(5, None)
    wl.setup()
    reps = 2000
    config = dataclasses.replace(wl.config("chained-k2", 5), replications=reps)
    rep = checks.report_dict(run_replications(config))
    assert checks.check_properties(rep, reps, PROTOCOL) == []
    assert checks.check_law(pooled(rep, reps), k2_law, "qm", PROTOCOL) == []
    se = math.sqrt(k2_law.var / reps)
    away = math.copysign(5 * se, rep["mean_stop"] - k2_law.mean)
    bad = corrupt(rep, mean_stop=rep["mean_stop"] + away)
    assert checks.check_law(pooled(bad, reps), k2_law, "qm", PROTOCOL)


@pytest.fixture(scope="module")
def analysis_out():
    return workloads.analysis_pass(workloads.Tracer())


def test_analysis_pass_is_correct(analysis_out):
    assert workloads.check_analysis(analysis_out) == []


@pytest.mark.parametrize(
    "path, change",
    [
        (("minimax_ghz",), lambda v: (v[0], v[1] + 1e-6)),
        (("minimax_chained",), lambda v: ((0.27, 0.23, 0.25, 0.75), v[1])),
        (("minimax_hardy", "paper"), lambda v: (v[0], v[1] * 1.05)),
        (("optimal_k",), lambda v: (5, v[1])),
        (("compare", "chained-k2"), lambda v: (v[0], v[1], v[2] * (1 + 1e-6))),
        (("hardy", "literal"), lambda v: (v[0] + 1e-9, v[1])),
        (("naive",), lambda v: 9),
    ],
)
def test_analysis_corruption_is_rejected(analysis_out, path, change):
    out = json.loads(json.dumps(analysis_out))  # deep copy; tuples become lists
    holder = out
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = change(holder[path[-1]])
    assert workloads.check_analysis(out)


def cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def test_cli_tables_pass_and_corruption_fails():
    rows = list(csv.reader(io.StringIO(cli_stdout(["compare", "--format", "csv"]))))
    assert workloads.check_compare(rows) == []
    assert workloads.check_compare([line.split() for line in cli_stdout(["compare"]).splitlines()]) == []
    rows[2][3] = str(float(rows[2][3]) + 0.01)
    assert workloads.check_compare(rows)
    sweep = list(csv.reader(io.StringIO(cli_stdout(["sweep", "--scenario", "chained", "--k-min", "2", "--k-max", "12"]))))
    assert workloads.check_sweep(sweep) == []
    sweep[5][4] = "0.5"
    assert workloads.check_sweep(sweep)


@pytest.mark.parametrize("name, argv", [c for c in workloads.CLI_COMMANDS if c[0].startswith("analyze-")])
def test_cli_analyze_passes_and_corruption_fails(name, argv):
    label = name[len("analyze-"):]
    payload = json.loads(cli_stdout(argv))
    assert workloads.check_analyze(label, payload) == []
    assert workloads.check_analyze(label, {**payload, "r": payload["r"] + 1e-3})


def test_replay_detects_a_changed_output():
    wl = workloads.Protocol(3, None)
    wl.setup()
    tracer = workloads.Tracer()
    for op in wl.round(0):
        wl.check(op, op.call(tracer), 0)
    assert wl.replay() == []
    wl.first["ghz"] = dataclasses.replace(wl.first["ghz"], mean_stop=34.0)
    assert wl.replay() == ["ghz: the same seed gave a different output"]


def test_op_seeds_are_stable_and_distinct():
    seeds = {workloads.op_seed(1, i, j) for i in range(50) for j in range(10)}
    assert len(seeds) == 500
    assert workloads.op_seed(1, 2, 3) == workloads.op_seed(1, 2, 3) < 2**64
