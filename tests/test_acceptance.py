"""Acceptance suite: every shipped claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible under `pytest -sv`) and
then asserts, so a red line always comes with a failing test.  The whole
file runs in well under a minute.
"""

import csv
import io
import json
import math
import subprocess
import sys

from bellodds.adversary import minimax_lr_chained, minimax_lr_ghz, minimax_lr_hardy
from bellodds.bayes import (
    HypothesisPair,
    TrialTally,
    binomial_log_likelihood,
    kl_per_trial,
    log_bayes_factor,
    required_trials,
)
from bellodds.scenarios import (
    ScenarioSpec,
    chained_pair,
    find_optimal_k,
    ghz_pair,
    hardy_naive_trials,
    hardy_optimize_r,
    hardy_q,
)
from bellodds.simulate import LR_REJECTED, SimulationConfig, run_replications, run_trajectory

SEED = 42


def check(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"{criterion}: {detail}"


def test_c01_ghz_headline():
    factor = math.exp(log_bayes_factor(HypothesisPair(1.0, 0.75), TrialTally(32, 32)))
    trials = required_trials(ghz_pair(), 1e4)
    check(
        "C1 certain-run evidence after 32 trials",
        9.9e3 <= factor <= 1.0e4 and abs(trials - 32.0) <= 0.1,
        f"factor={factor:.1f}, trials={trials:.4f}",
    )


def test_c02_chained_k2_trials():
    trials = required_trials(chained_pair(2), 1e4)
    check("C2 chained k=2 trial count", abs(trials - 287.0) <= 1.0, f"trials={trials:.4f}")


def test_c03_chained_k4_trials_and_optimum():
    trials = required_trials(chained_pair(4), 1e4)
    best_k, _ = find_optimal_k(1e4, 2, 12)
    check(
        "C3 chained k=4 trial count and k sweep",
        abs(trials - 200.0) <= 1.0 and best_k == 4,
        f"trials={trials:.4f}, best_k={best_k}",
    )


def test_c04_hardy_optimized_response():
    sol = hardy_optimize_r("paper", 1e4)
    residual = kl_per_trial(HypothesisPair(hardy_q(), sol.r_opt)) + math.log1p(-sol.r_opt)
    check(
        "C4 optimized Hardy response",
        abs(sol.r_opt - 0.03358) <= 1e-4
        and abs(sol.n_real - 270.0) <= 1.0
        and abs(residual) < 1e-10,
        f"r={sol.r_opt:.6f}, trials={sol.n_real:.4f}, residual={residual:.2e}",
    )


def test_c05_hardy_coincidence_probability():
    golden_conjugate = (math.sqrt(5.0) - 1.0) / 2.0
    q = hardy_q()
    check(
        "C5 Hardy coincidence probability",
        abs(q - 0.09017) <= 5e-6 and q == golden_conjugate**5,
        f"q={q:.8f}",
    )


def test_c06_hardy_naive_survival():
    q = hardy_q()
    n = hardy_naive_trials(0.5)
    check(
        "C6 all-zero theory survival",
        n == 8 and (1.0 - q) ** 8 < 0.5 < (1.0 - q) ** 7,
        f"n={n}, survival(8)={(1 - q) ** 8:.4f}",
    )


def test_c07_minimax_grid_oracles():
    ghz_assignment, ghz_value = minimax_lr_ghz(200)
    ghz_ok = all(abs(e - 0.5) <= 0.01 + 1e-12 for e in ghz_assignment.e) and abs(
        ghz_value - math.log(4.0 / 3.0)
    ) <= 0.01
    chain_assignment, _ = minimax_lr_chained(2, 100)
    chain_ok = all(
        abs(p - want) <= 0.01 + 1e-12
        for p, want in zip(chain_assignment.probs, (0.25, 0.25, 0.25, 0.75))
    )
    hardy_assignment, _ = minimax_lr_hardy(1000, mode="paper")
    hardy_ok = abs(hardy_assignment.r[0] - 0.03358) <= 1e-3
    check(
        "C7 minimax grids reproduce the symmetric optima",
        ghz_ok and chain_ok and hardy_ok,
        f"ghz e={ghz_assignment.e[0]:.3f}, chain p={chain_assignment.probs[0]:.3f}, "
        f"hardy r1={hardy_assignment.r[0]:.4f}",
    )


def test_c08_property_suite():
    pairs = [
        HypothesisPair(0.3, 0.2),
        HypothesisPair(0.7, 0.4),
        HypothesisPair(1.0, 0.75),
        HypothesisPair(0.09016994374947424, 0.03358368136411276),
    ]
    tallies = [(TrialTally(40, 9), TrialTally(25, 3)), (TrialTally(200, 61), TrialTally(17, 17))]

    multiplicative = True
    for pair in pairs[:2] + pairs[3:]:
        for t1, t2 in tallies:
            joint = log_bayes_factor(pair, TrialTally(t1.n + t2.n, t1.m + t2.m))
            split = log_bayes_factor(pair, t1) + log_bayes_factor(pair, t2)
            multiplicative &= math.isclose(joint, split, rel_tol=1e-12, abs_tol=1e-12)

    consistent = True
    for pair in pairs[:2] + pairs[3:]:
        for t in (TrialTally(65, 12), TrialTally(300, 80)):
            lbf = log_bayes_factor(pair, t)
            lq = binomial_log_likelihood(pair.q, t)
            lr = binomial_log_likelihood(pair.r, t)
            consistent &= abs(lbf - (lq - lr)) <= 1e-12 * max(1.0, abs(lq), abs(lr))

    gibbs = True
    grid = [i / 100 for i in range(1, 100)]
    for q in grid:
        for r in grid:
            kl = kl_per_trial(HypothesisPair(q, r))
            gibbs &= (kl == 0.0) if q == r else (kl > 0.0)

    expectation = True
    for pair in pairs:
        for n in (1, 9, 20):
            total = math.fsum(
                math.comb(n, m) * pair.q**m * (1 - pair.q) ** (n - m)
                * log_bayes_factor(pair, TrialTally(n, m))
                for m in range(n + 1)
                if math.comb(n, m) * pair.q**m * (1 - pair.q) ** (n - m) > 0.0
            )
            expectation &= abs(total - n * kl_per_trial(pair)) < 1e-10

    check(
        "C8 evidence-arithmetic property suite",
        multiplicative and consistent and gibbs and expectation,
        f"multiplicative={multiplicative}, ratio-consistent={consistent}, "
        f"gibbs={gibbs}, expectation={expectation}",
    )


def test_c09_simulator_statistics():
    # (a) the certain-outcome walk is deterministic: all replications stop at 33
    ghz_cfg = SimulationConfig(
        scenario=ScenarioSpec("ghz"), replications=64, max_trials=100, master_seed=SEED
    )
    ghz_report = run_replications(ghz_cfg)
    a_ok = (
        ghz_report.decision_counts[LR_REJECTED] == 64
        and ghz_report.mean_stop == 33.0
        and ghz_report.stddev_stop == 0.0
        and run_trajectory(ghz_cfg, 0).stop_trial == 33
    )

    # (b) pooled per-trial evidence rate converges to the analytic 0.032080
    chained_cfg = SimulationConfig(
        scenario=ScenarioSpec("chained", k=2),
        replications=10_000,
        max_trials=3_000,
        master_seed=SEED,
    )
    chained_report = run_replications(chained_cfg)
    pair = chained_pair(2)
    step_yes = math.log(pair.q / pair.r)
    step_no = math.log((1 - pair.q) / (1 - pair.r))
    kl = kl_per_trial(pair)
    var = pair.q * step_yes**2 + (1 - pair.q) * step_no**2 - kl**2
    se_b = math.sqrt(var / (chained_report.mean_stop * 10_000))
    b_dev = abs(chained_report.mean_log_d_per_trial - 0.032080)
    b_ok = b_dev <= 3.0 * se_b

    # (c) first-coincidence stopping is geometric with mean 1/q = 11.09
    naive_cfg = SimulationConfig(
        scenario=ScenarioSpec("hardy-naive"),
        replications=10_000,
        max_trials=100_000,
        upper_threshold=1e30,
        master_seed=SEED,
    )
    naive_report = run_replications(naive_cfg)
    q = hardy_q()
    se_c = math.sqrt(1.0 - q) / q / 100.0
    c_dev = abs(naive_report.mean_stop - 1.0 / q)
    c_ok = c_dev <= 3.0 * se_c

    # (d) the same master seed reproduces every statistic exactly
    d_ok = run_replications(chained_cfg) == chained_report

    check(
        "C9 simulator statistics",
        a_ok and b_ok and c_ok and d_ok,
        f"ghz-deterministic={a_ok}, rate-dev={b_dev:.2e}<=3se={3 * se_b:.2e}, "
        f"naive-dev={c_dev:.3f}<=3se={3 * se_c:.3f}, reproducible={d_ok}",
    )


def test_c10_cli_contract():
    compare = subprocess.run(
        [sys.executable, "-m", "bellodds", "compare", "--target-d", "1e4", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    rows = list(csv.DictReader(io.StringIO(compare.stdout)))
    n = {r["scenario"]: float(r["n_real"]) for r in rows}
    table_ok = (
        compare.returncode == 0
        and compare.stdout.splitlines()[0] == "scenario,q,r,n_real,n_kind"
        and [r["scenario"] for r in rows]
        == ["ghz", "chained-k2", "chained-k4", "hardy-paper", "hardy-naive"]
        and abs(n["ghz"] - 32.0) <= 0.1
        and abs(n["chained-k2"] - 287.1) <= 1.0
        and abs(n["chained-k4"] - 200.8) <= 1.0
        and abs(n["hardy-paper"] - 269.5) <= 1.0
        and n["hardy-naive"] == 8.0
    )

    analyze = subprocess.run(
        [sys.executable, "-m", "bellodds", "analyze", "--scenario", "ghz", "--target-d", "1e4"],
        capture_output=True,
        text=True,
    )
    payload = json.loads(analyze.stdout)
    schema_ok = (
        analyze.returncode == 0
        and set(payload)
        == {"scenario", "q", "r", "kl_nats", "target_d", "n_real", "n_ceil", "extras"}
        and payload["n_ceil"] == math.ceil(payload["n_real"])
    )

    misuse = subprocess.run(
        [sys.executable, "-m", "bellodds", "analyze", "--scenario", "ghz", "--target-d", "1"],
        capture_output=True,
        text=True,
    )
    exit_ok = misuse.returncode == 1 and misuse.stdout == ""

    check(
        "C10 CLI comparison table and schemas",
        table_ok and schema_ok and exit_ok,
        f"table={table_ok}, schema={schema_ok}, exit-codes={exit_ok}",
    )
