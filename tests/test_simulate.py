"""Sequential-experiment simulations: deterministic walks, statistical
convergence against closed-form oracles, and the determinism contract."""

import hashlib
import math
import os
import queue
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bellodds import law, simulate
from bellodds.bayes import LR, QM, HypothesisPair, TrialTally, kl_per_trial, log_bayes_factor, required_trials
from bellodds.scenarios import ScenarioSpec, chained_pair, hardy_optimize_r, hardy_q
from bellodds.simulate import (
    INCONCLUSIVE,
    LR_REJECTED,
    QM_REJECTED,
    SimulationConfig,
    replication_summaries,
    run_replications,
    run_trajectory,
    summarize,
    trial_stream,
)

LN_4_3 = 0.28768207245178085
SEED = 42


def ghz_config(**kwargs):
    defaults = dict(scenario=ScenarioSpec("ghz"), replications=64, max_trials=100, master_seed=SEED)
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestGhzWalkIsDeterministic:
    def test_stops_at_trial_33(self):
        # every trial is "yes", each worth ln(4/3); 32 trials leave the odds
        # at 100 * (3/4)^32, a hair above 0.01, so the 33rd decides
        t = run_trajectory(ghz_config(), 0)
        assert t.decision == LR_REJECTED
        assert t.stop_trial == 33
        assert t.outcomes.all()
        assert math.isclose(t.cumulative_log_d[-1], 33 * LN_4_3, rel_tol=1e-12)
        assert t.cumulative_log_d[31] < math.log(1e4) < t.cumulative_log_d[32]

    def test_all_replications_agree(self):
        report = run_replications(ghz_config())
        assert report.decision_counts == {LR_REJECTED: 64, QM_REJECTED: 0, INCONCLUSIVE: 0}
        assert (report.mean_stop, report.stddev_stop) == (33.0, 0.0)
        assert (report.q05, report.q50, report.q95) == (33.0, 33.0, 33.0)


class TestZeroDrift:
    def test_equal_hypotheses_run_to_the_cap(self):
        cfg = ghz_config(scenario=HypothesisPair(0.3, 0.3), max_trials=50, replications=4)
        t = run_trajectory(cfg, 0)
        assert t.decision == INCONCLUSIVE
        assert t.stop_trial == 50
        assert np.all(t.cumulative_log_d == 0.0)


class TestOddsUpdate:
    """The walker is the one odds update: after n trials the LR:QM odds are
    prior_odds * exp(-log D_n), and the walk stops at the first trial that
    brings them to a threshold."""

    @pytest.mark.parametrize("lower,stop", [(0.5, 1), (0.26, 2), (0.25, 2), (0.24, 3), (0.125, 3)])
    def test_each_yes_halves_the_odds(self, lower, stop):
        # q = 1, r = 1/2: every trial is "yes" and worth ln 2; 2 ln 2 is ln 4 exactly
        t = run_trajectory(ghz_config(scenario=HypothesisPair(1.0, 0.5), prior_odds=1.0, lower_threshold=lower), 0)
        assert (t.decision, t.stop_trial) == (LR_REJECTED, stop)
        assert t.cumulative_log_d[-1] == stop * math.log(2.0)

    def test_no_evidence_never_moves_the_odds(self):
        # thresholds a hair either side of the prior, and still no decision
        cfg = ghz_config(scenario=HypothesisPair(0.6, 0.6), lower_threshold=99.999, upper_threshold=100.001)
        for i in range(4):
            t = run_trajectory(cfg, i)
            assert (t.decision, t.stop_trial) == (INCONCLUSIVE, 100)
            assert np.all(t.cumulative_log_d == 0.0)

    @pytest.mark.parametrize(
        "pair,truth,final,decision",
        [
            (HypothesisPair(0.5, 0.0), QM, math.inf, LR_REJECTED),  # "yes" falsifies LR
            (HypothesisPair(1.0, 0.75), LR, -math.inf, QM_REJECTED),  # "no" falsifies QM
        ],
    )
    def test_falsification_kills_the_odds_on_the_spot(self, pair, truth, final, decision):
        # thresholds hundreds of nats away: only the falsifying outcome ends the walk
        cfg = ghz_config(
            scenario=pair, true_theory=truth, lower_threshold=1e-300, upper_threshold=1e300, max_trials=10_000
        )
        falsifier = pair.r == 0.0
        for i in range(8):
            t = run_trajectory(cfg, i)
            assert (t.decision, t.cumulative_log_d[-1]) == (decision, final)
            assert len(t.outcomes) == t.stop_trial  # no trial after the odds die
            assert t.outcomes[-1] == falsifier and not (t.outcomes[:-1] == falsifier).any()
            assert np.isfinite(t.cumulative_log_d[:-1]).all()
        assert run_replications(cfg).mean_log_d_per_trial == final  # the pooled rate takes the falsifier's sign

    def test_no_overflow_for_huge_evidence(self):
        # odds from 1 to 1e-300 is e^690 of evidence; the walk never forms the odds themselves
        cfg = ghz_config(
            scenario=HypothesisPair(0.999, 0.001),
            prior_odds=1.0,
            lower_threshold=1e-300,
            upper_threshold=1e300,
            replications=16,
            max_trials=10_000,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stops, codes, finals = replication_summaries(cfg)
        assert all(simulate._DECISIONS[code] == LR_REJECTED for code in codes.tolist())
        assert np.isfinite(finals).all() and (finals >= math.log(1e300)).all()

    @pytest.mark.parametrize("prior", [1e-300, 1e300])
    def test_only_the_ratios_to_the_prior_matter(self, prior):
        # the default thresholds sit 1e4 either side of the prior 100
        for scenario in (ScenarioSpec("ghz"), ScenarioSpec("chained", k=2)):
            base = ghz_config(scenario=scenario, max_trials=3_000, replications=32)
            moved = replace(base, prior_odds=prior, lower_threshold=prior * 1e-4, upper_threshold=prior * 1e4)
            assert all(map(np.array_equal, replication_summaries(moved), replication_summaries(base)))

    @pytest.mark.parametrize("prior", [-0.5, 0.0, math.nan, math.inf])
    def test_rejects_non_positive_nan_or_infinite_prior(self, prior):
        with pytest.raises(ValueError, match="prior_odds"):
            ghz_config(prior_odds=prior)

    @given(
        q=st.floats(min_value=0.01, max_value=0.99),
        r=st.floats(min_value=0.01, max_value=0.99),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_sequential_updates_compose(self, q, r, seed):
        # log D after every trial is the running sum of the one-trial factors
        pair = HypothesisPair(q, r)
        t = run_trajectory(ghz_config(scenario=pair, master_seed=seed, max_trials=200, replications=1), 0)
        steps = [log_bayes_factor(pair, TrialTally(1, int(yes))) for yes in t.outcomes]
        for n in range(1, t.stop_trial + 1):
            assert math.isclose(t.cumulative_log_d[n - 1], math.fsum(steps[:n]), rel_tol=1e-12, abs_tol=1e-9)


@pytest.fixture(scope="module")
def naive_report():
    cfg = SimulationConfig(
        scenario=ScenarioSpec("hardy-naive"),
        replications=10_000,
        max_trials=100_000,
        upper_threshold=1e30,
        master_seed=SEED,
    )
    return run_replications(cfg)


@pytest.fixture(scope="module")
def chained_config():
    return SimulationConfig(
        scenario=ScenarioSpec("chained", k=2),
        replications=10_000,
        max_trials=3_000,
        master_seed=SEED,
    )


class TestHardyNaiveGeometricStopping:
    def test_mean_stop_matches_geometric_law(self, naive_report):
        # stopping trial ~ Geometric(q): mean 1/q, sd sqrt(1-q)/q
        q = hardy_q()
        se = math.sqrt(1.0 - q) / q / math.sqrt(10_000)
        assert abs(naive_report.mean_stop - 1.0 / q) <= 3.0 * se

    def test_first_coincidence_always_settles_it(self, naive_report):
        assert naive_report.decision_counts[LR_REJECTED] == 10_000
        assert naive_report.mean_log_d_per_trial == math.inf


class TestChainedEvidenceRate:
    def test_pooled_rate_converges_to_kl(self, chained_config):
        report = run_replications(chained_config)
        pair = chained_pair(2)
        kl = kl_per_trial(pair)
        step_yes = math.log(pair.q / pair.r)
        step_no = math.log((1.0 - pair.q) / (1.0 - pair.r))
        var = pair.q * step_yes**2 + (1.0 - pair.q) * step_no**2 - kl**2
        se = math.sqrt(var / (report.mean_stop * chained_config.replications))
        assert abs(report.mean_log_d_per_trial - kl) <= 3.0 * se

    def test_lr_true_drifts_the_other_way(self, chained_config):
        report = run_replications(replace(chained_config, true_theory=LR))
        assert report.decision_counts[QM_REJECTED] > report.decision_counts[LR_REJECTED]


class TestDeterminism:
    def test_trajectory_is_a_pure_function(self):
        cfg = ghz_config(scenario=ScenarioSpec("chained", k=2), replications=8, max_trials=2000)
        a = run_trajectory(cfg, 5)
        b = run_trajectory(cfg, 5)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.cumulative_log_d, b.cumulative_log_d)
        assert (a.decision, a.stop_trial) == (b.decision, b.stop_trial)

    def test_replications_have_distinct_streams(self):
        a = trial_stream(SEED, 0).random(8)
        b = trial_stream(SEED, 1).random(8)
        assert not np.array_equal(a, b)

    def test_repeated_runs_are_identical(self):
        cfg = ghz_config(scenario=ScenarioSpec("chained", k=2), replications=32, max_trials=2000)
        assert run_replications(cfg) == run_replications(cfg)

    def test_report_is_the_summary_of_the_walker_columns(self):
        cfg = ghz_config(scenario=ScenarioSpec("chained", k=2), replications=32, max_trials=2000)
        assert run_replications(cfg) == summarize(replication_summaries(cfg))


class TestThresholdMonotonicity:
    def test_raising_the_lower_threshold_never_slows_rejection(self):
        base = dict(
            scenario=ScenarioSpec("chained", k=2),
            replications=64,
            max_trials=3_000,
            master_seed=SEED,
        )
        strict = SimulationConfig(lower_threshold=0.01, **base)
        lax = SimulationConfig(lower_threshold=1.0, **base)
        for i in range(64):
            a = run_trajectory(strict, i)
            b = run_trajectory(lax, i)
            if a.decision == LR_REJECTED and b.decision == LR_REJECTED:
                assert b.stop_trial <= a.stop_trial


class TestWaldDrift:
    def test_understates_the_simulated_mean(self):
        # the drift value ignores overshoot, so the Monte Carlo mean sits above it
        cfg = SimulationConfig(
            scenario=ScenarioSpec("chained", k=2), replications=2_000, max_trials=3_000, master_seed=SEED
        )
        report = run_replications(cfg)
        estimate = required_trials(chained_pair(2), 100 / 0.01)
        assert report.mean_stop > estimate - 3.0


class TestConfigValidation:
    def test_threshold_ordering(self):
        with pytest.raises(ValueError):
            ghz_config(lower_threshold=200.0)
        with pytest.raises(ValueError):
            ghz_config(upper_threshold=50.0)

    def test_log_ratio_to_the_prior_must_be_finite(self):
        with pytest.raises(ValueError, match="upper_threshold"):
            ghz_config(upper_threshold=math.inf)
        with pytest.raises(ValueError, match="upper_threshold"):
            ghz_config(prior_odds=1e-320, lower_threshold=1e-321)  # prior / upper underflows
        with pytest.raises(ValueError, match="lower_threshold"):
            ghz_config(prior_odds=1e300, lower_threshold=1e-300, upper_threshold=1e301)

    def test_counts(self):
        with pytest.raises(ValueError):
            ghz_config(max_trials=0)
        ghz_config(max_trials=1)
        ghz_config(max_trials=2**53)  # the walker's float counts are exact up to here
        with pytest.raises(ValueError, match="max_trials"):
            ghz_config(max_trials=2**53 + 1)
        with pytest.raises(ValueError):
            ghz_config(replications=0)

    @pytest.mark.parametrize("name", ["max_trials", "replications", "master_seed"])
    @pytest.mark.parametrize("value", [2.5, 33.0, "7", None, float("nan")])
    def test_non_integer_counts_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            ghz_config(**{name: value})

    def test_numpy_integer_counts_accepted(self):
        plain = run_replications(ghz_config(max_trials=40, replications=3, master_seed=5))
        numpy_ints = ghz_config(max_trials=np.int64(40), replications=np.int32(3), master_seed=np.uint64(5))
        assert run_replications(numpy_ints) == plain

    def test_replications_bounded_by_the_spawn_word(self):
        # constructing runs nothing
        ghz_config(replications=2**32)
        with pytest.raises(ValueError):
            ghz_config(replications=2**32 + 1)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            ghz_config(master_seed=-1)
        ghz_config(master_seed=2**64 - 1)
        with pytest.raises(ValueError, match="master_seed"):
            ghz_config(master_seed=2**64)

    def test_true_theory(self):
        with pytest.raises(ValueError):
            ghz_config(true_theory="classical")

    @pytest.mark.parametrize("scenario", ["ghz", None, (1.0, 0.75)])
    def test_scenario_is_a_spec_or_a_pair(self, scenario):
        with pytest.raises(ValueError, match="scenario"):
            ghz_config(scenario=scenario)

    def test_a_pair_walks_as_the_spec_it_resolves_to(self):
        pair = chained_pair(2)
        by_spec = ghz_config(scenario=ScenarioSpec("chained", k=2), replications=200, max_trials=2000)
        by_pair = replace(by_spec, scenario=pair)
        assert by_pair.resolved_pair() is pair and pair == by_spec.resolved_pair()
        assert all(map(np.array_equal, replication_summaries(by_pair), replication_summaries(by_spec)))

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError, match=r"q = r = 0\.0: the outcome both theories forbid"):
            ghz_config(scenario=HypothesisPair(0.0, 0.0))
        with pytest.raises(ValueError, match=r"q = r = 1\.0: the outcome both theories forbid"):
            ghz_config(scenario=HypothesisPair(1.0, 1.0))

    def test_replication_index_bounds(self):
        cfg = ghz_config(replications=4)
        with pytest.raises(ValueError):
            run_trajectory(cfg, 4)

    @pytest.mark.parametrize("index", [1.5, 1.9, "1", -1])
    def test_run_trajectory_rejects_bad_indices(self, index):
        with pytest.raises(ValueError, match="replication_index"):
            run_trajectory(ghz_config(replications=4), index)

    @pytest.mark.parametrize("index", [1.5, 1.9, 1.0, "1", -1, 2**32, 2**63 + 1, 2**64 - 3, 2**64])
    def test_trial_stream_rejects_bad_indices(self, index):
        with pytest.raises(ValueError, match="replication_index"):
            trial_stream(0, index)

    @pytest.mark.parametrize("seed", [1.5, "7", -1, 2**64])
    def test_trial_stream_rejects_bad_seeds(self, seed):
        with pytest.raises(ValueError, match="master_seed"):
            trial_stream(seed, 0)

    def test_numpy_integer_indices_accepted(self):
        cfg = ghz_config(scenario=ScenarioSpec("chained", k=2), replications=8, max_trials=2000)
        a = trial_stream(np.uint64(SEED), np.int64(3)).random(8)
        assert np.array_equal(a, trial_stream(SEED, 3).random(8))
        t, u = run_trajectory(cfg, np.int32(5)), run_trajectory(cfg, 5)
        assert np.array_equal(t.outcomes, u.outcomes) and (t.decision, t.stop_trial) == (u.decision, u.stop_trial)


def stop_columns(test):
    """Random stopping-trial columns of 1 to 300 replications, small, large
    and near 2**53, with examples for n = 1, n = 2, all equal and near 2**53."""
    stops = st.lists(
        st.one_of(st.integers(1, 4), st.integers(1, 10**6), st.integers(2**53 - 64, 2**53)), min_size=1, max_size=300
    )
    for case in ([7], [3, 1], [5] * 40, [2**53 - 1, 2**53, 1, 2**53 - 3]):
        test = example(stops=case)(test)
    return given(stops=stops)(test)


def report_of(stops: list[int]) -> simulate.StoppingReport:
    return summarize((np.array(stops, dtype=np.int64), np.zeros(len(stops), dtype=np.int8), np.zeros(len(stops))))


class TestQuantiles:
    @stop_columns
    def test_match_np_percentile_bitwise(self, stops):
        report = report_of(stops)
        expected = np.percentile(np.array(stops, dtype=np.int64), [5.0, 50.0, 95.0]).tolist()
        assert [x.hex() for x in (report.q05, report.q50, report.q95)] == [x.hex() for x in expected]


class TestMoments:
    @stop_columns
    def test_match_np_mean_and_std_bitwise(self, stops):
        # one replication has no spread to estimate: summarize reports 0.0
        # where np.std(ddof=1) warns and returns nan
        report = report_of(stops)
        column = np.array(stops, dtype=np.int64)
        sd = float(np.std(column, ddof=1)) if len(stops) > 1 else 0.0
        assert (report.mean_stop.hex(), report.stddev_stop.hex()) == (float(np.mean(column)).hex(), sd.hex())


class TestSingleReplicationReport:
    def test_report_collapses_to_the_one_trajectory(self):
        cfg = ghz_config(replications=1)
        t = run_trajectory(cfg, 0)
        report = run_replications(cfg)
        assert report.mean_stop == float(t.stop_trial)
        assert report.stddev_stop == 0.0
        assert (report.q05, report.q50, report.q95) == (float(t.stop_trial),) * 3
        assert report.decision_counts[t.decision] == 1
        assert math.isclose(
            report.mean_log_d_per_trial, t.cumulative_log_d[-1] / t.stop_trial, rel_tol=1e-12
        )


def reference_walk(config: SimulationConfig, index: int) -> tuple[int, str]:
    """One trial at a time with a running float sum: the per-trial walk the
    batch walker replaces, kept as its oracle for stopping trials and
    decisions."""
    pair = config.resolved_pair()
    p_true = pair.q if config.true_theory == QM else pair.r
    step_yes = log_bayes_factor(pair, TrialTally(1, 1))
    step_no = log_bayes_factor(pair, TrialTally(1, 0))
    hi = math.log(config.prior_odds / config.lower_threshold)
    lo = math.log(config.prior_odds / config.upper_threshold)
    rng = trial_stream(config.master_seed, index)
    cum = 0.0
    for trial in range(1, config.max_trials + 1):
        step = step_yes if rng.random() < p_true else step_no
        if math.isinf(step):
            return trial, LR_REJECTED if step > 0 else QM_REJECTED
        cum += step
        if cum >= hi:
            return trial, LR_REJECTED
        if cum <= lo:
            return trial, QM_REJECTED
    return config.max_trials, INCONCLUSIVE


SCENARIOS = {
    "ghz": ScenarioSpec("ghz"),
    "chained-k2": ScenarioSpec("chained", k=2),
    "chained-k4": ScenarioSpec("chained", k=4),
    "hardy-paper": ScenarioSpec("hardy"),
    "hardy-naive": ScenarioSpec("hardy-naive"),
}
# q < r, both outcomes falsifying, zero drift, and each way the one falsifier
# can arise: with QM true "no" falsifies LR when r = 1; with q = 0 or 1, QM's
# forbidden outcome is never drawn when QM is true (nor drawn at all: every
# outcome is certain) and falsifies QM when LR is
OVERRIDES = {
    "q<r": HypothesisPair(0.2, 0.6),
    "q=1,r=0": HypothesisPair(1.0, 0.0),
    "q=r": HypothesisPair(0.3, 0.3),
    "r=1": HypothesisPair(0.5, 1.0),
    "q=0": HypothesisPair(0.0, 0.3),
    "q=1": HypothesisPair(1.0, 0.5),
}


def walk_config(name: str, truth: str, **kwargs) -> SimulationConfig:
    if name in OVERRIDES:
        kwargs.update(scenario=OVERRIDES[name])
    else:
        kwargs.update(scenario=SCENARIOS[name])
    return SimulationConfig(true_theory=truth, master_seed=SEED, **kwargs)


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
INDICES = [0, 1, 99, 2**31, 2**32 - 1]


class TestSubstreams:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_walker_matches_per_trial_walk_over_the_index_range(self, seed):
        # LR true, so the walk stops at the first "no" (probability 1/4),
        # which QM forbids: the stop depends on the draws
        cfg = ghz_config(master_seed=seed, replications=2**32, true_theory=LR)
        for index in INDICES:
            stops, codes, _ = simulate._walk(cfg, index, index + 1)
            got = (int(stops[0]), simulate._DECISIONS[codes[0]])
            assert got == reference_walk(cfg, index), (seed, index)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trial_stream_is_the_jumped_master_stream(self, seed):
        for index in INDICES:
            jumped = np.random.Generator(np.random.Philox(seed).jumped(index))
            assert np.array_equal(trial_stream(seed, index).random(16), jumped.random(16)), (seed, index)


CUT_POINT_PS = [
    2.0**-1074,
    2.0**-53,
    0.1,
    0.25,
    0.5,
    1.0 - 2.0**-53,
    hardy_q(),
    chained_pair(2).q,
    chained_pair(2).r,
    chained_pair(4).q,
    chained_pair(4).r,
    hardy_optimize_r().r_opt,
]


def word_cut(p: float) -> int:
    """The smallest raw Philox word whose double is not below p:
    ceil(p * 2**53) << 11, from the exact rational p."""
    return math.ceil(Fraction(p) * 2**53) << 11


class TestWordCutPoint:
    """Wide blocks decide "yes" on Philox's raw words (simulate._draw):
    numpy's double is (word >> 11) * 2**-53, so draw < p exactly when
    word < ceil(p * 2**53) << 11."""

    @pytest.mark.parametrize("p", CUT_POINT_PS)
    def test_words_beside_the_cut(self, p):
        t = word_cut(p)
        words = [0, t - 2049, t - 2048, t - 1, t, t + 1, t + 2047, 2**64 - 1]
        for w in (w for w in words if 0 <= w < 2**64):
            assert ((w >> 11) * 2.0**-53 < p) == (w < t), (p, w)

    @pytest.mark.parametrize("p", CUT_POINT_PS)
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_word_flags_are_the_float_flags(self, p, seed):
        # 4096 trials: _draw takes the word path
        assert 4096 >= simulate._RAW_WIDTH
        cut = np.uint64(word_cut(p))
        gen = np.random.Generator(np.random.Philox(seed))
        key = gen.bit_generator.state["state"]["key"].tolist()
        for index in (0, 2**32 - 1):
            expected = trial_stream(seed, index).random(4096) < p
            raw = np.random.Philox(seed).advance(index << 128).random_raw(4096)
            assert np.array_equal(raw < cut, expected), (seed, index)
            flags = simulate._draw(gen, key, [index], 0, np.empty((1, 4096)), p, cut)
            assert np.array_equal(flags[0], expected), (seed, index)


def count_formula_walk(config: SimulationConfig, index: int) -> tuple[int, str, str]:
    """One trial at a time, log D from the counts: m * step_yes + (n - m) *
    step_no after n trials with m "yes", in Python floats, against the
    thresholds after every trial.  Returns the stop, the decision and the
    final log D in hex, to be matched bit for bit."""
    pair = config.resolved_pair()
    p_true = pair.q if config.true_theory == QM else pair.r
    step_yes = log_bayes_factor(pair, TrialTally(1, 1))
    step_no = log_bayes_factor(pair, TrialTally(1, 0))
    # an infinite step's outcome ends the walk, so until then its count is 0
    yes, no = (step if math.isfinite(step) else 0.0 for step in (step_yes, step_no))
    hi = math.log(config.prior_odds / config.lower_threshold)
    lo = math.log(config.prior_odds / config.upper_threshold)
    rng = trial_stream(config.master_seed, index)
    m = 0
    for n in range(1, config.max_trials + 1):
        is_yes = rng.random() < p_true
        step = step_yes if is_yes else step_no
        if math.isinf(step):
            return n, LR_REJECTED if step > 0 else QM_REJECTED, step.hex()
        m += is_yes
        log_d = m * yes + (n - m) * no
        if log_d >= hi:
            return n, LR_REJECTED, log_d.hex()
        if log_d <= lo:
            return n, QM_REJECTED, log_d.hex()
    return config.max_trials, INCONCLUSIVE, log_d.hex()


def batch_walk(config: SimulationConfig) -> list[tuple[int, str, str]]:
    stops, codes, finals = simulate._walk(config, 0, config.replications)
    return [
        (stop, simulate._DECISIONS[code], final.hex())
        for stop, code, final in zip(stops.tolist(), codes.tolist(), finals.tolist())
    ]


def threshold_at(prior: float, target: float) -> float:
    """The threshold t with math.log(prior / t) == target, found by stepping
    t one double at a time from its real-valued estimate."""
    t = prior / math.exp(target)
    while math.log(prior / t) < target:
        t = math.nextafter(t, 0.0)
    while math.log(prior / t) > target:
        t = math.nextafter(t, math.inf)
    assert math.log(prior / t) == target, "no threshold maps onto the target"
    return t


class TestCountFormulaWalk:
    @pytest.mark.parametrize("truth", [QM, LR])
    @pytest.mark.parametrize("name", list(SCENARIOS) + list(OVERRIDES))
    @pytest.mark.parametrize("max_trials", [30, 2_001])
    def test_matches_the_walker_bitwise(self, name, truth, max_trials):
        cfg = walk_config(name, truth, max_trials=max_trials, replications=20)
        assert batch_walk(cfg) == [count_formula_walk(cfg, i) for i in range(20)]

    @pytest.mark.parametrize("truth", [QM, LR])
    @pytest.mark.parametrize("p", [0.5, 0.75])
    def test_a_word_path_block_with_the_cut_at_or_past_2_63(self, p, truth):
        # zero drift, so blocks double from 64 to 512 and then one block of
        # 1024 trials decides "yes" on raw words, against a cut of 2**63 at
        # p = 1/2 (and 3 * 2**62 at 3/4): numpy must compare the uint64 words
        # with a uint64 cut, not with a float
        assert simulate._RAW_WIDTH <= 1024
        cfg = SimulationConfig(HypothesisPair(p, p), truth, max_trials=2_001, master_seed=SEED, replications=20)
        assert batch_walk(cfg) == [count_formula_walk(cfg, i) for i in range(20)]

    @pytest.mark.parametrize("pair", [HypothesisPair(0.001, 0.0), HypothesisPair(0.999, 1.0)])
    def test_a_falsifier_drawn_on_the_word_path(self, pair):
        # QM true and an infinite drift, so blocks double from 64 trials and
        # every trial past 960 is decided on raw words, with the cut near 0
        # or near 2**64; the outcome LR forbids ("yes" at r = 0, "no" at
        # r = 1) comes once in 1000 trials, so some walks end on it there
        assert simulate._RAW_WIDTH <= 1024
        cfg = SimulationConfig(pair, QM, max_trials=4_001, master_seed=SEED, replications=20)
        walks = batch_walk(cfg)
        assert walks == [count_formula_walk(cfg, i) for i in range(20)]
        assert any(stop > 960 and decision == LR_REJECTED for stop, decision, _ in walks)

    @pytest.mark.parametrize("index", range(4))
    def test_a_first_draw_on_the_cut(self, index):
        # p is the walk's first draw, then the next double up: trial 1 is
        # "no", then "yes", and a cut one word group off flips it.  The drift
        # is so small that the first block is the widest, so trial 1 is
        # decided on raw words
        draw = trial_stream(SEED, index).random()
        for p in (draw, math.nextafter(draw, 1.0)):
            pair = HypothesisPair(p, 0.99 * p)
            assert simulate._sized_block(math.log(1e4), kl_per_trial(pair)) >= simulate._RAW_WIDTH
            cfg = SimulationConfig(pair, QM, max_trials=10_000, master_seed=SEED, replications=index + 1)
            assert batch_walk(cfg)[index] == count_formula_walk(cfg, index)

    def test_a_word_on_the_cut(self):
        # p is the double of a drawn word whose low 11 bits are 0, so that
        # word is the cut itself and its trial is "no" (draw < p is false),
        # which a walk taking word <= cut would count "yes"; the first block
        # is the widest, as above
        words = np.random.Philox(SEED).random_raw(5_000)
        j = int(np.flatnonzero(words % 2048 == 0)[0])
        p = (int(words[j]) >> 11) * 2.0**-53
        cfg = SimulationConfig(HypothesisPair(p, 0.99 * p), QM, max_trials=5_000, master_seed=SEED, replications=1)
        walks = batch_walk(cfg)
        assert walks == [count_formula_walk(cfg, 0)]
        assert walks[0][0] > j

    @pytest.mark.parametrize("truth", [QM, LR])
    def test_thresholds_on_and_beside_a_reached_log_d(self, truth):
        # each walk ends on a log D it reached; a threshold there or one ulp
        # inside stops it there too (>= hi, <= lo), one ulp outside does not
        base = walk_config("chained-k2", truth, max_trials=3_000, replications=40)
        name, outward = ("lower_threshold", math.inf) if truth == QM else ("upper_threshold", -math.inf)
        base_walks = batch_walk(base)
        for i, (_, _, final) in enumerate(base_walks[:6]):
            x = float.fromhex(final)
            for target, stops_there in ((math.nextafter(x, -outward), True), (x, True), (math.nextafter(x, outward), False)):
                cfg = replace(base, **{name: threshold_at(base.prior_odds, target)})
                walks = batch_walk(cfg)
                assert walks == [count_formula_walk(cfg, j) for j in range(cfg.replications)]
                assert (walks[i] == base_walks[i]) == stops_there, (i, target)

    @pytest.mark.parametrize("truth", [QM, LR])
    def test_trial_cap_on_a_block_edge(self, truth, monkeypatch):
        # zero drift, so blocks of 64 and then 128 trials: the cap at 192
        # falls on the last column of a full block, and no walk reaches a
        # threshold before it
        tally = counted_draws(monkeypatch)
        cfg = walk_config("q=r", truth, max_trials=192, replications=20)
        walks = batch_walk(cfg)
        assert walks == [count_formula_walk(cfg, i) for i in range(20)]
        assert {(stop, decision) for stop, decision, _ in walks} == {(192, INCONCLUSIVE)}
        assert tally["draws"] == 192 * 20

    @pytest.mark.parametrize("truth", [QM, LR])
    def test_trial_cap_inside_a_word(self, truth, monkeypatch):
        # blocks are whole words of 8 trials, so the last block draws trials
        # 191 and 192 past the cap at 190, and no walk sees them
        tally = counted_draws(monkeypatch)
        cfg = walk_config("q=r", truth, max_trials=190, replications=20)
        walks = batch_walk(cfg)
        assert walks == [count_formula_walk(cfg, i) for i in range(20)]
        assert {(stop, decision) for stop, decision, _ in walks} == {(190, INCONCLUSIVE)}
        assert tally["draws"] == 192 * 20


class TestYesCounts:
    """simulate._yes_counts, eight trials to a word, against np.cumsum."""

    @staticmethod
    def assert_counts(is_yes: np.ndarray, count: np.ndarray) -> None:
        # m and scratch start as NaN, so a lane the kernel skips shows
        m, scratch = np.full(is_yes.shape, np.nan), np.full(is_yes.size, np.nan)
        got = simulate._yes_counts(is_yes, count, m, scratch)
        assert got is m
        assert np.array_equal(m, np.cumsum(is_yes, axis=1, dtype=np.float64) + count[:, None])

    @pytest.mark.parametrize("rows", [1, 128])
    @pytest.mark.parametrize("width", [8, 16, 24, 344, 2048, 6144])
    @pytest.mark.parametrize("kind", ["all-False", "all-True", "random"])
    def test_matches_cumsum(self, rows, width, kind):
        rng = np.random.default_rng(width * rows)
        is_yes = {
            "all-False": np.zeros((rows, width), dtype=bool),
            "all-True": np.ones((rows, width), dtype=bool),
            "random": rng.random((rows, width)) < 0.3,
        }[kind]
        self.assert_counts(is_yes, rng.integers(0, 10_000, rows).astype(np.float64))

    @pytest.mark.parametrize("width", [8, 2048, 6144])
    def test_counts_near_2_53(self, width):
        # an all-True row ends on 2**53 exactly, the largest count the walk
        # keeps; at the widest block its 16-bit lanes carry up to 6144, and
        # the words need whole blocks of 8 trials and carries below 2**16
        assert simulate._MAX_BLOCK % 8 == 0 and simulate._MAX_BLOCK < 2**16
        is_yes = np.ones((3, width), dtype=bool)
        is_yes[1, ::3] = False
        self.assert_counts(is_yes, np.full(3, float(2**53 - width)))

    def test_lane_order(self):
        # trial 0 is the lowest byte of its word: with the bytes read the
        # other way round, the lone "yes" of word 0 would count from trial 7
        is_yes = np.zeros((2, 16), dtype=bool)
        is_yes[0, 0] = is_yes[0, 9] = is_yes[0, 10] = True
        is_yes[1, 7] = is_yes[1, 8] = True
        m = simulate._yes_counts(is_yes, np.array([0.0, 5.0]), np.empty((2, 16)), np.empty(32))
        assert m.tolist() == [[1.0] * 9 + [2.0] + [3.0] * 6, [5.0] * 7 + [6.0] + [7.0] * 8]


def stops_and_decisions(config: SimulationConfig) -> list[tuple[int, str]]:
    stops, codes, _ = replication_summaries(config)
    return [(stop, simulate._DECISIONS[code]) for stop, code in zip(stops.tolist(), codes.tolist())]


class TestBatchWalkerMatchesPerTrialWalk:
    @pytest.mark.parametrize("truth", [QM, LR])
    @pytest.mark.parametrize("name", list(SCENARIOS) + list(OVERRIDES))
    @pytest.mark.parametrize("max_trials", [30, 2_001])
    def test_stop_and_decision_per_replication(self, name, truth, max_trials):
        # 30 is below every first block and not a multiple of 8; 2001 takes
        # continuation blocks and cuts the last one short
        cfg = walk_config(name, truth, max_trials=max_trials, replications=40)
        assert stops_and_decisions(cfg) == [reference_walk(cfg, i) for i in range(40)]

    def test_several_chunks(self):
        cfg = walk_config("chained-k2", QM, max_trials=3_000, replications=simulate._CHUNK_ROWS * 2 + 5)
        assert stops_and_decisions(cfg) == [reference_walk(cfg, i) for i in range(cfg.replications)]


class TestFinalLogD:
    @pytest.mark.parametrize("truth", [QM, LR])
    @pytest.mark.parametrize("name", list(SCENARIOS) + list(OVERRIDES))
    def test_is_the_count_formula_of_the_outcomes(self, name, truth):
        cfg = walk_config(name, truth, max_trials=2_001, replications=12)
        pair = cfg.resolved_pair()
        stops, codes, finals = replication_summaries(cfg)
        for i, (stop, code, final) in enumerate(zip(stops.tolist(), codes.tolist(), finals.tolist())):
            t = run_trajectory(cfg, i)
            assert (t.stop_trial, t.decision) == (stop, simulate._DECISIONS[code])
            tally = TrialTally(t.stop_trial, int(t.outcomes.sum()))
            assert final == log_bayes_factor(pair, tally)
            assert t.cumulative_log_d[-1] == final
            assert not np.isnan(t.cumulative_log_d).any()

    def test_outcomes_are_the_trial_stream(self):
        cfg = walk_config("chained-k4", QM, max_trials=3_000, replications=3)
        t = run_trajectory(cfg, 2)
        draws = trial_stream(SEED, 2).random(t.stop_trial)
        assert np.array_equal(t.outcomes, draws < cfg.resolved_pair().q)

    @pytest.mark.parametrize("truth", [QM, LR])
    @pytest.mark.parametrize("name", ["chained-k2", "hardy-naive", "ghz", "q=r", "r=1", "q=0"])
    def test_independent_of_chunk_and_block_layout(self, name, truth, monkeypatch):
        # blocks sized from the drift, and doubling blocks where the drift
        # is 0 (q=r) or infinite (hardy-naive, r=1 QM true; ghz, q=0 LR true)
        assert_layout_free(walk_config(name, truth, max_trials=2_001, replications=50), monkeypatch)

    def test_independent_of_the_sized_continuation_blocks(self, monkeypatch):
        # walks of about 6k trials, so under the small caps most blocks are
        # continuations sized from the farthest live row, some cut to the
        # float cap while many rows live and some narrower than either cap
        cfg = walk_config("chained-k2", LR, upper_threshold=1e100, max_trials=10_000, replications=30)
        assert_layout_free(cfg, monkeypatch)


def assert_layout_free(config: SimulationConfig, monkeypatch) -> None:
    """The walker's columns do not change when small caps cut the walk into
    many more chunks and blocks."""
    default = replication_summaries(config)
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(simulate, "_FIRST_BLOCK", 8)
    monkeypatch.setattr(simulate, "_MAX_BLOCK", 48)
    monkeypatch.setattr(law, "_WINDOW", 48)
    monkeypatch.setattr(simulate, "_BLOCK_FLOATS", 7 * 8 * 2)
    monkeypatch.setattr(simulate, "_RAW_WIDTH", 24)  # blocks of 8-16 trials draw floats, 24-48 raw words
    # windows of 48 trial counts, built cold; more than the cache holds for
    # walks past 960 trials
    law._bound_window.cache_clear()
    layout = replication_summaries(config)
    law._bound_window.cache_clear()
    assert all(np.array_equal(a, b) for a, b in zip(layout, default, strict=True))


def counted_draws(monkeypatch) -> dict:
    """Wraps simulate._draw; the returned tally counts the rows it filled
    (one per live replication per block) and the draws it made, and lists
    the widths of the rows it filled from trial 1."""
    tally = {"rows": 0, "draws": 0, "first_widths": []}
    draw = simulate._draw

    def counting(gen, key, indices, done, draws, *cut):
        tally["rows"] += len(indices)
        tally["draws"] += draws.size
        if done == 0:
            tally["first_widths"] += [draws.shape[1]] * len(indices)
        return draw(gen, key, indices, done, draws, *cut)

    monkeypatch.setattr(simulate, "_draw", counting)
    return tally


#: lr-long's shape: 10 walks of 3.5k-9k trials, in blocks of up to 6144 raw words
WIDE = walk_config("chained-k2", LR, upper_threshold=1e100, replications=10)


def share_fills(monkeypatch, on: bool) -> None:
    """Every raw-word block of two rows or more shares its fill with the
    fill thread (on), also on one CPU, or none does."""
    monkeypatch.setattr(simulate, "_SPLIT_DRAWS", 0 if on else 2**62)
    monkeypatch.setattr(simulate, "_CPUS", 2)


@pytest.fixture
def own_jobs(monkeypatch):
    """Swaps simulate._JOBS for an empty dict, so the test's first shared
    block starts a fill thread of its own; on teardown each queue the dict
    holds gets the None job that ends its thread, and the threads started
    meanwhile are joined."""
    before = set(threading.enumerate())
    jobs = {}
    monkeypatch.setattr(simulate, "_JOBS", jobs)
    yield
    for job_queue in jobs.values():
        job_queue.put(None)
    for thread in set(threading.enumerate()) - before:
        if thread.name == "bellodds-fill":
            thread.join(60)
            assert not thread.is_alive(), "a fill thread did not stop"


def filling_threads(monkeypatch) -> list[int]:
    """Wraps simulate._fill; the returned list gets the thread id of each
    call."""
    idents = []
    fill = simulate._fill

    def recording(*args):
        idents.append(threading.get_ident())
        return fill(*args)

    monkeypatch.setattr(simulate, "_fill", recording)
    return idents


class TestDrawsPerReplication:
    def test_ghz_qm_true_stops_at_33_without_draws(self, monkeypatch):
        # QM says "yes" with certainty, so every walk stops at trial 33
        # whatever it would draw; it drew one 44-trial block per row before
        tally = counted_draws(monkeypatch)
        stops, codes, _ = replication_summaries(ghz_config(replications=100, max_trials=100_000))
        assert tally["draws"] == 0
        assert (stops == 33).all() and (codes == 1).all()

    @pytest.mark.parametrize("name", ["ghz", "q=1", "q=0"])
    def test_certain_outcomes_make_no_draw_call(self, name, monkeypatch):
        # QM true with q = 1 or 0: every outcome is certain, so no block is
        # drawn (TestBatchWalkerMatchesPerTrialWalk checks the stops against
        # the per-trial walk, which draws); run_trajectory still redraws its
        # outcomes from trial_stream
        tally = counted_draws(monkeypatch)
        cfg = walk_config(name, QM, max_trials=2_001, replications=300)
        replication_summaries(cfg)
        assert tally["rows"] == 0
        t = run_trajectory(cfg, 7)
        assert t.outcomes.tolist() == [cfg.resolved_pair().q == 1.0] * t.stop_trial

    def test_certain_walk_walks_one_row(self, monkeypatch):
        # ghz with QM true: the walk counts one row, whose columns every row
        # takes, and needs no generator, so none is built
        rows, yes_counts = [], simulate._yes_counts

        def counting(is_yes, *rest):
            rows.append(len(is_yes))
            return yes_counts(is_yes, *rest)

        def no_philox(*args, **kwargs):
            raise AssertionError("a certain walk built a Philox")

        monkeypatch.setattr(simulate, "_yes_counts", counting)
        monkeypatch.setattr(np.random, "Philox", no_philox)
        cfg = ghz_config(replications=10_000, max_trials=100_000)
        one = simulate._walk(cfg, 0, 1)
        for column, first in zip(replication_summaries(cfg), one, strict=True):
            assert column.dtype == first.dtype
            assert np.array_equal(column, np.full(10_000, first[0]))
        assert one[0].tolist() == [33] and one[1].tolist() == [1]
        assert rows == [1, 1]

    def test_a_walk_resolves_its_stop_rule_once(self, monkeypatch):
        # the certain walk's one-row walk and run_trajectory's outcome redraw
        # take the rule their caller resolved
        calls, stop_rule = [], simulate._stop_rule

        def counting(config):
            calls.append(config)
            return stop_rule(config)

        monkeypatch.setattr(simulate, "_stop_rule", counting)
        cfg = ghz_config(replications=1_000)
        replication_summaries(cfg)
        run_trajectory(cfg, 7)
        assert len(calls) == 2

    def test_a_drawing_walk_builds_one_philox(self, monkeypatch):
        # three chunks, one generator: Philox(master_seed), whose key is the
        # run's key
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        replication_summaries(walk_config("chained-k2", QM, replications=300))
        assert built == [(SEED,)]

    @pytest.mark.usefixtures("own_jobs")
    def test_a_wide_walk_builds_one_philox(self, monkeypatch):
        # LR-true walks whose blocks share their rows with the fill thread:
        # each walk builds Philox(master_seed), and the thread's generator,
        # whose seed no draw reads, is built once, on the first shared block
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        share_fills(monkeypatch, True)
        monkeypatch.setattr(np.random, "Philox", counting)
        for _ in range(2):
            replication_summaries(WIDE)
        assert built == [(SEED,), (0,), (SEED,)]

    def test_first_block_is_sized_from_the_drift(self, monkeypatch):
        # hardy with QM true draws; 1.25 x ln(1e4) / KL = 337.02 rounds up to 344
        tally = counted_draws(monkeypatch)
        cfg = walk_config("hardy-paper", QM, max_trials=100_000, replications=200)
        replication_summaries(cfg)
        width = simulate._sized_block(math.log(1e4), kl_per_trial(cfg.resolved_pair()))
        assert tally["first_widths"] == [width] * 200

    def test_continuation_blocks_cover_the_farthest_row(self, monkeypatch):
        # 1.53 draws per walked trial; doubling after the first block drew
        # 1.83, and doubling from _FIRST_BLOCK 1.79
        tally = counted_draws(monkeypatch)
        stops, _, _ = replication_summaries(walk_config("chained-k2", QM, max_trials=100_000, replications=200))
        assert tally["draws"] <= 1.65 * stops.sum()

    def test_lr_true_far_threshold_takes_few_blocks(self, monkeypatch):
        # walks of about 6k trials: with blocks sized from the drift and
        # capped at 6144 trials each row is drawn 1.4 times (14 rows; a
        # 2048-trial cap draws 34), doubling from _FIRST_BLOCK about 9.5
        tally = counted_draws(monkeypatch)
        replication_summaries(walk_config("chained-k2", LR, upper_threshold=1e100, max_trials=100_000, replications=10))
        assert tally["rows"] <= 2 * 10


def traced_peak(run, config: SimulationConfig) -> int:
    """Peak traced allocation of run(config), after a small warm-up run that
    fills the first-call caches."""
    run(replace(config, replications=200))
    tracemalloc.start()
    try:
        run(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_peak_does_not_grow_with_replications(self):
        # the walk's buffer is 2 x _BLOCK_FLOATS = 2 x 128 x 1024 floats
        # (2 MB) at any rep count; 20k reps add 24 bytes of results each.  A
        # walker that did not chunk would need 90 MB here.
        assert traced_peak(run_replications, walk_config("chained-k2", QM, replications=20_000)) <= 3_000_000

    def test_summaries_path_stays_within_the_same_bound(self):
        # the columns --dump-trajectories writes: no per-replication objects
        cfg = walk_config("chained-k2", QM, replications=20_000)
        assert traced_peak(lambda c: summarize(replication_summaries(c)), cfg) <= 3_000_000

    def test_a_long_lr_true_walk(self):
        # lr-long's shape: 10 walks of 3.5k-9k trials in blocks of up to
        # 6144, with the rule's count bounds cached by the warm-up (1.06 MB)
        cfg = walk_config("chained-k2", LR, upper_threshold=1e100, replications=10)
        assert traced_peak(run_replications, cfg) <= 3_000_000

    def test_a_walk_past_the_window_cache(self):
        # 49 windows of count bounds, more than the cache holds, so each run
        # builds them again, evicting its oldest (2.76 MB)
        cfg = SimulationConfig(HypothesisPair(0.5, 0.5), max_trials=300_000, master_seed=SEED, replications=3)
        assert cfg.max_trials > law._bound_window.cache_info().maxsize * law._WINDOW
        assert traced_peak(run_replications, cfg) <= 3_000_000

    def test_columns_at_many_replications(self):
        # ghz at 200k reps: the stops and finals take 3.2 MB, the walk's
        # buffer 2.1 MB, the int8 codes and a mask 0.2 MB each (5.71 MB in
        # all); int64 codes from a nested np.where reach 8.72 MB
        assert traced_peak(replication_summaries, ghz_config(replications=200_000, max_trials=100_000)) <= 6_500_000


class TestPinnedColumns:
    """The walker's columns over 468 configurations, hashed.  The digest was
    taken from the walker that compared float log D with the thresholds
    after every trial; its count bounds must decide and end every walk as
    that compare did, bit for bit."""

    DIGEST = "b4f2b94bfa322a06b43578b94ed7fc963b08e683c354e27df3eca52cd6bba0ae"
    SCENARIOS = [
        ScenarioSpec("ghz"),
        ScenarioSpec("chained", k=2),
        ScenarioSpec("chained", k=4),
        ScenarioSpec("chained", k=7),
        ScenarioSpec("hardy"),
        ScenarioSpec("hardy", hardy_mode="literal"),
        ScenarioSpec("hardy-naive"),
        *(HypothesisPair(q, r) for q, r in ((1.0, 0.1), (0.3, 0.7), (0.5, 0.5), (0.0, 0.4), (0.9, 1.0), (1.0, 0.5))),
    ]

    def test_sweep_digest(self):
        digest = hashlib.sha256()
        for scenario in self.SCENARIOS:
            for truth in (QM, LR):
                for thresholds in ((100.0, 0.01, 1e6), (100.0, 0.01, 1e100), (1.0, 0.25, 4.0)):
                    for max_trials in (30, 2_001, 100_000):
                        for seed in (0, 2**63):
                            cfg = SimulationConfig(scenario, truth, *thresholds, max_trials, seed, 40)
                            for stop, code, final in zip(*(c.tolist() for c in replication_summaries(cfg))):
                                digest.update(f"{stop} {code} {final.hex()}\n".encode())
        assert digest.hexdigest() == self.DIGEST


def columns(config: SimulationConfig) -> list[list]:
    """replication_summaries' stops, codes and finals, these as float.hex."""
    stops, codes, finals = replication_summaries(config)
    return [stops.tolist(), codes.tolist(), [final.hex() for final in finals.tolist()]]


def bounded(run, timeout: float = 120.0):
    """run() on a new thread, joined with a timeout, so that a deadlock fails
    the test instead of hanging it: run's result, or its exception raised here."""
    out = {}

    def target():
        try:
            out["result"] = run()
        except Exception as error:
            out["error"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"no return within {timeout} s"
    if "error" in out:
        raise out["error"]
    return out["result"]


def serial_and_shared(config: SimulationConfig, monkeypatch) -> tuple[list, list, list[int]]:
    """config's columns with no block's fill shared, then with every raw-word
    block of two rows or more sharing it, and the threads that filled rows
    in the second walk."""
    share_fills(monkeypatch, False)
    serial = columns(config)
    share_fills(monkeypatch, True)
    idents = filling_threads(monkeypatch)
    return serial, columns(config), idents


class TestSharedFill:
    """Raw-word blocks of two rows or more may post half their rows to the
    process's fill thread (simulate._fill_jobs), whose queue is
    simulate._JOBS[pid].  A row's words depend on its key and counter alone,
    so the walker's columns are the same, byte for byte, whichever thread
    draws which row, and whenever."""

    @pytest.mark.parametrize("truth", [QM, LR])
    @pytest.mark.parametrize("scenario", TestPinnedColumns.SCENARIOS, ids=repr)
    def test_pinned_scenarios_far_upper_threshold(self, scenario, truth, monkeypatch):
        cfg = SimulationConfig(scenario, truth, 100.0, 0.01, 1e100, 100_000, SEED, 40)
        serial, shared, _ = serial_and_shared(cfg, monkeypatch)
        assert shared == serial

    @pytest.mark.parametrize("replications", [2, 3, 41, 129])
    def test_row_counts(self, replications, monkeypatch):
        # odd halves, and at 129 a chunk of 128 rows (blocks of 1024 trials)
        # and one of a single row, which fills alone
        serial, shared, idents = serial_and_shared(replace(WIDE, replications=replications), monkeypatch)
        assert shared == serial
        assert len(set(idents)) == 2

    def test_max_trials_inside_a_shared_block(self, monkeypatch):
        # one 2504-trial block, whose walks end at trial 2500 at the latest
        serial, shared, idents = serial_and_shared(replace(WIDE, max_trials=2_500), monkeypatch)
        assert shared == serial
        assert 2_500 in serial[0] and len(set(idents)) == 2

    def test_an_error_on_the_helper_reaches_the_walk(self, monkeypatch):
        share_fills(monkeypatch, False)
        serial = columns(WIDE)
        share_fills(monkeypatch, True)
        fill, walkers = simulate._fill, []

        def failing(gen, key, indices, *rest):
            if threading.get_ident() not in walkers:
                raise RuntimeError("the helper's fill failed")
            return fill(gen, key, indices, *rest)

        def walk():
            walkers.append(threading.get_ident())
            return columns(WIDE)

        monkeypatch.setattr(simulate, "_fill", failing)
        with pytest.raises(RuntimeError, match="the helper's fill failed"):
            bounded(walk)
        monkeypatch.setattr(simulate, "_fill", fill)
        idents = filling_threads(monkeypatch)
        assert bounded(walk) == serial
        assert len(set(idents)) == 2

    def test_walks_on_several_threads_at_once(self, monkeypatch):
        # four user threads on the fill thread, switching every 10 us: a
        # block posted while another walk's job runs waits its turn
        configs = [replace(WIDE, master_seed=seed) for seed in range(4)]
        share_fills(monkeypatch, False)
        serial = [columns(cfg) for cfg in configs]
        share_fills(monkeypatch, True)
        results = [None] * len(configs)

        def work(i):
            results[i] = [columns(configs[i]) for _ in range(3)]

        threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(len(configs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[walk] * 3 for walk in serial]

    def test_a_walk_that_finds_the_fill_thread_busy_waits_its_turn(self, monkeypatch):
        # a job of the test's own holds the fill thread until the walk has
        # posted a block's other half behind it, then lets it go
        serial, _, idents = serial_and_shared(WIDE, monkeypatch)
        fill, held, release, reply = simulate._fill, threading.Event(), threading.Event(), queue.SimpleQueue()
        jobs = simulate._JOBS[os.getpid()]

        def holding(gen, key, *rest):
            if key is None:  # the test's job, on the fill thread
                held.set()
                assert release.wait(60)
                return None
            if held.is_set() and not jobs.empty():  # the walk's job waits its turn
                release.set()
            return fill(gen, key, *rest)

        monkeypatch.setattr(simulate, "_fill", holding)
        jobs.put(((None,), reply))
        assert held.wait(60)
        idents.clear()
        assert bounded(lambda: columns(WIDE)) == serial
        assert reply.get(timeout=60) is None
        assert len(set(idents)) == 2

    @pytest.mark.usefixtures("own_jobs")
    def test_racing_walks_publish_one_fill_thread(self, monkeypatch):
        # four user threads, released at once, may each start a fill thread
        # for their first shared block; one queue is published, and the
        # threads that lost stop their own before the walk goes on
        share_fills(monkeypatch, False)
        serial = columns(WIDE)
        share_fills(monkeypatch, True)
        start, results = threading.Barrier(4), [None] * 4

        def work(i):
            start.wait(60)
            results[i] = columns(WIDE)

        threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(4)]
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [serial] * 4
        assert threading.active_count() == before + 1
        assert list(simulate._JOBS) == [os.getpid()]

    @pytest.mark.usefixtures("own_jobs")
    def test_a_failed_thread_start_publishes_no_queue(self, monkeypatch):
        share_fills(monkeypatch, False)
        serial = columns(WIDE)
        share_fills(monkeypatch, True)
        start = threading.Thread.start

        def failing(self):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", failing)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            replication_summaries(WIDE)
        assert simulate._JOBS == {}
        monkeypatch.setattr(threading.Thread, "start", start)
        assert bounded(lambda: columns(WIDE)) == serial
        assert list(simulate._JOBS) == [os.getpid()]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_helper(self, monkeypatch):
        serial, shared, _ = serial_and_shared(WIDE, monkeypatch)
        parent = simulate._JOBS[os.getpid()]
        assert shared == serial
        with warnings.catch_warnings():
            # from Python 3.12 os.fork warns that the child of a process with
            # threads may deadlock: the child gets none of them, the fill
            # thread included, which is what this test is about
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            status = 1
            try:
                idents = filling_threads(monkeypatch)
                helped = columns(WIDE) == serial and len(set(idents)) == 2
                status = 0 if helped and simulate._JOBS[os.getpid()] is not parent else 1
            finally:
                os._exit(status)
        deadline = time.monotonic() + 120
        while (waited := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if waited[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's walk did not return within 120 s")
        assert os.waitstatus_to_exitcode(waited[1]) == 0

    @pytest.mark.parametrize(
        "gate, config",
        [
            ({"_SPLIT_DRAWS": 2**62}, WIDE),
            ({"_CPUS": 1}, WIDE),
            ({}, replace(WIDE, replications=1)),
            ({}, walk_config("chained-k2", QM, replications=100)),  # blocks below _RAW_WIDTH
        ],
        ids=["few-draws", "one-cpu", "one-row", "narrow"],
    )
    @pytest.mark.usefixtures("own_jobs")
    def test_a_walk_the_gate_keeps_alone_starts_no_thread(self, gate, config, monkeypatch):
        share_fills(monkeypatch, True)
        for name, value in gate.items():
            monkeypatch.setattr(simulate, name, value)
        threads = threading.active_count()
        replication_summaries(config)
        assert threading.active_count() == threads
        assert simulate._JOBS == {}

    @pytest.mark.usefixtures("own_jobs")
    def test_the_first_shared_block_starts_the_helper(self, monkeypatch):
        share_fills(monkeypatch, True)
        threads = threading.active_count()
        for _ in range(2):
            replication_summaries(WIDE)
        assert threading.active_count() == threads + 1
        assert list(simulate._JOBS) == [os.getpid()]
