"""Sequential-experiment simulations: deterministic walks, statistical
convergence against closed-form oracles, and the determinism contract."""

import bisect
import hashlib
import itertools
import math
import threading
import tracemalloc
import warnings
from dataclasses import replace

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


def gap_table(p_rare: float) -> list[float]:
    """T_1..T_L: (1 - p_rare)**t by repeated float multiplication, up to the
    first t with T_t <= 2**-53 (the least positive draw) or
    simulate._GAP_CAP terms."""
    factor, power, table = 1.0 - p_rare, 1.0, []
    while len(table) < simulate._GAP_CAP and power > 2.0**-53:
        power *= factor
        table.append(power)
    return table


def stream_draws(seed: int, index: int):
    """The doubles replication index reads, one at a time: its head, the
    simulate._HEAD doubles of Philox(seed) advanced 2**192 + 16 * index
    counter steps, then its trial_stream."""
    yield from np.random.Generator(np.random.Philox(seed).advance(2**192 + 16 * index)).random(simulate._HEAD).tolist()
    rng = trial_stream(seed, index)
    while True:
        yield from rng.random(64).tolist()


def expand_gaps(draws, p_true: float, trials: int) -> np.ndarray:
    """The first trials outcomes ("yes" True) of a row whose doubles are
    draws: per draw u, G = #{t : u < T_t} outcomes of the majority, then one
    of the rarer outcome unless G is the table's length L.  The rarer
    outcome is "yes" at p_true <= 1/2; at p_true 0 or 1 nothing is drawn."""
    rare = p_true <= 0.5
    outcomes = np.full(trials, not rare)
    if p_true in (0.0, 1.0):
        return outcomes
    table = gap_table(p_true if rare else 1.0 - p_true)
    rising = [-power for power in table]
    n = 0
    for u in draws:  # up to the draw whose gap reaches the last trial
        g = bisect.bisect_left(rising, -u)  # the t with -T_t < -u
        n += g
        if g < len(table):
            if n < trials:
                outcomes[n] = rare
            n += 1
        if n >= trials:
            break
    return outcomes


def row_outcomes(config: SimulationConfig, index: int, trials: int | None = None) -> np.ndarray:
    """Replication index's first trials outcomes (all max_trials by
    default), expanded from its doubles (stream_draws)."""
    pair = config.resolved_pair()
    p_true = pair.q if config.true_theory == QM else pair.r
    return expand_gaps(stream_draws(config.master_seed, index), p_true, trials or config.max_trials)


def reference_walk(config: SimulationConfig, index: int) -> tuple[int, str]:
    """One trial at a time with a running float sum over the row's expanded
    gaps: the per-trial walk the batch walker replaces, kept as its oracle
    for stopping trials and decisions."""
    pair = config.resolved_pair()
    step_yes = log_bayes_factor(pair, TrialTally(1, 1))
    step_no = log_bayes_factor(pair, TrialTally(1, 0))
    hi = math.log(config.prior_odds / config.lower_threshold)
    lo = math.log(config.prior_odds / config.upper_threshold)
    cum = 0.0
    for trial, is_yes in enumerate(row_outcomes(config, index).tolist(), 1):
        step = step_yes if is_yes else step_no
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
        rule = simulate._resolved_rule(cfg)
        for index in INDICES:
            stops, codes, _ = simulate._walk(rule, cfg.master_seed, index, index + 1)
            got = (int(stops[0]), simulate._DECISIONS[codes[0]])
            assert got == reference_walk(cfg, index), (seed, index)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trial_stream_is_the_jumped_master_stream(self, seed):
        for index in INDICES:
            jumped = np.random.Generator(np.random.Philox(seed).jumped(index))
            assert np.array_equal(trial_stream(seed, index).random(16), jumped.random(16)), (seed, index)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("start", [0, 4, 60, 64, 1000])
    def test_fill_reads_the_head_then_the_trial_stream(self, seed, start):
        # runs of consecutive replications between gaps, up to the last index
        indices = [0, 1, 2, 5, 99, 100, 101, 2**31, 2**32 - 2, 2**32 - 1]
        gen = np.random.Generator(np.random.Philox(1))  # the draws take only the key
        key = np.random.Philox(seed).state["state"]["key"].tolist()
        for width in (4, 8, 60, 64, 68, 200):
            expected = [list(itertools.islice(stream_draws(seed, i), start, start + width)) for i in indices]
            assert simulate._fill(gen, key, indices, start, np.empty((len(indices), width))).tolist() == expected, width


GAP_PS = [
    0.5,
    0.45,
    0.25,
    hardy_q(),
    chained_pair(2).q,
    chained_pair(4).q,
    hardy_optimize_r().r_opt,
    1e-3,
    1e-6,
    2.0**-60,  # 1 - p rounds to 1: every draw is a run of L
]


def gaps(table: np.ndarray, scale: float, draws: np.ndarray) -> np.ndarray:
    return simulate._gaps(table, scale, draws, np.empty(draws.shape, dtype=np.int64))


class TestGaps:
    """simulate._gap_table and _gaps against the repeated product and a
    bisection of it."""

    @pytest.mark.parametrize("p", GAP_PS)
    def test_table_is_the_repeated_product(self, p):
        table, scale = simulate._gap_table(p)
        assert table[0] == math.inf and table[-1] == 0.0 and not table.flags.writeable
        assert table[1:-1].tolist() == gap_table(p)
        assert scale == 1.0 / math.log1p(-p)

    @pytest.mark.parametrize("p", GAP_PS)
    def test_gaps_count_the_terms_above_the_draw(self, p):
        # random draws, 0.0, and every term of the table with its neighbours
        table, scale = simulate._gap_table(p)
        terms = table[1:-1]
        draws = np.concatenate((
            np.random.default_rng(7).random(2_000),
            [0.0, 2.0**-53, 0.5, math.nextafter(1.0, 0.0)],
            terms[:500], np.nextafter(terms[:500], 0.0), np.nextafter(terms[:500], 1.0),
        ))
        draws = draws[draws < 1.0]
        rising = [-term for term in terms.tolist()]
        expected = [bisect.bisect_left(rising, -u) for u in draws.tolist()]
        assert gaps(table, scale, draws).tolist() == expected
        assert gaps(table, scale, draws.reshape(1, -1))[0].tolist() == expected

    def test_a_draw_of_zero_is_a_run_of_the_whole_table(self):
        for p in GAP_PS:
            table, scale = simulate._gap_table(p)
            assert gaps(table, scale, np.zeros(4)).tolist() == [table.size - 2] * 4

    @pytest.mark.parametrize("rare_yes", [True, False])
    @pytest.mark.parametrize("p", GAP_PS[:-1])
    def test_outcomes_expand_the_gaps(self, p, rare_yes):
        # run_trajectory's outcomes, with "yes" the rarer outcome or "no",
        # counted as law._stop_rule counts them; at p = 1/2 "no" is counted
        # at a p_true one double above 1/2
        p_true = p if rare_yes else max(1.0 - p, math.nextafter(0.5, 1.0))
        counted_yes = p_true <= 0.5
        trials = 5_000
        got = simulate._outcomes(SEED, 3, p_true if counted_yes else 1.0 - p_true, counted_yes, trials)
        assert np.array_equal(got, expand_gaps(stream_draws(SEED, 3), p_true, trials))

    def test_table_length(self):
        # the first power at or below 2**-53: t = 53 at p = 1/2, and the cap
        # at p = 1e-6, whose powers stay near 1
        assert simulate._gap_table(0.5)[0].size - 2 == 53
        assert simulate._gap_table(1e-6)[0].size - 2 == simulate._GAP_CAP


def count_formula_walk(config: SimulationConfig, outcomes: np.ndarray) -> tuple[int, str, str]:
    """Trial by trial over a row's outcomes (its first max_trials), log D
    from the counts: m * step_yes + (n - m) * step_no after n trials with m
    "yes", in float64, against the thresholds after every trial.  Returns
    the stop, the decision and the final log D in hex, to be matched bit for
    bit.  The trials go in slices, so walks of 10**7 trials fit in memory."""
    pair = config.resolved_pair()
    step_yes = log_bayes_factor(pair, TrialTally(1, 1))
    step_no = log_bayes_factor(pair, TrialTally(1, 0))
    # an infinite step's outcome ends the walk, so until then its count is 0
    yes, no = (step if math.isfinite(step) else 0.0 for step in (step_yes, step_no))
    hi = math.log(config.prior_odds / config.lower_threshold)
    lo = math.log(config.prior_odds / config.upper_threshold)
    count = 0.0
    for first in range(0, config.max_trials, 2**16):
        chunk = outcomes[first : first + 2**16]
        m = count + np.cumsum(chunk, dtype=np.float64)
        n = np.arange(first + 1, first + 1 + chunk.size, dtype=np.float64)
        log_d = m * yes + (n - m) * no
        falsified = (chunk & math.isinf(step_yes)) | (~chunk & math.isinf(step_no))
        stop = falsified | (log_d >= hi) | (log_d <= lo)
        if stop.any():
            j = int(stop.argmax())
            if falsified[j]:
                step = step_yes if chunk[j] else step_no
                return first + j + 1, LR_REJECTED if step > 0 else QM_REJECTED, step.hex()
            return first + j + 1, LR_REJECTED if log_d[j] >= hi else QM_REJECTED, float(log_d[j]).hex()
        count = m[-1]
    return config.max_trials, INCONCLUSIVE, float(log_d[-1]).hex()


def gap_walk(config: SimulationConfig, index: int) -> tuple[int, str, str]:
    """count_formula_walk of replication index's expanded gaps."""
    return count_formula_walk(config, row_outcomes(config, index))


def batch_walk(config: SimulationConfig) -> list[tuple[int, str, str]]:
    stops, codes, finals = simulate._walk(simulate._resolved_rule(config), config.master_seed, 0, config.replications)
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


#: Both orientations of the rarer outcome, both falsifier kinds, a pair
#: at p = 1/2 and a close pair
GAP_SWEEP = {
    "qm-0.7-0.4": (HypothesisPair(0.7, 0.4), QM),  # "no" is rarer
    "lr-0.3-0.6": (HypothesisPair(0.3, 0.6), LR),  # "yes" is rarer
    "qm-hardy-naive": (ScenarioSpec("hardy-naive"), QM),  # the rarer "yes" falsifies LR
    "lr-1-0.75": (HypothesisPair(1.0, 0.75), LR),  # the rarer "no" falsifies QM
    "qm-0.5-0.8": (HypothesisPair(0.5, 0.8), QM),  # "yes" is taken as the rarer at 1/2
    "qm-0.45-0.5": (HypothesisPair(0.45, 0.5), QM),
    "lr-0.45-0.5": (HypothesisPair(0.45, 0.5), LR),
}


class TestCountFormulaWalk:
    @pytest.mark.parametrize("truth", [QM, LR])
    @pytest.mark.parametrize("name", list(SCENARIOS) + list(OVERRIDES))
    @pytest.mark.parametrize("max_trials", [30, 2_001])
    def test_matches_the_walker_bitwise(self, name, truth, max_trials):
        cfg = walk_config(name, truth, max_trials=max_trials, replications=20)
        assert batch_walk(cfg) == [gap_walk(cfg, i) for i in range(20)]

    @pytest.mark.parametrize("name", list(GAP_SWEEP))
    @pytest.mark.parametrize("max_trials", [40, 2_001])
    def test_the_gap_sweep(self, name, max_trials):
        scenario, truth = GAP_SWEEP[name]
        cfg = SimulationConfig(scenario, truth, max_trials=max_trials, master_seed=SEED, replications=40)
        assert batch_walk(cfg) == [gap_walk(cfg, i) for i in range(40)]

    @pytest.mark.parametrize("truth", [QM, LR])
    def test_a_tiny_rare_probability_past_the_table_cap(self, truth):
        # p = 1e-6 or 2e-6: almost every draw is a run of the whole table,
        # 4096 trials, and the walks reach the horizon at 10**7 trials
        cfg = SimulationConfig(HypothesisPair(1e-6, 2e-6), truth, max_trials=10**7, master_seed=SEED, replications=3)
        walks = batch_walk(cfg)
        assert walks == [gap_walk(cfg, i) for i in range(3)]
        assert {decision for _, decision, _ in walks} == {INCONCLUSIVE}

    def test_a_p_that_is_neither_q_nor_r(self):
        # the ghz pair (1, 0.75) walked at p = 0.9: "no", rarer at p, is
        # counted and falsifies QM, so the drift is -inf; a walk of 33 "yes"
        # rejects LR, one "no" before that rejects QM, so P(QM rejected) is
        # 1 - 0.9**33 = 0.96910
        reps, p = 20_000, 0.9
        cfg = SimulationConfig(ScenarioSpec("ghz"), max_trials=1_000, master_seed=SEED, replications=reps)
        rule = law._stop_rule(cfg.resolved_pair(), p, cfg.prior_odds, cfg.lower_threshold, cfg.upper_threshold,
                              cfg.max_trials)
        p_rare, counted_yes, (*_, falsifier, _), drift = rule
        assert (p_rare, counted_yes, falsifier, drift) == (1.0 - p, False, True, -math.inf)
        stops, codes, finals = simulate._walk(rule, SEED, 0, reps)
        qm_rejected = codes == 2
        assert (finals[qm_rejected] == -math.inf).all() and (stops[qm_rejected] <= 33).all()
        assert (stops[codes == 1] == 33).all() and (codes != 0).all()
        share, exact = qm_rejected.mean(), 1.0 - p**33
        assert abs(share - exact) <= 4 * math.sqrt(exact * (1.0 - exact) / reps), share
        walks = [(stop, simulate._DECISIONS[code], final.hex())
                 for stop, code, final in zip(stops[:20].tolist(), codes[:20].tolist(), finals[:20].tolist())]
        assert walks == [count_formula_walk(cfg, expand_gaps(stream_draws(SEED, i), p, cfg.max_trials))
                         for i in range(20)]

    @pytest.mark.parametrize("pair", [HypothesisPair(0.001, 0.0), HypothesisPair(0.999, 1.0)])
    def test_a_falsifier_drawn_late(self, pair):
        # QM true and an infinite drift, so blocks double from _FIRST_BLOCK;
        # the outcome LR forbids ("yes" at r = 0, "no" at r = 1) is the rarer
        # one, once in 1000 trials, so some walks end on it after many blocks
        cfg = SimulationConfig(pair, QM, max_trials=4_001, master_seed=SEED, replications=20)
        walks = batch_walk(cfg)
        assert walks == [gap_walk(cfg, i) for i in range(20)]
        assert any(stop > 960 and decision == LR_REJECTED for stop, decision, _ in walks)

    @pytest.mark.parametrize("name", ["chained-k2", "hardy-naive", "q=r", "q<r", "r=1"])
    @pytest.mark.parametrize("truth", [QM, LR])
    def test_draws_of_zero(self, name, truth, monkeypatch):
        # every row's first draw and its 11th are 0.0, a run of the whole
        # table with no rare outcome; np.log(0.0) would warn
        fill = simulate._fill

        def zeroing(gen, key, indices, start, out):
            rows = fill(gen, key, indices, start, out)
            for j in (0, 10):
                if 0 <= j - start < out.shape[1]:
                    rows[:, j - start] = 0.0
            return rows

        monkeypatch.setattr(simulate, "_fill", zeroing)
        cfg = walk_config(name, truth, max_trials=2_001, replications=20)
        p_true = cfg.resolved_pair().q if truth == QM else cfg.resolved_pair().r
        expected = []
        for i in range(20):
            draws = stream_draws(SEED, i)
            zeroed = (0.0 if j in (0, 10) else u for j, u in enumerate(draws))
            expected.append(count_formula_walk(cfg, expand_gaps(zeroed, p_true, cfg.max_trials)))
        assert batch_walk(cfg) == expected

    @pytest.mark.parametrize("index", [i for i in range(20) if next(stream_draws(SEED, i)) >= 0.5][:4])
    def test_a_first_draw_on_the_first_term(self, index):
        # p = 1 - u for the walk's first draw u >= 1/2, so T_1 = u and the
        # first gap is 0: trial 1 is "yes", the rarer outcome; with T_1 one
        # double above u the draw is below it, and trial 1 is "no"
        u = next(stream_draws(SEED, index))
        firsts = []
        for p in (1.0 - u, 1.0 - math.nextafter(u, 1.0)):
            cfg = SimulationConfig(HypothesisPair(p, 0.99 * p), QM, max_trials=10_000, master_seed=SEED,
                                   replications=index + 1)
            assert batch_walk(cfg)[index] == gap_walk(cfg, index)
            firsts.append(bool(run_trajectory(cfg, index).outcomes[0]))
        assert firsts == [True, False]

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
                assert walks == [gap_walk(cfg, j) for j in range(cfg.replications)]
                assert (walks[i] == base_walks[i]) == stops_there, (i, target)

    @pytest.mark.parametrize("truth", [QM, LR])
    def test_trial_cap_inside_a_run(self, truth, monkeypatch):
        # zero drift, so no walk reaches a threshold: each stops at the cap,
        # most inside a gap's run; no block draws more than the trials the
        # cap leaves its rows
        tally = counted_draws(monkeypatch)
        cfg = walk_config("q=r", truth, max_trials=190, replications=20)
        walks = batch_walk(cfg)
        assert walks == [gap_walk(cfg, i) for i in range(20)]
        assert {(stop, decision) for stop, decision, _ in walks} == {(190, INCONCLUSIVE)}
        assert all(width <= 192 for width in tally["widths"])

    @pytest.mark.parametrize("truth", [QM, LR])
    def test_trial_cap_on_a_rare_outcome(self, truth):
        # the cap on row 3's 20th rare outcome, which ends its walk there
        cfg = walk_config("q=r", truth, max_trials=2_001, replications=8)
        trial = int(np.flatnonzero(row_outcomes(cfg, 3) == (cfg.resolved_pair().q <= 0.5))[19]) + 1
        cfg = replace(cfg, max_trials=trial)
        walks = batch_walk(cfg)
        assert walks == [gap_walk(cfg, i) for i in range(8)]
        assert walks[3][:2] == (trial, INCONCLUSIVE)


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

    @pytest.mark.parametrize("name", ["chained-k4", "q<r", "r=1"])
    def test_outcomes_are_the_expanded_gaps(self, name):
        cfg = walk_config(name, QM, max_trials=3_000, replications=3)
        t = run_trajectory(cfg, 2)
        assert np.array_equal(t.outcomes, row_outcomes(cfg, 2, t.stop_trial))

    @pytest.mark.parametrize("truth", [QM, LR])
    @pytest.mark.parametrize("name", ["chained-k2", "hardy-naive", "ghz", "q=r", "r=1", "q=0"])
    def test_independent_of_chunk_and_block_layout(self, name, truth, monkeypatch):
        # blocks sized from the drift, and doubling blocks where the drift
        # is 0 (q=r) or infinite (hardy-naive, r=1 QM true; ghz, q=0 LR true)
        assert_layout_free(walk_config(name, truth, max_trials=2_001, replications=50), monkeypatch)

    def test_independent_of_the_sized_continuation_blocks(self, monkeypatch):
        # walks of about 6k trials, so under the small caps most blocks are
        # continuations sized from the farthest live row, some cut to the
        # float cap while many rows live and some narrower than it
        cfg = walk_config("chained-k2", LR, upper_threshold=1e100, max_trials=10_000, replications=30)
        assert_layout_free(cfg, monkeypatch)


def assert_layout_free(config: SimulationConfig, monkeypatch) -> None:
    """The walker's columns do not change when small caps cut the walk into
    many more chunks and blocks, and count tables past 48 counts are built
    for each block."""
    default = replication_summaries(config)
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(simulate, "_FIRST_BLOCK", 4)
    monkeypatch.setattr(simulate, "_BLOCK_FLOATS", 7 * 4 * 2)
    monkeypatch.setattr(simulate, "_TABLE_COUNTS", 48)
    layout = replication_summaries(config)
    assert all(np.array_equal(a, b) for a, b in zip(layout, default, strict=True))


def counted_draws(monkeypatch) -> dict:
    """Wraps simulate._fill; the returned tally counts the rows it filled
    (one per live replication per block) and the draws it made, and lists
    the widths of its blocks and of the rows it filled from the first draw."""
    tally = {"rows": 0, "draws": 0, "widths": [], "first_widths": []}
    fill = simulate._fill

    def counting(gen, key, indices, start, out):
        width = out.shape[1]
        tally["rows"] += len(indices)
        tally["draws"] += len(indices) * width
        tally["widths"].append(width)
        if start == 0:
            tally["first_widths"] += [width] * len(indices)
        return fill(gen, key, indices, start, out)

    monkeypatch.setattr(simulate, "_fill", counting)
    return tally


#: lr-long's shape: 10 walks of 3.5k-9k trials
WIDE = walk_config("chained-k2", LR, upper_threshold=1e100, replications=10)


class TestDrawsPerReplication:
    def test_ghz_qm_true_stops_at_33_without_draws(self, monkeypatch):
        # QM says "yes" with certainty, so every walk stops at trial 33
        # whatever it would draw
        tally = counted_draws(monkeypatch)
        stops, codes, _ = replication_summaries(ghz_config(replications=100, max_trials=100_000))
        assert tally["draws"] == 0
        assert (stops == 33).all() and (codes == 1).all()

    @pytest.mark.parametrize("name", ["ghz", "q=1", "q=0"])
    def test_certain_outcomes_make_no_draw_call(self, name, monkeypatch):
        # QM true with q = 1 or 0: every outcome is certain, so no block is
        # drawn (TestBatchWalkerMatchesPerTrialWalk checks the stops against
        # the per-trial walk); run_trajectory's outcomes are the certain one
        tally = counted_draws(monkeypatch)
        cfg = walk_config(name, QM, max_trials=2_001, replications=300)
        replication_summaries(cfg)
        assert tally["rows"] == 0
        t = run_trajectory(cfg, 7)
        assert t.outcomes.tolist() == [cfg.resolved_pair().q == 1.0] * t.stop_trial

    def test_certain_walk_walks_one_row(self, monkeypatch):
        # ghz with QM true: the walk reads one row's stop off the count
        # tables, R[0], and every row takes that row's columns; it needs no
        # generator, so none is built
        rows, cached_tables = [], simulate._cached_tables

        def counting(rule, size):
            rows.append(size)
            return cached_tables(rule, size)

        def no_philox(*args, **kwargs):
            raise AssertionError("a certain walk built a Philox")

        monkeypatch.setattr(simulate, "_cached_tables", counting)
        monkeypatch.setattr(np.random, "Philox", no_philox)
        cfg = ghz_config(replications=10_000, max_trials=100_000)
        one = simulate._walk(simulate._resolved_rule(cfg), cfg.master_seed, 0, 1)
        for column, first in zip(replication_summaries(cfg), one, strict=True):
            assert column.dtype == first.dtype
            assert np.array_equal(column, np.full(10_000, first[0]))
        assert one[0].tolist() == [33] and one[1].tolist() == [1]
        assert rows == [1, 1]

    def test_a_walk_resolves_its_stop_rule_once(self, monkeypatch):
        # the certain walk's one-row walk and run_trajectory's outcome
        # expansion take the rule their caller resolved
        calls, stop_rule = [], simulate._stop_rule

        def counting(*args):
            calls.append(args)
            return stop_rule(*args)

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

    def test_a_wide_walk_builds_one_philox(self, monkeypatch):
        # LR-true walks of several blocks each: each walk builds
        # Philox(master_seed), and nothing else builds one
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        for _ in range(2):
            replication_summaries(WIDE)
        assert built == [(SEED,), (SEED,)]

    def test_a_first_block_sets_the_philox_state_once(self, monkeypatch):
        # chained k=2 with QM true: the first block is 64 draws a row, the
        # heads of replications 0..99, one counter range from (0, 0, 0, 1)
        counters, firsts, philox, fill = [], [], np.random.Philox, simulate._fill

        class Philox(philox):  # the state setter checks the class name
            @property
            def state(self):
                return philox.state.__get__(self)

            @state.setter
            def state(self, value):
                counters.append(list(value["state"]["counter"]))
                philox.state.__set__(self, value)

        def first_block(gen, key, indices, start, out):
            before = len(counters)
            draws = fill(gen, key, indices, start, out)
            if start == 0:
                firsts.append((out.shape[1], counters[before:]))
            return draws

        monkeypatch.setattr(np.random, "Philox", Philox)
        monkeypatch.setattr(simulate, "_fill", first_block)
        replication_summaries(walk_config("chained-k2", QM, replications=100))
        assert firsts == [(64, [[0, 0, 0, 1]])]

    def test_first_block_is_sized_from_the_drift(self, monkeypatch):
        # hardy with QM true draws; 1.5 x q x ln(1e4) / KL = 36.47 rounds up to 40
        tally = counted_draws(monkeypatch)
        cfg = walk_config("hardy-paper", QM, max_trials=100_000, replications=200)
        replication_summaries(cfg)
        width = simulate._sized_block(math.log(1e4), kl_per_trial(cfg.resolved_pair()), cfg.resolved_pair().q)
        assert tally["first_widths"] == [width] * 200

    def test_continuation_blocks_cover_the_farthest_row(self, monkeypatch):
        # 1.75 draws per draw a walk reads; doubling after the first block
        # drew 1.97
        tally = counted_draws(monkeypatch)
        cfg = walk_config("chained-k2", QM, max_trials=100_000, replications=200)
        stops, _, _ = replication_summaries(cfg)
        read = 0
        for i, stop in enumerate(stops.tolist()):
            draws = list(itertools.islice(stream_draws(SEED, i), stop))  # at least a trial a draw
            unread = iter(draws)
            expand_gaps(unread, cfg.resolved_pair().q, stop)
            read += len(draws) - sum(1 for _ in unread)
        assert tally["draws"] <= 1.85 * read

    def test_lr_true_far_threshold_takes_few_blocks(self, monkeypatch):
        # walks of about 6k trials, 1.5k draws: with blocks sized from the
        # drift each row is filled 1.2 times (12 rows; a 512-draw cap fills
        # 35)
        tally = counted_draws(monkeypatch)
        replication_summaries(walk_config("chained-k2", LR, upper_threshold=1e100, max_trials=100_000, replications=10))
        assert tally["rows"] <= 2 * 10

    def test_one_row_builds_only_counts_past_the_cached_tables(self, monkeypatch):
        # one row of (0.45, 0.5) under LR to 1e100 counts about 23.5k "yes"
        # in blocks of up to 16k draws; a block stops at the last counts the
        # cached tables hold, so the walk builds none of them again
        starts, count_tables = [], simulate._count_tables

        def counting(rule, start, stop):
            starts.append(start)
            return count_tables(rule, start, stop)

        monkeypatch.setattr(simulate, "_count_tables", counting)
        cfg = SimulationConfig(HypothesisPair(0.45, 0.5), LR, upper_threshold=1e100, max_trials=10**7, replications=1)
        replication_summaries(cfg)
        assert starts and min(starts) >= law._TABLE_COUNTS - 4


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
        # a block is at most _BLOCK_FLOATS = 16k draws, in the thread's
        # buffers (128 kB for each float64 or int64 one, 64 kB of heads),
        # which the warm-up built, at any rep count; 20k reps add 32 bytes
        # of results each (0.87 MB in all).  A walker that did not chunk
        # would need 90 MB here.
        assert traced_peak(run_replications, walk_config("chained-k2", QM, replications=20_000)) <= 3_000_000

    def test_summaries_path_stays_within_the_same_bound(self):
        # the columns --dump-trajectories writes: no per-replication objects
        cfg = walk_config("chained-k2", QM, replications=20_000)
        assert traced_peak(lambda c: summarize(replication_summaries(c)), cfg) <= 3_000_000

    def test_a_long_lr_true_walk(self):
        # lr-long's shape: 10 walks of 3.5k-9k trials in blocks of up to
        # 1636 draws a row, with the rule's count tables cached by the
        # warm-up (6 kB)
        cfg = walk_config("chained-k2", LR, upper_threshold=1e100, replications=10)
        assert traced_peak(run_replications, cfg) <= 3_000_000

    def test_a_walk_past_the_cached_count_tables(self):
        # about 150k "yes" outcomes a walk, far past the counts the cached
        # tables hold, so each block past them builds the counts it reaches
        # (0.36 MB)
        cfg = SimulationConfig(HypothesisPair(0.5, 0.5), max_trials=300_000, master_seed=SEED, replications=3)
        assert cfg.max_trials > 4 * law._TABLE_COUNTS
        assert traced_peak(run_replications, cfg) <= 3_000_000

    def test_a_warmed_walk_allocates_no_block(self):
        # lr-long's shape again: after the warm-up every block is a view of
        # the thread's buffers, so the walk allocates less than one
        # 16k-draw int64 array (6 kB; 0.85 MB with blocks allocated per
        # walk).  numpy's cast buffers count too: a bool -> int64 cumsum
        # into out= allocates 128 kB
        assert traced_peak(run_replications, WIDE) < 131_072

    def test_columns_at_many_replications(self):
        # ghz at 200k reps: one row walks, and the stops and finals take
        # 3.2 MB, the int8 codes 0.2 MB (3.40 MB in all); int64 codes from
        # a nested np.where reached 8.72 MB
        assert traced_peak(replication_summaries, ghz_config(replications=200_000, max_trials=100_000)) <= 6_500_000


class TestWorkspace:
    def test_each_thread_walks_in_its_own_buffers(self, monkeypatch):
        # two threads walk different configurations at once, each waiting
        # after its first block's draws until the other has drawn its own:
        # in shared block buffers the later draws would replace the earlier
        configs = [WIDE, walk_config("chained-k2", QM, replications=300)]
        alone = [replication_summaries(cfg) for cfg in configs]
        barrier, waited, fill = threading.Barrier(len(configs)), set(), simulate._fill

        def waiting(gen, key, indices, start, out):
            draws = fill(gen, key, indices, start, out)
            if threading.get_ident() not in waited:
                waited.add(threading.get_ident())
                barrier.wait(timeout=30)
            return draws

        monkeypatch.setattr(simulate, "_fill", waiting)
        walks: dict = {}
        threads = [threading.Thread(target=lambda i=i: walks.update({i: replication_summaries(configs[i])}))
                   for i in range(len(configs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(walks) == list(range(len(configs)))
        for i, columns in enumerate(alone):
            assert all(np.array_equal(a, b) for a, b in zip(walks[i], columns, strict=True)), i


class TestPinnedColumns:
    """The walker's columns over 468 configurations, hashed.  The digest was
    taken from the gap walker, whose count tables TestCountFormulaWalk checks
    against a per-trial walk of the same gaps; on any numpy the gaps and the
    tables must decide and end every walk as they did, bit for bit."""

    DIGEST = "efc0ab95804b0e92c4c9a7d9a901228b6ce69c275e05f887c87cf30d0e9e660c"
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
