"""Sequential-experiment simulations: deterministic walks, statistical
convergence against closed-form oracles, and the determinism contract."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bellodds import simulate
from bellodds.bayes import HypothesisPair, TrialTally, kl_per_trial, log_bayes_factor, required_trials
from bellodds.scenarios import ScenarioSpec, chained_pair, hardy_q
from bellodds.simulate import (
    INCONCLUSIVE,
    LR,
    LR_REJECTED,
    QM,
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
        with pytest.raises(ValueError):
            ghz_config(scenario=HypothesisPair(0.0, 0.0))
        with pytest.raises(ValueError):
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
    step_yes = log_bayes_factor(pair, TrialTally(1, 1)).log_value
    step_no = log_bayes_factor(pair, TrialTally(1, 0)).log_value
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


def count_formula_walk(config: SimulationConfig, index: int) -> tuple[int, str, str]:
    """One trial at a time, log D from the counts: m * step_yes + (n - m) *
    step_no after n trials with m "yes", in Python floats, against the
    thresholds after every trial.  Returns the stop, the decision and the
    final log D in hex, to be matched bit for bit."""
    pair = config.resolved_pair()
    p_true = pair.q if config.true_theory == QM else pair.r
    step_yes = log_bayes_factor(pair, TrialTally(1, 1)).log_value
    step_no = log_bayes_factor(pair, TrialTally(1, 0)).log_value
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
    @pytest.mark.parametrize("width", [8, 16, 24, 344, 2048])
    @pytest.mark.parametrize("kind", ["all-False", "all-True", "random"])
    def test_matches_cumsum(self, rows, width, kind):
        rng = np.random.default_rng(width * rows)
        is_yes = {
            "all-False": np.zeros((rows, width), dtype=bool),
            "all-True": np.ones((rows, width), dtype=bool),
            "random": rng.random((rows, width)) < 0.3,
        }[kind]
        self.assert_counts(is_yes, rng.integers(0, 10_000, rows).astype(np.float64))

    @pytest.mark.parametrize("width", [8, 2048])
    def test_counts_near_2_53(self, width):
        # an all-True row ends on 2**53 exactly, the largest count the walk keeps
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
            assert final == log_bayes_factor(pair, tally).log_value
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
    monkeypatch.setattr(simulate, "_BLOCK_FLOATS", 7 * 8 * 2)
    assert all(np.array_equal(a, b) for a, b in zip(replication_summaries(config), default, strict=True))


def counted_draws(monkeypatch) -> dict:
    """Wraps simulate._draw; the returned tally counts the rows it filled
    (one per live replication per block) and the draws it made, and lists
    the widths of the rows it filled from trial 1."""
    tally = {"rows": 0, "draws": 0, "first_widths": []}
    draw = simulate._draw

    def counting(gen, key, indices, done, draws):
        tally["rows"] += len(indices)
        tally["draws"] += draws.size
        if done == 0:
            tally["first_widths"] += [draws.shape[1]] * len(indices)
        draw(gen, key, indices, done, draws)

    monkeypatch.setattr(simulate, "_draw", counting)
    return tally


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
        # walks of about 6k trials: with blocks sized from the drift each
        # row is drawn about 3.5 times, doubling from _FIRST_BLOCK about 9.5
        tally = counted_draws(monkeypatch)
        replication_summaries(walk_config("chained-k2", LR, upper_threshold=1e100, max_trials=100_000, replications=10))
        assert tally["rows"] <= 5 * 10


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

    def test_columns_at_many_replications(self):
        # ghz at 200k reps: the stops and finals take 3.2 MB, the walk's
        # buffer 2.1 MB, the int8 codes and a mask 0.2 MB each (5.71 MB in
        # all); int64 codes from a nested np.where reach 8.72 MB
        assert traced_peak(replication_summaries, ghz_config(replications=200_000, max_trials=100_000)) <= 6_500_000
