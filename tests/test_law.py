"""The stopping rule (bellodds.law): count bounds against a scan of every
count, the window cache that serves them to the walker, and the module's
imports."""

import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from test_simulate import SEED, threshold_at, walk_config

from bellodds import law
from bellodds.bayes import LR, QM, HypothesisPair
from bellodds.scenarios import ScenarioSpec
from bellodds.simulate import SimulationConfig, replication_summaries


def test_import_loads_the_rule_without_the_sampler():
    # law imports bayes and numpy only, so the rule can be computed without
    # loading the walker, its fill thread's queue or the scenarios
    probe = (
        "import sys, bellodds.law\n"
        "print(sorted(m for m in sys.modules if m.startswith('bellodds.')), 'queue' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert done.stdout == "['bellodds.bayes', 'bellodds.law'] False\n"


def scanned_bounds(
    yes: float, no: float, lo: float, hi: float, falsifier: bool | None, max_trials: int, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """a(n) and b(n) for n = 0..n_max from every m in [0, n]: a is the last
    m that stops the walk from below and b the first that stops it from
    above (-1 and n + 1 when there is none).  Through the walk's float log D,
    m * yes + (n - m) * no, the low counts are those at or below lo where log
    D rises in m, at or above hi where it falls, and the high ones the other
    way round; a falsifying "no" (m < n) stops from below, a falsifying "yes"
    (m >= 1) from above, and every m stops from below at n >= max_trials.
    Each n's set of m that go on, inside the thresholds, unfalsified and
    before max_trials, must be a < m < b."""
    a, b = np.empty(n_max + 1), np.empty(n_max + 1)
    for n0 in range(0, n_max + 1, 64):
        n = np.arange(n0, min(n0 + 64, n_max + 1), dtype=np.float64)[:, None]
        m = np.arange(n[-1, 0] + 1)[None, :]
        log_d, valid = m * yes + (n - m) * no, m <= n
        low, high = (log_d <= lo, log_d >= hi) if yes >= no else (log_d >= hi, log_d <= lo)
        false_yes, false_no = (falsifier is True) & (m >= 1), (falsifier is False) & (m < n)
        low |= false_no | (n >= max_trials)
        high |= false_yes
        a[n0 : n0 + n.size] = np.where(valid & low, m, -1.0).max(axis=1)
        b[n0 : n0 + n.size] = np.where(valid & high, m, n + 1).min(axis=1)
        goes_on = valid & (log_d > lo) & (log_d < hi) & ~false_yes & ~false_no & (n < max_trials)
        assert np.array_equal(goes_on, valid & (a[n0 : n0 + n.size, None] < m) & (m < b[n0 : n0 + n.size, None]))
    return a, b


def rule_of(config: SimulationConfig) -> tuple:
    """The (yes, no, lo, hi, falsifier, max_trials) that
    law._count_bounds and _bounds take."""
    return law._stop_rule(config)[1]


class TestCountBounds:
    """law._count_bounds against a scan of every count, for n <= 3000."""

    @staticmethod
    def assert_scanned(rule: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
        a, b = law._count_bounds(*rule, np.arange(3_001, dtype=np.float64))
        expected = scanned_bounds(*rule, 3_000)
        assert np.array_equal(a, expected[0]) and np.array_equal(b, expected[1]), rule
        return a, b

    @pytest.mark.parametrize(
        "scenario",
        [
            ScenarioSpec("chained", k=2),  # log D falls in m
            HypothesisPair(0.7, 0.3),  # and rises
            ScenarioSpec("ghz"),  # rises, its "no" step infinite and zeroed
            ScenarioSpec("hardy-naive"),  # rises, its "yes" step zeroed
            HypothesisPair(0.001, 0.0),  # rises, its "yes" step zeroed
            HypothesisPair(0.999, 1.0),  # falls, its "no" step zeroed
        ],
    )
    @pytest.mark.parametrize("truth", [QM, LR])
    @pytest.mark.parametrize("max_trials", [30, 2_001, 100_000])
    def test_matches_the_scan(self, scenario, truth, max_trials):
        # the falsifier, if any, is the outcome the false theory forbids, so
        # the rule depends on which theory is true; horizons inside the scan
        # and past it
        self.assert_scanned(rule_of(SimulationConfig(scenario, truth, max_trials=max_trials)))

    @pytest.mark.parametrize("seed", range(24))
    def test_a_threshold_at_a_reached_log_d_of_a_random_pair(self, seed):
        # a threshold equal to the float log D of some (n, m), however far
        # from the prior: there the real-valued crossing can round to the
        # count on either side of the bound, and only the fix-up finds it
        rng = np.random.default_rng(seed)
        q, r = rng.random(2)
        yes, no, lo, hi, *rest = rule_of(SimulationConfig(HypothesisPair(q, r)))
        n = int(rng.integers(10, 3_000))
        x = law._log_d(int(rng.integers(0, n + 1)), n, yes, no)
        self.assert_scanned((yes, no, lo, x, *rest) if x >= 0 else (yes, no, x, hi, *rest))

    def test_equal_steps_have_no_bounds(self):
        # q = r: log D is 0 at every count, inside the thresholds
        a, b = self.assert_scanned(rule_of(SimulationConfig(HypothesisPair(0.3, 0.3))))
        assert (a == -1).all() and np.array_equal(b, np.arange(3_002.0)[1:])

    @pytest.mark.parametrize("side", ["lower_threshold", "upper_threshold"])
    def test_thresholds_on_and_beside_a_reached_log_d(self, side):
        # chained k=2's log D falls in m: at n = 200 it is about 12.6 at
        # m = 20 and -7.4 at m = 50.  With ln(prior/lower) there, or one ulp
        # below, a(200) = 20 (m = 20 stops), and one ulp above 19; with
        # ln(prior/upper) there, or one ulp above, b(200) = 50, and one ulp
        # below 51
        yes, no, *_ = rule_of(SimulationConfig(ScenarioSpec("chained", k=2)))
        m = 20 if side == "lower_threshold" else 50
        x = m * yes + (200 - m) * no
        found = []
        for target in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)):
            cfg = SimulationConfig(ScenarioSpec("chained", k=2), **{side: threshold_at(100.0, target)})
            found.append(self.assert_scanned(rule_of(cfg))[side == "upper_threshold"][200])
        assert found == ([20, 20, 19] if side == "lower_threshold" else [51, 50, 50])

    def test_a_tie_rounds_below_the_threshold(self):
        # (1, 0.1) at 100/0.01: 4 ln 10 = 9.210340371976182 rounds below
        # ln(1e4) = 9.210340371976184, so 4 "yes" in 4 trials go on and the
        # walk stops at trial 5
        cfg = SimulationConfig(HypothesisPair(1.0, 0.1), replications=3)
        _, b = self.assert_scanned(rule_of(cfg))
        assert b[4] == 5 and b[5] == 5
        assert replication_summaries(cfg)[0].tolist() == [5, 5, 5]


def walk_columns_equal(x: tuple[np.ndarray, ...], y: tuple[np.ndarray, ...]) -> bool:
    return all(np.array_equal(a, b) for a, b in zip(x, y, strict=True))


def counted_bound_builds(monkeypatch) -> list[tuple]:
    """Wraps law._count_bounds; the returned list gets, per call, the
    rule, the first trial count and how many it built."""
    builds = []
    count_bounds = law._count_bounds

    def counting(*args):
        *rule, n = args
        builds.append((tuple(rule), int(n[0]), n.size))
        return count_bounds(*args)

    monkeypatch.setattr(law, "_count_bounds", counting)
    return builds


class TestBoundCache:
    """law._bounds reads count bounds from windows of _WINDOW trial
    counts that law._bound_window builds and caches; what the cache
    holds never changes a walk."""

    @pytest.fixture(autouse=True)
    def cold_windows(self):
        law._bound_window.cache_clear()
        yield
        law._bound_window.cache_clear()

    def test_cold_and_warm(self, monkeypatch):
        builds = counted_bound_builds(monkeypatch)
        cfg = walk_config("chained-k2", LR, upper_threshold=1e100, max_trials=10_000, replications=12)
        cold = replication_summaries(cfg)
        size = law._WINDOW
        # cfg's windows alone, each built once, from trial count 0 on
        assert builds == [(rule_of(cfg), start, size) for start in range(0, len(builds) * size, size)]
        assert law._bound_window.cache_info().currsize == len(builds) >= 1
        builds.clear()
        assert walk_columns_equal(replication_summaries(cfg), cold)
        assert builds == []

    def test_after_other_rules_fill_and_evict_the_cache(self, monkeypatch):
        # walks below one window: one window per rule
        builds = counted_bound_builds(monkeypatch)
        maxsize = law._bound_window.cache_info().maxsize
        cfg = walk_config("hardy-paper", QM, max_trials=2_001, replications=40)
        others = [replace(cfg, upper_threshold=1e6 * (i + 2)) for i in range(maxsize)]
        cold = replication_summaries(cfg)
        for other in others[1:]:  # the cache fills; cfg's window is the oldest
            replication_summaries(other)
        assert law._bound_window.cache_info().currsize == maxsize
        builds.clear()
        assert walk_columns_equal(replication_summaries(cfg), cold)
        assert builds == []
        for other in others:  # cfg's window goes
            replication_summaries(other)
        builds.clear()
        assert walk_columns_equal(replication_summaries(cfg), cold)
        assert builds == [(rule_of(cfg), 0, law._WINDOW)]

    def test_bounded_in_windows(self, monkeypatch):
        # zero drift: blocks of 64, 128, ... up to simulate._MAX_BLOCK trials, and
        # walks that run to max_trials, past more windows than the cache holds
        builds = counted_bound_builds(monkeypatch)
        maxsize, size = law._bound_window.cache_info().maxsize, law._WINDOW
        cfg = walk_config("q=r", LR, max_trials=(maxsize + 3) * size, replications=5)
        assert replication_summaries(cfg)[0].tolist() == [cfg.max_trials] * 5
        assert builds == [(rule_of(cfg), start, size) for start in range(0, (maxsize + 4) * size, size)]
        assert law._bound_window.cache_info().currsize == maxsize

    def test_a_walk_to_the_default_horizon_is_built_once(self, monkeypatch):
        # q = r: 300 walks that all reach the default max_trials (100000),
        # through 17 windows, which the cache holds; a second run builds none
        cfg = SimulationConfig(HypothesisPair(0.5, 0.5), master_seed=SEED, replications=300)
        builds = counted_bound_builds(monkeypatch)
        cold = replication_summaries(cfg)
        assert cold[0].tolist() == [100_000] * 300 and len(builds) == 17
        builds.clear()
        assert walk_columns_equal(replication_summaries(cfg), cold)
        assert builds == []

    @pytest.mark.parametrize(
        "name, truth, max_trials, start, stop, windows",
        [
            ("hardy-naive", QM, 100_000, 1, 100, 1),  # inside a window; "yes" falsifies LR
            ("hardy-naive", QM, 100_000, 50, 6_144, 1),
            ("chained-k2", LR, 100_000, 6_000, 7_000, 2),  # straddling two windows
            ("chained-k2", LR, 100_000, 6_100, 12_244, 2),  # _WINDOW wide
            ("chained-k2", QM, 100_000, 65_530, 65_540, 1),  # past 2**16
            ("hardy-naive", QM, 100_000, 70_000, 76_144, 2),
            ("hardy-naive", QM, 2_001, 1, 6_000, 1),  # the horizon inside a window
            ("chained-k2", LR, 70_000, 69_990, 70_010, 1),
            # straddling 2**31, 2048 counts into a window: b(n) = n + 1 for q = r
            ("q=r", LR, 100_000, 2**31 - 2_200, 2**31 + 100, 2),
            ("q=r", LR, 2**31, 2**31 - 100, 2**31 + 100, 1),  # a(n) = n from the horizon at 2**31
            ("chained-k2", LR, 2**40, 2**31 - 2_200, 2**31 + 100, 2),
        ],
    )
    def test_windows_are_the_builder_s(self, name, truth, max_trials, start, stop, windows):
        rule = rule_of(walk_config(name, truth, max_trials=max_trials))
        built = law._count_bounds(*rule, np.arange(start, stop, dtype=np.float64))
        bounds = law._bounds(rule, start, stop)
        assert all(np.array_equal(w, x) for w, x in zip(bounds, built, strict=True))
        assert law._bound_window.cache_info().misses == windows
        # the cached windows are shared: no caller can write to them
        assert not any(bound.flags.writeable for bound in law._bound_window(rule, 0, law._WINDOW))
