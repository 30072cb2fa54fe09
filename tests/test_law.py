"""The stopping rule (bellodds.law): its count tables against the count
bounds, and those against a scan of every count, and the module's imports."""

import math
import subprocess
import sys

import numpy as np
import pytest
from test_simulate import TestPinnedColumns, threshold_at

from bellodds import law, simulate
from bellodds.bayes import LR, QM, HypothesisPair, TrialTally, _kl, log_bayes_factor
from bellodds.scenarios import ScenarioSpec
from bellodds.simulate import SimulationConfig, replication_summaries


def test_import_loads_the_rule_without_the_sampler():
    # law imports bayes and numpy only, so the rule can be computed without
    # loading the walker or the scenarios
    probe = (
        "import sys, bellodds.law\n"
        "print(sorted(m for m in sys.modules if m.startswith('bellodds.')), 'queue' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert done.stdout == "['bellodds.bayes', 'bellodds.law'] False\n"


def scanned_bounds(
    step: float, other: float, lo: float, hi: float, falsifier: bool | None, max_trials: int, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """a(n) and b(n) for n = 0..n_max from every count m in [0, n] of the
    counted outcome: a is the last m that stops the walk from below and b the
    first that stops it from above (-1 and n + 1 when there is none).
    Through the walk's float log D, m * step + (n - m) * other, the low
    counts are those at or below lo where log D rises in m, at or above hi
    where it falls, and the high ones the other way round; a falsifying
    other outcome (m < n) stops from below, a falsifying counted one (m >= 1)
    from above, and every m stops from below at n >= max_trials.  Each n's
    set of m that go on, inside the thresholds, unfalsified and before
    max_trials, must be a < m < b."""
    a, b = np.empty(n_max + 1), np.empty(n_max + 1)
    for n0 in range(0, n_max + 1, 64):
        n = np.arange(n0, min(n0 + 64, n_max + 1), dtype=np.float64)[:, None]
        m = np.arange(n[-1, 0] + 1)[None, :]
        log_d, valid = m * step + (n - m) * other, m <= n
        low, high = (log_d <= lo, log_d >= hi) if step >= other else (log_d >= hi, log_d <= lo)
        false_counted, false_other = (falsifier is True) & (m >= 1), (falsifier is False) & (m < n)
        low |= false_other | (n >= max_trials)
        high |= false_counted
        a[n0 : n0 + n.size] = np.where(valid & low, m, -1.0).max(axis=1)
        b[n0 : n0 + n.size] = np.where(valid & high, m, n + 1).min(axis=1)
        goes_on = valid & (log_d > lo) & (log_d < hi) & ~false_counted & ~false_other & (n < max_trials)
        assert np.array_equal(goes_on, valid & (a[n0 : n0 + n.size, None] < m) & (m < b[n0 : n0 + n.size, None]))
    return a, b


def count_bounds(step: float, other: float, lo: float, hi: float, falsifier: bool | None, max_trials: int,
                 n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each trial count in n (float64), the counts a and b (float64) of
    the counted outcome such that a walk with m of them in n trials goes on
    exactly when a < m < b: while lo < law._log_d(m, n, step, other) < hi,
    m = 0 if the counted outcome is the falsifier (b <= 1), m = n if the
    other is (a >= n - 1), and n < max_trials.  Rounding is monotone, so
    float log D is monotone in m for a fixed n (step and other are of
    opposite signs or 0): a threshold's bound is the real-valued crossing,
    fixed up by steps of one count until the float log D agrees."""
    if step < other:  # log D falls in m: negating it (exact) and the thresholds makes it rise
        step, other, lo, hi = -step, -other, -hi, -lo

    def last_below(t: float, below) -> np.ndarray:
        """The largest m in [0, n] with below(log D, t), or -1."""
        if step == other:  # both steps 0: log D is 0 for every m
            m = np.where(below(0.0, t), n, -1.0)
        else:
            m = np.clip(np.floor((t - n * other) / (step - other)), -1.0, n)
        while (up := (m < n) & below(law._log_d(m + 1, n, step, other), t)).any():
            m += up
        while (down := (m >= 0) & ~below(law._log_d(m, n, step, other), t)).any():
            m -= down
        return m

    a = np.maximum(last_below(lo, np.less_equal), n - 1 if falsifier is False else -1.0)
    b = np.minimum(last_below(hi, np.less) + 1, 1.0 if falsifier else n + 1)
    return np.where(n >= max_trials, n, a), b


def rule_of(config: SimulationConfig) -> tuple:
    """The (step, other, lo, hi, falsifier, max_trials) that count_bounds and
    law._count_tables take, counted as law._stop_rule counts it at the true
    theory's p (simulate._resolved_rule)."""
    return simulate._resolved_rule(config)[2]


def mirrored(rule: tuple) -> tuple:
    """rule counted in its other outcome: its steps swapped, its falsifier
    flipped."""
    step, other, lo, hi, falsifier, max_trials = rule
    return other, step, lo, hi, None if falsifier is None else not falsifier, max_trials


class TestCountBounds:
    """count_bounds, the oracle of the count tables, against a scan of every
    count, for n <= 3000."""

    @staticmethod
    def assert_scanned(rule: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
        a, b = count_bounds(*rule, np.arange(3_001, dtype=np.float64))
        expected = scanned_bounds(*rule, 3_000)
        assert np.array_equal(a, expected[0]) and np.array_equal(b, expected[1]), rule
        return a, b

    @pytest.mark.parametrize(
        "scenario",
        [
            ScenarioSpec("chained", k=2),  # log D falls in the "yes" count
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
        # the rule counts the outcome rarer at the true theory's p, so it
        # depends on which theory is true; horizons inside the scan
        # and past it.  The rule is scanned as law._stop_rule counts it and
        # mirrored, so each pair is scanned in its "yes" count and its "no"
        # count, with both falsifier kinds and both zeroed steps
        counted = rule_of(SimulationConfig(scenario, truth, max_trials=max_trials))
        for rule in (counted, mirrored(counted)):
            self.assert_scanned(rule)

    @pytest.mark.parametrize("seed", range(24))
    def test_a_threshold_at_a_reached_log_d_of_a_random_pair(self, seed):
        # a threshold equal to the float log D of some (n, m), however far
        # from the prior: there the real-valued crossing can round to the
        # count on either side of the bound, and only the fix-up finds it
        rng = np.random.default_rng(seed)
        q, r = rng.random(2)
        step, other, lo, hi, *rest = rule_of(SimulationConfig(HypothesisPair(q, r)))
        n = int(rng.integers(10, 3_000))
        x = law._log_d(int(rng.integers(0, n + 1)), n, step, other)
        self.assert_scanned((step, other, lo, x, *rest) if x >= 0 else (step, other, x, hi, *rest))

    def test_equal_steps_have_no_bounds(self):
        # q = r: log D is 0 at every count, inside the thresholds
        a, b = self.assert_scanned(rule_of(SimulationConfig(HypothesisPair(0.3, 0.3))))
        assert (a == -1).all() and np.array_equal(b, np.arange(3_002.0)[1:])

    @pytest.mark.parametrize("side", ["lower_threshold", "upper_threshold"])
    def test_thresholds_on_and_beside_a_reached_log_d(self, side):
        # chained k=2 counts "yes", and its log D falls in m: at n = 200 it
        # is about 12.6 at m = 20 and -7.4 at m = 50.  With ln(prior/lower)
        # there, or one ulp below, a(200) = 20 (m = 20 stops), and one ulp
        # above 19; with ln(prior/upper) there, or one ulp above,
        # b(200) = 50, and one ulp below 51
        step, other, *_ = rule_of(SimulationConfig(ScenarioSpec("chained", k=2)))
        m = 20 if side == "lower_threshold" else 50
        x = m * step + (200 - m) * other
        found = []
        for target in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)):
            cfg = SimulationConfig(ScenarioSpec("chained", k=2), **{side: threshold_at(100.0, target)})
            found.append(self.assert_scanned(rule_of(cfg))[side == "upper_threshold"][200])
        assert found == ([20, 20, 19] if side == "lower_threshold" else [51, 50, 50])

    def test_a_tie_rounds_below_the_threshold(self):
        # (1, 0.1) at 100/0.01: 4 ln 10 = 9.210340371976182 rounds below
        # ln(1e4) = 9.210340371976184, so 4 "yes" in 4 trials go on and the
        # walk stops at trial 5; the rule counts "no", its mirror "yes"
        cfg = SimulationConfig(HypothesisPair(1.0, 0.1), replications=3)
        _, b = self.assert_scanned(mirrored(rule_of(cfg)))
        assert b[4] == 5 and b[5] == 5
        assert replication_summaries(cfg)[0].tolist() == [5, 5, 5]


def searched_tables(rule: tuple, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """R and E for the counts c = 0..n_max of rule's counted outcome,
    searched in the count bounds of n = 0..n_max without the horizon: the
    count goes on exactly when a(n) < c < b(n).  R[c] is the first n with
    a(n) >= c (n_max + 1 if none is), E[c] the last n with b(n) <= c, both
    at most max_trials; both are exact as a and b never fall and step by at
    most one."""
    *steps, max_trials = rule
    n = np.arange(n_max + 1, dtype=np.float64)
    a, b = count_bounds(*steps, math.inf, n)
    for bound in (a, b):
        assert set(np.diff(bound).tolist()) <= {0.0, 1.0}
    c = np.arange(n_max + 1, dtype=np.float64)
    r = np.searchsorted(a, c, side="left")
    e = np.searchsorted(b, c, side="right") - 1
    return np.minimum(r, max_trials), np.minimum(e, max_trials)


#: Both orientations of the rarer outcome, both falsifier kinds, a pair at
#: p = 1/2, a close pair and a rare outcome far past the gap table's cap
TABLE_SWEEP = [
    (HypothesisPair(0.7, 0.4), QM),
    (HypothesisPair(0.3, 0.6), LR),
    (ScenarioSpec("hardy-naive"), QM),
    (HypothesisPair(1.0, 0.75), LR),
    (HypothesisPair(0.5, 0.8), QM),
    (HypothesisPair(0.45, 0.5), QM),
    (HypothesisPair(0.45, 0.5), LR),
    (HypothesisPair(1e-6, 2e-6), QM),
    (ScenarioSpec("chained", k=2), QM),
    (ScenarioSpec("chained", k=2), LR),
    (ScenarioSpec("ghz"), LR),
    (HypothesisPair(0.3, 0.3), QM),
    (HypothesisPair(0.999, 1.0), QM),
]


class TestCountTables:
    """law._count_tables against a search of the count bounds, for every
    count up to 3000, with the outcome law._stop_rule counts and with the
    other as the counted outcome."""

    N_MAX = 3_000

    @pytest.mark.parametrize("as_counted", [True, False])
    @pytest.mark.parametrize("max_trials", [40, 2_001, 10**7])
    @pytest.mark.parametrize("scenario, truth", TABLE_SWEEP, ids=repr)
    def test_match_the_searched_bounds(self, scenario, truth, max_trials, as_counted):
        rule = rule_of(SimulationConfig(scenario, truth, max_trials=max_trials))
        rule = rule if as_counted else mirrored(rule)
        r, e = law._count_tables(rule, 0, self.N_MAX + 1)
        expected_r, expected_e = searched_tables(rule, self.N_MAX)
        # past n_max the search sees nothing: R as n_max + 1, E as n_max
        assert np.array_equal(np.minimum(r, self.N_MAX + 1), expected_r)
        assert np.array_equal(np.minimum(e, self.N_MAX), np.minimum(expected_e, self.N_MAX))
        assert r.dtype == e.dtype == np.int64 and (r <= max_trials).all() and (e <= max_trials).all()

    @pytest.mark.parametrize("scenario, truth", TABLE_SWEEP[:4], ids=repr)
    @pytest.mark.parametrize("max_trials", [2_001, 10**6])
    def test_a_range_of_counts_is_a_slice(self, scenario, truth, max_trials):
        # the walker builds the counts it reaches past the cached ones
        counted = rule_of(SimulationConfig(scenario, truth, max_trials=max_trials))
        for rule in (counted, mirrored(counted)):
            whole = law._count_tables(rule, 0, 5_000)
            part = law._count_tables(rule, 1_234, 4_321)
            assert all(np.array_equal(w[1_234:4_321], p) for w, p in zip(whole, part, strict=True))

    def test_cached_tables_are_shared_and_read_only(self):
        rule = rule_of(SimulationConfig(ScenarioSpec("chained", k=2)))
        tables = law._cached_tables(rule, 64)
        assert law._cached_tables(rule, 64) is tables
        assert not any(table.flags.writeable for table in tables)
        assert all(np.array_equal(x, y) for x, y in zip(tables, law._count_tables(rule, 0, 64), strict=True))

    def test_a_tie_rounds_below_the_threshold(self):
        # (1, 0.1) at 100/0.01: the rule counts the rarer outcome, "no",
        # which falsifies QM; a run of "yes" from count 0 crosses ln(1e4) at
        # trial 5, not 4
        rule = rule_of(SimulationConfig(HypothesisPair(1.0, 0.1)))
        r, _ = law._count_tables(rule, 0, 2)
        assert r[0] == 5


class TestStopRule:
    """law._stop_rule counts the outcome that is rarer at p, and its rule in
    that count is the pair's own log D, bit for bit."""

    @pytest.mark.parametrize("truth", [QM, LR])
    @pytest.mark.parametrize(
        "scenario",
        # (1, 0) and (0, 1): both outcomes have infinite steps
        [*dict.fromkeys(scenario for scenario, _ in TABLE_SWEEP), HypothesisPair(1.0, 0.0), HypothesisPair(0.0, 1.0)],
        ids=repr,
    )
    def test_counts_the_rarer_outcome(self, scenario, truth):
        cfg = SimulationConfig(scenario, truth)
        pair = cfg.resolved_pair()
        p_true, p_false = (pair.q, pair.r) if truth == QM else (pair.r, pair.q)
        p, counted_yes, (step, other, _, _, falsifier, _), drift = simulate._resolved_rule(cfg)
        assert counted_yes == (p_true <= 0.5)
        assert p == (p_true if counted_yes else 1.0 - p_true)
        # the falsifier is the outcome of infinite step, True if it is the
        # counted one, as the per-trial oracles (reference_walk,
        # count_formula_walk) end a walk on any outcome of infinite step;
        # where both steps are infinite, the other (p is 0 or 1, so it is
        # the one drawn)
        yes, no = (log_bayes_factor(pair, TrialTally(1, m)) for m in (1, 0))
        counted, majority = (yes, no) if counted_yes else (no, yes)
        assert falsifier is (False if math.isinf(majority) else True if math.isinf(counted) else None)
        # the drift is the mean log D step, KL(q||r) if QM is true and
        # -KL(r||q) if LR is
        assert drift == (_kl(pair.q, pair.r) if truth == QM else -_kl(pair.r, pair.q))
        # the pair's own steps in "yes" counts m, an infinite one zeroed
        yes, no = (s if math.isfinite(s) else 0.0 for s in (yes, no))
        rng = np.random.default_rng(38)
        sizes = [(0, 0), (0, 2**53 - 1), (2**53 - 1, 2**53 - 1), (1, 2**53 - 1)]
        for _ in range(2_000):
            n = int(rng.integers(0, 2 ** int(rng.integers(1, 54))))
            sizes.append((int(rng.integers(0, n + 1)), n))
        for m, n in sizes:
            c = m if counted_yes else n - m
            assert law._log_d(c, n, step, other).hex() == (m * yes + (n - m) * no).hex(), (m, n)

    @pytest.mark.parametrize("truth", [QM, LR])
    @pytest.mark.parametrize("scenario", TestPinnedColumns.SCENARIOS, ids=repr)
    def test_a_falsifier_only_the_true_theory_forbids_is_never_drawn(self, scenario, truth):
        # the falsifier names an outcome the true theory forbids, as well as
        # one the false theory forbids; it differs from the false theory's
        # forbidden outcome only where the rare outcome has probability 0,
        # a certain walk that reads only R[0] (ghz with QM true, for one)
        cfg = SimulationConfig(scenario, truth)
        pair = cfg.resolved_pair()
        p_false = pair.r if truth == QM else pair.q
        p_rare, counted_yes, (*_, falsifier, _), _ = simulate._resolved_rule(cfg)
        forbids_yes = {0.0: True, 1.0: False}.get(p_false)
        if falsifier is not (None if forbids_yes is None else forbids_yes == counted_yes):
            assert p_rare == 0.0
