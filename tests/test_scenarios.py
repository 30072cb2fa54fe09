"""Scenario constants, the Hardy optimization, and the k sweep.

Frozen expected values were computed independently at 40-digit precision;
the literal-mode Hardy root is additionally cross-checked here against a
dense scan of the equalization objective.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bellodds.bayes import HypothesisPair, _kl, kl_per_trial, required_trials
from bellodds.scenarios import (
    CHAINED,
    GHZ,
    HARDY,
    HARDY_NAIVE,
    BisectionError,
    ChainedGeometry,
    _bisect_decreasing,
    ScenarioSpec,
    chained_pair,
    find_optimal_k,
    ghz_pair,
    hardy_naive_trials,
    hardy_optimize_r,
    hardy_q,
    scenario_pair,
)

LN_4_3 = 0.28768207245178085
CHAINED2_Q = 0.14644660940672624
CHAINED2_KL = 0.03207458648010171
CHAINED2_TRIALS = 287.15383057830076
CHAINED3_TRIALS = 207.6361024982124
CHAINED4_Q = 0.038060233744356624
CHAINED4_KL = 0.045863492944130724
CHAINED4_TRIALS = 200.82073520208965
HARDY_Q = 0.09016994374947424
HARDY_R_PAPER = 0.03358368136411276
HARDY_KL_PAPER = 0.034160565938475516
HARDY_TRIALS_PAPER = 269.6190803326958
HARDY_R_LITERAL = 0.04760651934579549
HARDY_TRIALS_LITERAL = 575.7866965380074


class TestGhz:
    def test_pair_values(self):
        pair = ghz_pair()
        assert pair.q == 1.0
        assert pair.r == 0.75

    def test_per_trial_rate_is_ln_4_3(self):
        assert math.isclose(kl_per_trial(ghz_pair()), LN_4_3, rel_tol=1e-12)

    def test_trials_to_ten_thousand(self):
        assert math.isclose(required_trials(ghz_pair(), 1e4), 32.01569111860437, rel_tol=1e-12)


class TestChained:
    def test_chsh_case(self):
        pair = chained_pair(2)
        assert math.isclose(pair.q, CHAINED2_Q, rel_tol=1e-14)
        assert pair.r == 0.25
        assert math.isclose(kl_per_trial(pair), CHAINED2_KL, rel_tol=1e-12)
        assert math.isclose(required_trials(pair, 1e4), CHAINED2_TRIALS, rel_tol=1e-10)

    def test_k4_case(self):
        pair = chained_pair(4)
        assert math.isclose(pair.q, CHAINED4_Q, rel_tol=1e-14)
        assert pair.r == 0.125
        assert math.isclose(kl_per_trial(pair), CHAINED4_KL, rel_tol=1e-12)
        assert math.isclose(required_trials(pair, 1e4), CHAINED4_TRIALS, rel_tol=1e-10)

    def test_geometry_angle(self):
        assert ChainedGeometry.for_k(2).theta == math.pi / 4
        assert ChainedGeometry.for_k(4).theta == math.pi / 8

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            chained_pair(1)
        with pytest.raises(ValueError):
            ChainedGeometry.for_k(0)
        with pytest.raises(ValueError, match="k must be an integer >= 2"):
            ChainedGeometry.for_k(1)

    @pytest.mark.parametrize("make", [chained_pair, ChainedGeometry.for_k])
    @pytest.mark.parametrize("k", [2.5, 4.0, "4", float("nan")])
    def test_k_must_be_an_integer(self, make, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            make(k)

    def test_numpy_integer_k_accepted(self):
        assert chained_pair(np.int64(4)) == chained_pair(4)
        assert ChainedGeometry.for_k(np.int64(4)) == ChainedGeometry.for_k(4)

    def test_lr_never_coincides_with_qm(self):
        for k in range(2, 65):
            pair = chained_pair(k)
            assert 0.0 < pair.q < pair.r < 1.0, k
            assert kl_per_trial(pair) > 0.0, k

    def test_q_over_r_vanishes_for_large_k(self):
        ratios = [chained_pair(k).q / chained_pair(k).r for k in (10, 100, 1000)]
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 0.01

    def test_trial_count_unimodal_with_min_at_4(self):
        ns = [required_trials(chained_pair(k), 1e4) for k in range(2, 13)]
        assert ns.index(min(ns)) == 2  # k = 4
        diffs = [b - a for a, b in zip(ns, ns[1:])]
        sign_changes = sum(1 for a, b in zip(diffs, diffs[1:]) if (a < 0) != (b < 0))
        assert sign_changes == 1


class TestHardyQ:
    def test_value(self):
        assert math.isclose(hardy_q(), HARDY_Q, rel_tol=1e-14)
        assert abs(hardy_q() - 0.09017) < 5e-6

    def test_golden_ratio_conjugate_identity(self):
        # the base g of the fifth power satisfies g^2 + g = 1
        g = (math.sqrt(5.0) - 1.0) / 2.0
        assert math.isclose(g * g + g, 1.0, rel_tol=1e-14)
        assert hardy_q() == g**5

    def test_eight_trial_survival(self):
        q = hardy_q()
        assert (1.0 - q) ** 8 < 0.5 < (1.0 - q) ** 7
        assert math.isclose((1.0 - q) ** 8, 0.46955042421773235, rel_tol=1e-12)


class TestHardyOptimization:
    def test_paper_mode_root(self):
        sol = hardy_optimize_r("paper", 1e4)
        assert abs(sol.r_opt - HARDY_R_PAPER) < 1e-9
        assert abs(sol.r_opt - 0.03358) < 1e-4
        assert math.isclose(sol.n_real, HARDY_TRIALS_PAPER, rel_tol=1e-8)
        assert abs(sol.n_real - 270.0) <= 1.0

    def test_paper_mode_residual(self):
        sol = hardy_optimize_r("paper", 1e4)
        residual = kl_per_trial(HypothesisPair(hardy_q(), sol.r_opt)) + math.log1p(-sol.r_opt)
        assert abs(residual) < 1e-10

    def test_published_root_nearly_balances(self):
        residual = kl_per_trial(HypothesisPair(hardy_q(), 0.03358)) + math.log1p(-0.03358)
        assert abs(residual) < 1e-4

    def test_literal_mode_root(self):
        sol = hardy_optimize_r("literal", 1e4)
        assert abs(sol.r_opt - HARDY_R_LITERAL) < 1e-9
        assert math.isclose(sol.n_real, HARDY_TRIALS_LITERAL, rel_tol=1e-8)

    def test_literal_root_against_dense_scan(self):
        """Oracle: locate the sign change of the equalization gap on a
        100000-point grid over (0, q), with the gap written out directly."""
        q = hardy_q()
        rs = np.linspace(0.0, q, 100_001)[1:-1]
        gap = q * np.log(q / rs) + (1 - q) * np.log((1 - q) / (1 - rs)) + np.log1p(-rs / 3.0)
        sign_flip = int(np.argmax(gap < 0.0))
        assert 0 < sign_flip < len(rs) - 1
        bracket = (rs[sign_flip - 1], rs[sign_flip])
        sol = hardy_optimize_r("literal", 1e4)
        assert bracket[0] <= sol.r_opt <= bracket[1]

    @pytest.mark.parametrize("mode, share", [("paper", 1.0), ("literal", 1.0 / 3.0)])
    def test_root_is_the_plain_bisection_of_the_gap(self, mode, share):
        """Oracle: bisect _kl(q, r) + log1p(-r * share), q's logs taken at
        every step, on (1e-12, q - 1e-12) to an absolute 1e-12."""
        q = hardy_q()
        lo, hi = 1e-12, q - 1e-12
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if _kl(q, mid) + math.log1p(-mid * share) > 0.0:
                lo = mid
            else:
                hi = mid
        assert repr(hardy_optimize_r(mode).r_opt) == repr(0.5 * (lo + hi))

    def test_gap_strictly_decreasing(self):
        q = hardy_q()
        rs = np.linspace(1e-6, q - 1e-6, 200)
        gap = q * np.log(q / rs) + (1 - q) * np.log((1 - q) / (1 - rs)) + np.log1p(-rs)
        assert np.all(np.diff(gap) < 0.0)
        assert gap[0] > 0.0 > gap[-1]

    def test_target_dependence_only_in_trials(self):
        lo = hardy_optimize_r("paper", 1e2)
        hi = hardy_optimize_r("paper", 1e8)
        assert lo.r_opt == hi.r_opt
        assert math.isclose(hi.n_real, 4.0 * lo.n_real, rel_tol=1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            hardy_optimize_r("folk", 1e4)
        with pytest.raises(ValueError):
            hardy_optimize_r("paper", 1.0)


class TestBisection:
    def test_no_sign_change(self):
        with pytest.raises(BisectionError, match="no sign change"):
            _bisect_decreasing(lambda x: 1.0 - x, 2.0, 3.0)

    def test_no_convergence(self):
        # 200 halvings of a width of 2e300 leave about 1e240, far above 1e-12
        with pytest.raises(BisectionError, match="no convergence"):
            _bisect_decreasing(lambda x: -x, -1e300, 1e300)


# the survival (1 - q)^n of the all-zero theory, down past underflow to 0.0
POWERS = st.integers(1, 7999).map(lambda n: (1.0 - hardy_q()) ** n)


class TestHardyNaive:
    def test_half_survival_after_eight(self):
        assert hardy_naive_trials(0.5) == 8

    def test_quarter_survival(self):
        # smallest n with 0.90983^n < 0.25, found by direct iteration
        q = hardy_q()
        n, surv = 0, 1.0
        while surv >= 0.25:
            surv *= 1.0 - q
            n += 1
        assert n == 15
        assert hardy_naive_trials(0.25) == 15

    def test_loose_threshold_needs_one_trial(self):
        assert hardy_naive_trials(0.95) == 1

    @given(
        st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            POWERS,
            st.builds(math.nextafter, POWERS, st.sampled_from([0.0, 1.0])),
        ).filter(lambda t: 0.0 < t < 1.0)
    )
    @example(5e-324)
    @example(math.nextafter(1.0, 0.0))
    def test_smallest_n_below_the_threshold(self, t):
        n, base = hardy_naive_trials(t), 1.0 - hardy_q()
        assert n >= 1 and base**n < t
        assert n == 1 or base ** (n - 1) >= t

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            hardy_naive_trials(0.0)
        with pytest.raises(ValueError):
            hardy_naive_trials(1.0)


class TestScenarioSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec("bogus")
        with pytest.raises(ValueError):
            ScenarioSpec(CHAINED, k=1)
        with pytest.raises(ValueError):
            ScenarioSpec(CHAINED)
        with pytest.raises(ValueError):
            ScenarioSpec(GHZ, k=3)
        with pytest.raises(ValueError):
            ScenarioSpec(HARDY, hardy_mode="folk")

    @pytest.mark.parametrize("k", [2.5, 4.0, "4", None, float("nan")])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            ScenarioSpec(CHAINED, k=k)

    def test_numpy_integer_k_accepted(self):
        spec = ScenarioSpec(CHAINED, k=np.int64(4))
        assert spec == ScenarioSpec(CHAINED, k=4)
        assert scenario_pair(spec).pair == chained_pair(4)

    @pytest.mark.parametrize("kind, k", [(GHZ, None), (CHAINED, 2), (HARDY_NAIVE, None)])
    def test_hardy_mode_only_for_hardy(self, kind, k):
        with pytest.raises(ValueError, match="hardy_mode only applies"):
            ScenarioSpec(kind, k=k, hardy_mode="literal")
        assert ScenarioSpec(kind, k=k, hardy_mode="paper") == ScenarioSpec(kind, k=k)

    def test_labels(self):
        assert ScenarioSpec(GHZ).label() == "ghz"
        assert ScenarioSpec(CHAINED, k=4).label() == "chained-k4"
        assert ScenarioSpec(HARDY, hardy_mode="literal").label() == "hardy-literal"
        assert ScenarioSpec(HARDY_NAIVE).label() == "hardy-naive"

    def test_dispatch(self):
        assert scenario_pair(ScenarioSpec(GHZ)).pair == HypothesisPair(1.0, 0.75)

        assert scenario_pair(ScenarioSpec(CHAINED, k=4)).pair == chained_pair(4)

        pair = scenario_pair(ScenarioSpec(HARDY)).pair
        assert pair.q == hardy_q()
        assert pair.r == hardy_optimize_r("paper").r_opt

        res = scenario_pair(ScenarioSpec(HARDY_NAIVE))
        assert res.pair == HypothesisPair(hardy_q(), 0.0)


class TestFindOptimalK:
    def test_four_wins_to_twelve(self):
        k, n = find_optimal_k(1e4, 2, 12)
        assert k == 4
        assert math.isclose(n, CHAINED4_TRIALS, rel_tol=1e-10)

    def test_singleton_range(self):
        assert find_optimal_k(1e4, 2, 2)[0] == 2

    def test_three_beats_two(self):
        k, n = find_optimal_k(1e4, 2, 3)
        assert k == 3
        assert math.isclose(n, CHAINED3_TRIALS, rel_tol=1e-10)

    def test_bad_range(self):
        with pytest.raises(ValueError, match="k_max must be an integer >= 3"):
            find_optimal_k(1e4, 3, 2)
        with pytest.raises(ValueError, match="k_min must be an integer >= 2"):
            find_optimal_k(1e4, 1, 5)

    @pytest.mark.parametrize("bound", [2.5, 4.0, "4", float("nan")])
    def test_bounds_must_be_integers(self, bound):
        with pytest.raises(ValueError, match="k_min must be an integer"):
            find_optimal_k(1e4, bound, 12)
        with pytest.raises(ValueError, match="k_max must be an integer"):
            find_optimal_k(1e4, 2, bound)

    def test_numpy_integer_bounds_accepted(self):
        assert find_optimal_k(1e4, np.int64(2), np.int64(12)) == find_optimal_k(1e4, 2, 12)
