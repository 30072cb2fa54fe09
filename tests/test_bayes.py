"""Exact-value and property tests for the log-domain evidence arithmetic.

Expected numbers come from independent oracles: exhaustive enumeration of
outcome sequences with exact fractions, exact likelihood ratios, and direct
summation of expectations.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bellodds.bayes import (
    BothFalsifiedError,
    HypothesisPair,
    IndistinguishableError,
    InfiniteInformationError,
    TrialTally,
    _kl,
    binomial_log_likelihood,
    kl_per_trial,
    log_bayes_factor,
    required_trials,
)
from bellodds.scenarios import ScenarioSpec, chained_pair
from bellodds.simulate import SimulationConfig, trial_stream

LN_4_3 = 0.28768207245178085
GHZ_TRIALS = 32.01569111860437
CHAINED2_KL = 0.03207458648010171


def enumerated_tally_probability(p: Fraction, n: int, m: int) -> Fraction:
    """Oracle: sum the exact probability of every outcome sequence with m "yes"."""
    total = Fraction(0)
    for bits in product((0, 1), repeat=n):
        if sum(bits) == m:
            prob = Fraction(1)
            for b in bits:
                prob *= p if b else 1 - p
            total += prob
    return total


probabilities = st.floats(min_value=0.01, max_value=0.99)


@st.composite
def tallies(draw, max_n=400):
    n = draw(st.integers(min_value=0, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=n))
    return TrialTally(n, m)


class TestBinomialLogLikelihood:
    def test_fair_coin_two_trials(self):
        # of the 4 equiprobable outcome sequences, 2 have exactly one "yes"
        assert enumerated_tally_probability(Fraction(1, 2), 2, 1) == Fraction(1, 2)
        got = binomial_log_likelihood(0.5, TrialTally(2, 1))
        assert math.isclose(got, math.log(0.5), rel_tol=1e-12)

    def test_certain_event_is_log_one(self):
        assert binomial_log_likelihood(1.0, TrialTally(10, 10)) == 0.0

    def test_impossible_event(self):
        assert binomial_log_likelihood(0.0, TrialTally(3, 1)) == -math.inf
        assert binomial_log_likelihood(1.0, TrialTally(3, 2)) == -math.inf

    def test_matches_enumeration(self):
        for p in (Fraction(1, 4), Fraction(2, 3), Fraction(9, 10)):
            for n in (1, 3, 6):
                for m in range(n + 1):
                    want = math.log(enumerated_tally_probability(p, n, m))
                    got = binomial_log_likelihood(float(p), TrialTally(n, m))
                    assert math.isclose(got, want, rel_tol=1e-12), (p, n, m)

    def test_large_count_is_finite(self):
        val = binomial_log_likelihood(0.3, TrialTally(1_000_000, 300_000))
        assert math.isfinite(val)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            binomial_log_likelihood(1.5, TrialTally(2, 1))

    def test_rejects_bad_tally(self):
        with pytest.raises(ValueError):
            TrialTally(2, 3)
        with pytest.raises(ValueError, match="n must be an integer >= 0"):
            TrialTally(-1, 0)
        with pytest.raises(ValueError, match="m must be an integer >= 0"):
            TrialTally(10, -1)
        with pytest.raises(ValueError, match="m must be an integer <= 3"):
            TrialTally(3, 4)

    @pytest.mark.parametrize("count", [2.5, "3"])
    def test_counts_must_be_integers(self, count):
        with pytest.raises(ValueError, match="n must be an integer"):
            TrialTally(count, 1)
        with pytest.raises(ValueError, match="m must be an integer"):
            TrialTally(3, count)

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize(
        "name, make",
        [
            ("n", lambda flag: TrialTally(flag, 0)),
            ("m", lambda flag: TrialTally(1, flag)),
            ("k", lambda flag: ScenarioSpec("chained", k=flag)),
            ("k", chained_pair),
            ("max_trials", lambda flag: SimulationConfig(ScenarioSpec("ghz"), max_trials=flag)),
            ("replications", lambda flag: SimulationConfig(ScenarioSpec("ghz"), replications=flag)),
            ("master_seed", lambda flag: SimulationConfig(ScenarioSpec("ghz"), master_seed=flag)),
            ("master_seed", lambda flag: trial_stream(flag, 0)),
            ("replication_index", lambda flag: trial_stream(0, flag)),
        ],
    )
    def test_bools_are_not_integers(self, name, make, flag):
        # operator.index takes True as 1; numpy 1.x takes np.True_ as 1 too, with a DeprecationWarning
        for value in (flag, np.bool_(flag), np.array(flag)):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                make(value)

    def test_numpy_1_bools_are_not_integers(self):
        """A stand-in for numpy 1.x's np.True_: a bool dtype whose __index__ still answers 1."""

        class OldNumpyTrue:
            dtype = np.dtype(bool)

            def __index__(self):
                return 1

        with pytest.raises(ValueError, match="^n must be an integer, got "):
            TrialTally(OldNumpyTrue(), 0)

    def test_numpy_integer_counts_accepted(self):
        got = binomial_log_likelihood(0.5, TrialTally(np.int64(2), np.int64(1)))
        assert got == binomial_log_likelihood(0.5, TrialTally(2, 1))


class TestLogBayesFactor:
    def test_certain_run_of_32(self):
        lbf = log_bayes_factor(HypothesisPair(1.0, 0.75), TrialTally(32, 32))
        assert math.isclose(lbf, 32 * LN_4_3, rel_tol=1e-12)
        assert 9.9e3 <= math.exp(lbf) <= 1.0e4

    def test_identical_hypotheses_carry_no_evidence(self):
        pair = HypothesisPair(0.42, 0.42)
        for tally in (TrialTally(0, 0), TrialTally(5, 2), TrialTally(100, 63)):
            assert log_bayes_factor(pair, tally) == 0.0

    def test_ratio_of_exact_binomial_likelihoods(self):
        # E_q = 2 * (1/2)^2 = 1/2 and E_r = 2 * (1/4)(3/4) = 3/8, ratio 4/3
        want = math.log(Fraction(1, 2) / Fraction(3, 8))
        got = log_bayes_factor(HypothesisPair(0.5, 0.25), TrialTally(2, 1))
        assert math.isclose(got, want, rel_tol=1e-12)
        assert math.isclose(got, LN_4_3, rel_tol=1e-12)

    def test_lr_impossible_outcome_gives_plus_inf(self):
        got = log_bayes_factor(HypothesisPair(0.09, 0.0), TrialTally(5, 1))
        assert got == math.inf

    def test_qm_impossible_outcome_gives_minus_inf(self):
        got = log_bayes_factor(HypothesisPair(0.0, 0.25), TrialTally(5, 1))
        assert got == -math.inf

    def test_both_impossible_raises(self):
        with pytest.raises(BothFalsifiedError):
            log_bayes_factor(HypothesisPair(0.0, 0.0), TrialTally(2, 1))
        with pytest.raises(BothFalsifiedError):
            # "yes" kills the q side, "no" kills the r side
            log_bayes_factor(HypothesisPair(0.0, 1.0), TrialTally(2, 1))

    @given(q=probabilities, r=probabilities, t1=tallies(), t2=tallies())
    def test_block_concatenation_adds(self, q, r, t1, t2):
        pair = HypothesisPair(q, r)
        joint = log_bayes_factor(pair, TrialTally(t1.n + t2.n, t1.m + t2.m))
        split = log_bayes_factor(pair, t1) + log_bayes_factor(pair, t2)
        assert math.isclose(joint, split, rel_tol=1e-12, abs_tol=1e-12)

    @given(q=probabilities, r=probabilities, t=tallies())
    def test_equals_likelihood_ratio(self, q, r, t):
        pair = HypothesisPair(q, r)
        lbf = log_bayes_factor(pair, t)
        lq = binomial_log_likelihood(q, t)
        lr = binomial_log_likelihood(r, t)
        # tolerance relative to the operand scale: the log-gamma terms cancel
        # only to within their own rounding
        tol = 1e-12 * max(1.0, abs(lq), abs(lr))
        assert abs(lbf - (lq - lr)) <= tol


class TestKlPerTrial:
    def test_certain_yes_versus_three_quarters(self):
        assert math.isclose(kl_per_trial(HypothesisPair(1.0, 0.75)), LN_4_3, rel_tol=1e-12)

    def test_zero_on_diagonal(self):
        assert kl_per_trial(HypothesisPair(0.3, 0.3)) == 0.0
        assert kl_per_trial(HypothesisPair(0.0, 0.0)) == 0.0
        assert kl_per_trial(HypothesisPair(1.0, 1.0)) == 0.0

    def test_chained_k2_value(self):
        q = (1.0 - math.cos(math.pi / 4)) / 2.0
        assert math.isclose(kl_per_trial(HypothesisPair(q, 0.25)), CHAINED2_KL, rel_tol=1e-12)

    def test_nonnegative_on_dense_grid(self):
        grid = [i / 100 for i in range(1, 100)]
        for q in grid:
            for r in grid:
                kl = kl_per_trial(HypothesisPair(q, r))
                if q == r:
                    assert kl == 0.0
                else:
                    assert kl > 0.0, (q, r)

    # r = nextafter(q, +-1) stays inside (0, 1)
    @given(q=st.floats(min_value=1e-300, max_value=math.nextafter(1.0, 0.0), exclude_max=True), up=st.booleans())
    @example(q=0.6369616873214543, up=True)  # the two terms cancel to -2.5e-17 before the clamp
    def test_nonnegative_for_adjacent_doubles(self, q, up):
        r = math.nextafter(q, 1.0 if up else -1.0)
        kl = kl_per_trial(HypothesisPair(q, r))
        assert kl >= 0.0 and math.copysign(1.0, kl) == 1.0
        if kl == 0.0:
            with pytest.raises(IndistinguishableError, match="double precision"):
                required_trials(HypothesisPair(q, r), 1e4)
        else:
            assert required_trials(HypothesisPair(q, r), 1e4) > 0.0

    FALSIFYING = [(0.5, 0.0), (0.5, 1.0), (0.09, 0.0)]

    @pytest.mark.parametrize(
        "q,r",
        FALSIFYING + [(0.0, 0.0), (1.0, 1.0), (0.0, 0.4), (1.0, 0.75), (0.3, 0.2), (0.4, 0.4),
                      (0.09016994374947428, 0.0335836813641357)],
    )
    def test_private_kl_is_kl_per_trial_or_inf(self, q, r):
        # the one KL formula: adversary grids use _kl, which returns inf where
        # kl_per_trial raises
        pair = HypothesisPair(q, r)
        if (q, r) in self.FALSIFYING:
            assert _kl(q, r) == math.inf
            with pytest.raises(InfiniteInformationError):
                kl_per_trial(pair)
        else:
            assert _kl(q, r).hex() == kl_per_trial(pair).hex()

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(0.0, 0.0)
    @example(1.0, 1.0)
    @example(0.0, 1.0)
    @example(1.0, 0.0)
    @example(0.3, 0.3)
    def test_private_kl_is_the_scalar_formula(self, q, r):
        # written out with a math call per log, bit for bit
        if (r == 0.0 and q > 0.0) or (r == 1.0 and q < 1.0):
            want = math.inf
        else:
            yes = 0.0 if q == 0.0 else q * (math.log(q) - math.log(r))
            no = 0.0 if q == 1.0 else (1.0 - q) * (math.log1p(-q) - math.log1p(-r))
            want = yes + no if yes + no > 0.0 else 0.0
        assert _kl(q, r).hex() == want.hex()

    def test_infinite_information_raises(self):
        with pytest.raises(InfiniteInformationError):
            kl_per_trial(HypothesisPair(0.5, 0.0))
        with pytest.raises(InfiniteInformationError):
            kl_per_trial(HypothesisPair(0.5, 1.0))

    @pytest.mark.parametrize("q,r", [(0.3, 0.2), (0.7, 0.4), (1.0, 0.75), (0.09016994374947424, 0.03358368136411276)])
    @pytest.mark.parametrize("n", [1, 7, 20])
    def test_expectation_identity(self, q, r, n):
        """E[log factor] under m ~ Binomial(n, q) equals n * KL, by direct sum."""
        pair = HypothesisPair(q, r)
        terms = []
        for m in range(n + 1):
            pmf = math.comb(n, m) * q**m * (1.0 - q) ** (n - m)
            if pmf == 0.0:
                continue
            terms.append(pmf * log_bayes_factor(pair, TrialTally(n, m)))
        assert abs(math.fsum(terms) - n * kl_per_trial(pair)) < 1e-10


class TestRequiredTrials:
    def test_ghz_to_ten_thousand(self):
        got = required_trials(HypothesisPair(1.0, 0.75), 1e4)
        assert math.isclose(got, GHZ_TRIALS, rel_tol=1e-12)

    def test_already_decided(self):
        assert required_trials(HypothesisPair(1.0, 0.75), 1.0) == 0.0

    def test_near_unit_target_needs_almost_nothing(self):
        got = required_trials(HypothesisPair(0.5, 0.25), 1.0 + 1e-9)
        assert 0.0 < got < 1e-8

    def test_indistinguishable_raises(self):
        with pytest.raises(IndistinguishableError):
            required_trials(HypothesisPair(0.4, 0.4), 1e4)

    def test_invalid_target_raises(self):
        with pytest.raises(ValueError):
            required_trials(HypothesisPair(0.5, 0.25), 0.5)
        with pytest.raises(ValueError):
            required_trials(HypothesisPair(0.5, 0.25), math.inf)

    def test_infinite_information_propagates(self):
        with pytest.raises(InfiniteInformationError):
            required_trials(HypothesisPair(0.09, 0.0), 1e4)


class TestValidation:
    def test_pair_bounds(self):
        with pytest.raises(ValueError):
            HypothesisPair(1.2, 0.5)
        with pytest.raises(ValueError):
            HypothesisPair(0.5, -0.1)
        with pytest.raises(ValueError):
            HypothesisPair(math.nan, 0.5)
