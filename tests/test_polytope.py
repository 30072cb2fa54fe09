"""The minimax pairs of GHZ, chained and Hardy (literal convention),
certified over the whole local polytope rather than one facet of it.

A local-realist theory is a mixture of deterministic strategies, so its
"yes" probabilities r over the setups lie in the convex hull of the 0/1
vectors D_s of the strategies (Fine, PRL 48, 1982).  With the settings mixed
by sigma, r* minimizes sum_j sigma_j KL(q_j || r_j) over that hull exactly
when, for every strategy s,

    g(s) = sum_j sigma_j [q_j D_js / r*_j + (1 - q_j)(1 - D_js) / (1 - r*_j)] <= 1,

the first-order condition grad f(r*) . (D_s - r*) >= 0 of the convex
f(r) = sum_j sigma_j KL(q_j || r_j), rearranged.  If every KL_j(r*) is also
equal, r* is the minimax point: any local r has max_j KL_j(r) >= f(r) >=
f(r*) = max_j KL_j(r*), so no local theory does better than r* against the
experimenter's best setup.  Uniform sigma certifies GHZ's r = 3/4 and
chained's r = 1/2k, the pairs that scenarios.ghz_pair and chained_pair use,
with the game values ln(4/3) and KL(q || 1/2k) that the paper's trial counts
come from.  For Hardy, sigma puts sigma_1 on setup 1 and splits the rest
evenly, and it certifies the "literal" pair: over the polytope, that is the
minimax, and the paper's point is not.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from bellodds.bayes import HypothesisPair, kl_per_trial
from bellodds.scenarios import (
    HARDY,
    HARDY_MODE_LITERAL,
    ScenarioSpec,
    chained_pair,
    ghz_pair,
    hardy_optimize_r,
    hardy_q,
    scenario_pair,
)

CHAINED_K = range(2, 9)


def ghz_strategies() -> np.ndarray:
    """D for the 64 strategies that fix X and Y values of +-1 for each of
    three parties, over the Mermin setups XXX, XYY, YXY, YYX: 1 where the
    product of the three values is the one QM predicts, +1 for XXX and -1
    for the others."""
    rows = []
    for x1, y1, x2, y2, x3, y3 in itertools.product((1, -1), repeat=6):
        products = (x1 * x2 * x3, x1 * y2 * y3, y1 * x2 * y3, y1 * y2 * x3)
        rows.append([p == qm for p, qm in zip(products, (1, -1, -1, -1))])
    return np.array(rows, dtype=np.float64)


@functools.cache
def chained_strategies(k: int) -> np.ndarray:
    """D for the strategies that fix a value of +-1 for each of the 2k
    directions a1, b1, ..., ak, bk, over the 2k setups that pair each
    direction with the next around the cycle (bk with a1 last): 1 where the
    two values are equal.  One row per distinct vector.  Built once per k
    (k = 8 enumerates 65,536 assignments) and read-only, as tests share it."""
    values = np.array(list(itertools.product((0, 1), repeat=2 * k)))
    strategies = np.unique(values == np.roll(values, -1, axis=1), axis=0).astype(np.float64)
    strategies.flags.writeable = False
    return strategies


def hardy_strategies() -> np.ndarray:
    """D for the 16 strategies that fix A1, A2, B1, B2 in {0, 1}, over the
    events A1B1, A1 not-B2, not-A2 B1 and A2B2 (QM gives the last three
    probability 0).  One row per distinct vector."""
    values = [
        (a1 & b1, a1 & (1 - b2), (1 - a2) & b1, a2 & b2)
        for a1, a2, b1, b2 in itertools.product((0, 1), repeat=4)
    ]
    return np.unique(np.array(values), axis=0).astype(np.float64)


def ghz_game() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QM's "yes" probabilities, the minimax point and the strategies."""
    pair = ghz_pair()
    return np.full(4, pair.q), np.full(4, pair.r), ghz_strategies()


def chained_game(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """As ghz_game.  The last setup measures nearly opposite directions,
    so QM's "equal" probability there is 1 - q, and r*'s is 1 - 1/2k."""
    pair = chained_pair(k)
    q = np.array([pair.q] * (2 * k - 1) + [1.0 - pair.q])
    r = np.array([pair.r] * (2 * k - 1) + [1.0 - pair.r])
    return q, r, chained_strategies(k)


def hardy_game(r1: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """As ghz_game, at the point that puts r1 on setup 1 and r1/3 on each
    zero-coincidence setup, saturating CH."""
    return np.array([hardy_q(), 0.0, 0.0, 0.0]), np.array([r1] + [r1 / 3.0] * 3), hardy_strategies()


def certificate(q: np.ndarray, r: np.ndarray, strategies: np.ndarray, sigma: np.ndarray | None = None) -> np.ndarray:
    """g(s) of every strategy under sigma, uniform by default."""
    sigma = np.full(len(q), 1.0 / len(q)) if sigma is None else sigma
    return (q / r * strategies + (1.0 - q) / (1.0 - r) * (1.0 - strategies)) @ sigma


def kls(q: np.ndarray, r: np.ndarray) -> list[float]:
    return [kl_per_trial(HypothesisPair(float(a), float(b))) for a, b in zip(q, r)]


def assert_mixture(weights: dict[tuple[int, ...], float], strategies: np.ndarray, r: np.ndarray) -> None:
    """r is the mixture of the given strategy vectors by the given weights."""
    rows = {tuple(row) for row in strategies.astype(int).tolist()}
    assert set(weights) <= rows
    assert math.isclose(sum(weights.values()), 1.0, rel_tol=1e-15)
    mixture = sum(w * np.array(v, dtype=np.float64) for v, w in weights.items())
    np.testing.assert_allclose(mixture, r, rtol=1e-15, atol=1e-15)


class TestStrategies:
    def test_ghz_satisfies_at_most_three_of_four(self):
        # the Mermin bound: the four products multiply to +1, QM's to -1
        assert sorted(set(ghz_strategies().sum(axis=1).tolist())) == [1.0, 3.0]

    @pytest.mark.parametrize("k", CHAINED_K)
    def test_chained_vectors_are_the_even_parity_ones(self, k):
        strategies = chained_strategies(k)
        assert len(strategies) == 2 ** (2 * k - 1)
        assert (strategies.sum(axis=1) % 2 == 0).all()


class TestGhzCertificate:
    def test_three_quarters_is_a_mixture_of_strategies(self):
        # a quarter each on four strategies that each miss one setup
        _, r, strategies = ghz_game()
        misses = [tuple(int(j != i) for j in range(4)) for i in range(4)]
        assert_mixture({miss: 0.25 for miss in misses}, strategies, r)

    def test_equal_kls_at_the_game_value(self):
        q, r, _ = ghz_game()
        value = kl_per_trial(ghz_pair())
        assert math.isclose(value, math.log(4 / 3), rel_tol=1e-15)
        assert kls(q, r) == [value] * 4

    def test_no_strategy_improves(self):
        q, r, strategies = ghz_game()
        assert certificate(q, r, strategies).max() <= 1.0 + 1e-12

    def test_a_point_inside_fails(self):
        # toward the uniform mixture the KLs stay equal but grow, and a
        # strategy that meets three setups improves on it
        q, r, strategies = ghz_game()
        inside = 0.999 * r + 0.001 * strategies.mean(axis=0)
        assert len(set(kls(q, inside))) == 1
        assert certificate(q, inside, strategies).max() > 1.0 + 1e-6


class TestChainedCertificate:
    @pytest.mark.parametrize("k", CHAINED_K)
    def test_one_over_2k_is_a_mixture_of_strategies(self, k):
        # 1/2k each on the vector of no "equal" and on the 2k - 1 vectors
        # "equal" on one setup and on the last
        _, r, strategies = chained_game(k)
        n = 2 * k
        weights = {tuple([0] * n): 1.0 / n}
        weights.update({tuple(int(j in (i, n - 1)) for j in range(n)): 1.0 / n for i in range(n - 1)})
        assert_mixture(weights, strategies, r)

    @pytest.mark.parametrize("k", CHAINED_K)
    def test_equal_kls_at_the_game_value(self, k):
        q, r, _ = chained_game(k)
        value = kl_per_trial(chained_pair(k))
        assert all(math.isclose(kl, value, rel_tol=1e-12) for kl in kls(q, r))

    @pytest.mark.parametrize("k", CHAINED_K)
    def test_no_strategy_improves(self, k):
        q, r, strategies = chained_game(k)
        assert certificate(q, r, strategies).max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("k", CHAINED_K)
    def test_a_point_inside_fails(self, k):
        # toward the uniform mixture the KLs stay equal but grow, and the
        # strategy with no "equal" improves on it
        q, r, strategies = chained_game(k)
        inside = 0.999 * r + 0.001 * strategies.mean(axis=0)
        value = kls(q, inside)[0]
        assert all(math.isclose(kl, value, rel_tol=1e-9) for kl in kls(q, inside))
        assert certificate(q, inside, strategies).max() > 1.0 + 1e-6

    @pytest.mark.parametrize("k", CHAINED_K)
    def test_moving_one_setup_breaks_the_equal_kls(self, k):
        # toward the strategy with no "equal": the last setup's KL grows
        # while the others shrink
        q, r, _ = chained_game(k)
        moved = kls(q, 0.999 * r)
        assert moved[-1] > kl_per_trial(chained_pair(k)) > max(moved[:-1])


class TestEveryLocalTheory:
    """With the setting drawn uniformly on each trial, independently of the
    hidden state, no deterministic strategy takes the walk's LR-favouring
    step less often than r* does: a "no" for GHZ (q = 1 > r*), a "yes" for
    chained (q < r*), where the last setup's "yes" is "not equal".  A local
    theory, adaptive or not, mixes strategies trial by trial, so its walk,
    coupled to r*'s through shared uniforms, never lies above r*'s."""

    @pytest.mark.parametrize("k", [None, *CHAINED_K], ids=["ghz", *(f"chained-k{k}" for k in CHAINED_K)])
    def test_r_star_is_the_worst_case_step_law(self, k):
        if k is None:
            assert ghz_strategies().mean(axis=1).max() == ghz_pair().r == 0.75
        else:
            strategies = chained_strategies(k)
            yes = np.hstack([strategies[:, :-1], 1.0 - strategies[:, -1:]])
            assert yes.mean(axis=1).min() == chained_pair(k).r == 1.0 / (2 * k)


class TestHardyLiteralCertificate:
    @pytest.fixture(scope="class")
    def literal(self) -> float:
        return hardy_optimize_r(HARDY_MODE_LITERAL).r_opt

    @staticmethod
    def sigma(q: np.ndarray, r: np.ndarray) -> np.ndarray:
        """sigma_1 on setup 1, the rest split evenly, with sigma_1 solved
        from g = 1 at the strategy that meets no event: sigma_1 (1 - q_1) /
        (1 - r_1) + (1 - sigma_1) / (1 - r_1/3) = 1."""
        a, b = 1.0 / (1.0 - r[1]), (1.0 - q[0]) / (1.0 - r[0])
        sigma_1 = (1.0 - a) / (b - a)
        return np.array([sigma_1] + [(1.0 - sigma_1) / 3.0] * 3)

    def test_eight_distinct_strategy_vectors(self):
        # not-A2 B1 and A2B2 never meet: one needs not A2, the other A2
        strategies = hardy_strategies()
        assert len(strategies) == 8
        assert not ((strategies[:, 2] == 1) & (strategies[:, 3] == 1)).any()

    def test_the_point_is_a_mixture_of_strategies(self, literal):
        # r1/3 on each strategy that meets A1B1 and one other event, the
        # rest on the strategy that meets none
        _, r, strategies = hardy_game(literal)
        weights = {(1, 1, 0, 0): literal / 3, (1, 0, 1, 0): literal / 3, (1, 0, 0, 1): literal / 3}
        weights[(0, 0, 0, 0)] = 1.0 - literal
        assert_mixture(weights, strategies, r)

    def test_equal_kls_at_the_game_value(self, literal):
        q, r, _ = hardy_game(literal)
        value = kl_per_trial(scenario_pair(ScenarioSpec(HARDY, hardy_mode=HARDY_MODE_LITERAL)).pair)
        assert math.isclose(value, 0.0159961, rel_tol=1e-6)
        assert all(math.isclose(kl, value, rel_tol=1e-9) for kl in kls(q, r))

    def test_no_strategy_improves(self, literal):
        q, r, strategies = hardy_game(literal)
        sigma = self.sigma(q, r)
        assert math.isclose(sigma[0], 0.265141, rel_tol=1e-5)
        assert certificate(q, r, strategies, sigma).max() <= 1.0 + 1e-12

    def test_the_paper_point_has_unequal_kls(self):
        # setup 1 carries about three times the evidence of each other
        # setup, so the experimenter's best setup does better here than at
        # the literal point
        paper = hardy_optimize_r().r_opt
        assert math.isclose(paper, 0.033584, rel_tol=1e-4)
        setup_1, *others = kls(*hardy_game(paper)[:2])
        assert math.isclose(setup_1, 0.03416, rel_tol=1e-3)
        assert all(math.isclose(kl, 0.01126, rel_tol=1e-3) for kl in others)
