"""Grid-search verification of the saturating local-realist strategies.

The searches themselves must reproduce the symmetric optima; on top of that,
independent full-grid enumerations written out in this file check the GHZ
and chained searches bit for bit, and the Hardy split structure, without
going through the module's own reductions.  A scan of every Hardy grid cell
checks the Hardy bisection bit for bit, and a search over both full KL tables
checks the chained search's gallop and bisection.
"""

import math
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from bellodds import adversary
from bellodds.adversary import (
    ChainAssignment,
    GhzAssignment,
    HardyAssignment,
    _balanced_split,
    _cell,
    _hardy_rates,
    minimax_lr_chained,
    minimax_lr_ghz,
    minimax_lr_hardy,
)
from bellodds.bayes import HypothesisPair, _kl, _kl_logs, kl_per_trial
from bellodds.scenarios import chained_pair, hardy_q

LN_4_3 = 0.28768207245178085
LN_1E4 = 9.210340371976184
CHAINED2_KL = 0.03207458648010171
CHAINED3_KL = 0.04435808735167082
HARDY_R_PAPER = 0.03358368136411276
HARDY_R_LITERAL = 0.04760651934579549
HARDY_KL_LITERAL = 0.01599609790805268
# 40-digit evaluations of the 1000-cell grid optima
HARDY_GRID_VALUE_PAPER = 0.034591444769619055
HARDY_GRID_TRIALS_PAPER = 266.260644310105
HARDY_GRID_VALUE_LITERAL = 0.01612938192988363


def ghz_rates(e: np.ndarray) -> np.ndarray:
    """-ln((1 + e)/2) per cell, +inf at e = -1, with the scalar math.log that
    _kl takes, not numpy's array log, whose last bit depends on the CPU and
    the numpy version."""
    values, inverse = np.unique(e, return_inverse=True)
    rates = np.array([-math.log((1.0 + x) / 2.0) if x > -1.0 else math.inf for x in values.tolist()])
    return rates[inverse.reshape(-1)].reshape(e.shape)


def enumerate_ghz(grid_steps: int = 200) -> tuple[GhzAssignment, float]:
    """Oracle for minimax_lr_ghz: every grid triple, scored in index order."""
    if grid_steps < 10:
        raise ValueError(f"grid_steps must be >= 10, got {grid_steps}")
    g = np.linspace(-1.0, 1.0, grid_steps + 1)
    rate = ghz_rates(g)
    r2 = rate[:, None]
    r3 = rate[None, :]
    best_val = math.inf
    best: tuple[float, float, float, float] | None = None
    for i1, e1 in enumerate(g):
        e4 = np.clip(2.0 - e1 - g[:, None] - g[None, :], -1.0, 1.0)
        rate4 = ghz_rates(e4)
        val = np.maximum(np.maximum(rate[i1], np.maximum(r2, r3)), rate4)
        flat = int(np.argmin(val))
        v = float(val.flat[flat])
        if v < best_val:
            i2, i3 = np.unravel_index(flat, val.shape)
            best_val = v
            best = (float(e1), float(g[i2]), float(g[i3]), float(e4[i2, i3]))
    assert best is not None
    return GhzAssignment(e=best), best_val


def enumerate_chained(
    k: int = 2, grid_steps: int = 100, max_grid_points: float = 2e8
) -> tuple[ChainAssignment, float]:
    """Oracle for minimax_lr_chained: every grid point, scored in index order."""
    pair = chained_pair(k)  # validates k >= 2
    n_axes = 2 * k
    n_points = float(grid_steps + 1) ** n_axes
    if n_points > max_grid_points:  # this one really enumerates them
        raise ValueError(f"(grid_steps+1)^2k = {n_points:.3g} exceeds {max_grid_points:.3g} points")
    g = np.linspace(0.0, 1.0, grid_steps + 1)
    kl_left = np.array([_kl(pair.q, r) for r in g.tolist()])
    kl_last = np.array([_kl(1.0 - pair.q, r) for r in g.tolist()])

    def axis_view(vec: np.ndarray, pos: int) -> np.ndarray:
        shape = [1] * (n_axes - 1)
        shape[pos] = len(g)
        return vec.reshape(shape)

    best_val = math.inf
    best_idx: tuple[int, ...] | None = None
    for i0 in range(len(g)):
        val = np.asarray(kl_left[i0])
        left_sum = g[i0]
        for axis in range(n_axes - 2):
            val = np.maximum(val, axis_view(kl_left, axis))
            left_sum = left_sum + axis_view(g, axis)
        val = np.maximum(val, axis_view(kl_last, n_axes - 2))
        # slack far below the cell size, so saturating points survive the
        # inexact grid sums no matter the summation order
        feasible = left_sum >= axis_view(g, n_axes - 2) - 1e-12
        val = np.where(feasible, val, math.inf)
        flat = int(np.argmin(val))
        v = float(val.flat[flat])
        if v < best_val:
            best_val = v
            best_idx = (i0,) + tuple(int(i) for i in np.unravel_index(flat, val.shape))
    assert best_idx is not None
    probs = tuple(float(g[i]) for i in best_idx)
    return ChainAssignment(probs=probs), best_val


def kl_tables(ps: tuple[float, ...], g: np.ndarray) -> list[np.ndarray]:
    """_kl(p, r) over a grid g of [0, 1] for each p in (0, 1), bit for bit."""
    inner = g[1:-1].tolist()  # each cell's logs are taken once, for every p; ln 0 = -inf makes the ends +inf
    log_r = np.array([-math.inf, *map(math.log, inner), 0.0])
    log1m_r = np.array([0.0, *(math.log1p(-r) for r in inner), -math.inf])
    return [np.where(kl > 0.0, kl, 0.0) for kl in (_kl_logs(p, math.log(p), math.log1p(-p), log_r, log1m_r) for p in ps)]


def table_chained(k: int = 2, grid_steps: int = 100) -> tuple[ChainAssignment, float]:
    """Oracle for minimax_lr_chained: the same reduction to every leading slot
    at one cell, scored over both full KL tables."""
    pair = chained_pair(k)
    n_left = 2 * k - 1
    g = np.linspace(0.0, 1.0, grid_steps + 1)
    kl_left, kl_last = kl_tables((pair.q, 1.0 - pair.q), g)

    reach = np.minimum.accumulate(kl_last)[np.minimum(n_left * np.arange(grid_steps + 1), grid_steps)]
    best_val = float(np.maximum(kl_left, reach).min())
    left = (kl_left <= best_val).nonzero()[0]
    last = int((kl_last <= best_val).argmax())
    idx: list[int] = []
    for rest in range(n_left - 1, -1, -1):
        # smallest index that still lets the remaining slots reach the last one
        need = last - sum(idx) - rest * int(left[-1])
        idx.append(int(left[left.searchsorted(need)]))
    probs = tuple(float(g[i]) for i in idx + [last])
    return ChainAssignment(probs=probs), best_val


def enumerate_hardy(grid_steps: int = 1000, mode: str = "paper") -> tuple[HardyAssignment, float]:
    """Oracle for minimax_lr_hardy: every r1 grid cell, scored in index order."""
    if grid_steps < 50:
        raise ValueError(f"grid_steps must be >= 50, got {grid_steps}")
    cell = 1.0 / grid_steps
    splits = (_balanced_split(i, cell, mode) for i in range(grid_steps + 1))
    best_val, (r1, r2, r3, _) = min((max(*_hardy_rates(split, mode)), split) for split in splits)
    r4 = r1 - r2 - r3  # saturates the CH inequality exactly
    n_real = math.log(1e4) / best_val
    return HardyAssignment(r=(r1, r2, r3, r4)), n_real


def peak_traced_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGrid:
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0)])
    def test_is_linspace_bit_for_bit(self, lo, hi):
        # every steps value up to 3000, the searches' default grids and the
        # largest grid the tables test takes; both CI jobs run it, on numpy 2
        # and on the numpy 1.24 floor
        def cells(steps):
            return np.array([_cell(i, steps, lo) for i in range(steps + 1)])

        mismatched = [
            steps
            for steps in [*range(1, 3001), 200, 100, 10007]
            if cells(steps).tobytes() != np.linspace(lo, hi, steps + 1).tobytes()
        ]
        assert mismatched == []


class TestGhzMinimax:
    def test_symmetric_optimum_at_200_steps(self):
        assignment, value = minimax_lr_ghz(200)
        cell = 2.0 / 200
        for e in assignment.e:
            assert abs(e - 0.5) <= cell + 1e-12
        assert abs(value - LN_4_3) <= 1e-9
        assert abs(math.fsum(assignment.e) - 2.0) <= 1e-9  # bound saturated

    def test_grid_never_beats_continuous_optimum(self):
        _, value = minimax_lr_ghz(50)
        assert value >= LN_4_3 - 1e-12

    def test_refinement_is_monotone(self):
        # the 100-cell grid points are a subset of the 200-cell ones
        _, coarse = minimax_lr_ghz(100)
        _, fine = minimax_lr_ghz(200)
        assert fine <= coarse + 1e-12
        assert coarse <= LN_4_3 + 2.0 / 100  # within one cell's worth of rate

    def test_asymmetry_costs_rate(self):
        # the weakest setup rules: lowering one average raises the minimax value
        rates = [-math.log((1.0 + e) / 2.0) for e in (0.6, 0.5, 0.5, 0.4)]
        assert max(rates) > LN_4_3

    @pytest.mark.parametrize("grid_steps", [9, 200.0, 1000.5, "1000", float("nan")])
    def test_grid_steps_floor(self, grid_steps):
        with pytest.raises(ValueError, match="grid_steps"):
            minimax_lr_ghz(grid_steps)

    def test_matches_enumeration(self):
        grids = [*range(10, 121), 200]
        assert [g for g in grids if repr(minimax_lr_ghz(g)) != repr(enumerate_ghz(g))] == []

    def test_memory_is_linear_in_the_grid(self):
        # no grid is built: at 10^6 cells the grid and its rates would take tens of MB
        assert peak_traced_bytes(lambda: minimax_lr_ghz(10**6)) < 100_000

    def test_optimum_sits_next_to_the_crossing(self):
        """The search's premise, cell by cell along the diagonal: the leading
        rate never rises, the saturating fourth setup's never falls, and the
        crossing test leading <= fourth is false, then true, so the optimum
        is the leading rate at the crossing cell c - 1 or the fourth's at c."""
        for g in [*range(10, 3001, 7), 10007]:
            grid = np.linspace(-1.0, 1.0, g + 1).tolist()
            leading = [_kl(1.0, (1.0 + e) / 2.0) for e in grid]
            fourth = [_kl(1.0, (1.0 + min(max(2.0 - e - e - e, -1.0), 1.0)) / 2.0) for e in grid]
            assert all(a >= b for a, b in zip(leading, leading[1:])), g
            assert all(a <= b for a, b in zip(fourth, fourth[1:])), g
            crossed = [a <= b for a, b in zip(leading, fourth)]
            c = crossed.index(True)
            assert c > 0 and crossed == [False] * c + [True] * (g + 1 - c), g
            assert min(map(max, leading, fourth)) == min(leading[c - 1], fourth[c]), g

    def test_evaluations_are_logarithmic_in_the_grid(self, monkeypatch):
        calls = 0

        def counting_kl(q, r):
            nonlocal calls
            calls += 1
            return _kl(q, r)

        monkeypatch.setattr(adversary, "_kl", counting_kl)
        grid_steps = 10**7  # the grid's two rate arrays would take 2 * (10^7 + 1) logs
        _, value = minimax_lr_ghz(grid_steps)
        assert calls <= 2 * math.log2(grid_steps) + 5
        assert 0.0 <= value - LN_4_3 <= 1e-6

    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            GhzAssignment((0.9, 0.9, 0.9, 0.9))  # sum 3.6 > 2
        with pytest.raises(ValueError):
            GhzAssignment((1.5, 0.0, 0.0, 0.0))


class TestChainedMinimax:
    def test_k2_symmetric_optimum_at_100_steps(self):
        assignment, value = minimax_lr_chained(2, 100)
        cell = 1.0 / 100
        for p, want in zip(assignment.probs, (0.25, 0.25, 0.25, 0.75)):
            assert abs(p - want) <= cell + 1e-12
        assert math.isclose(value, CHAINED2_KL, rel_tol=1e-9)

    def test_k2_optimum_saturates_inequality(self):
        assignment, _ = minimax_lr_chained(2, 100)
        assert abs(math.fsum(assignment.probs[:-1]) - assignment.probs[-1]) <= 1e-9

    def test_complement_symmetry_makes_last_setup_equal(self):
        # KL(1-q, 1-r) == KL(q, r), so at the symmetric point the last setup
        # contributes exactly the same rate as the first 2k - 1
        pair = chained_pair(2)
        flipped = HypothesisPair(1.0 - pair.q, 1.0 - pair.r)
        assert math.isclose(kl_per_trial(flipped), kl_per_trial(pair), rel_tol=1e-12)

    def test_refinement_is_monotone(self):
        _, coarse = minimax_lr_chained(2, 50)
        _, fine = minimax_lr_chained(2, 100)
        assert CHAINED2_KL - 1e-12 <= fine <= coarse + 1e-12
        assert coarse <= CHAINED2_KL + 1.0 / 50

    @pytest.mark.parametrize("grid_steps", [0, -1, True, 200.0, 1000.5, "1000", float("nan")])
    def test_grid_steps_floor(self, grid_steps):
        with pytest.raises(ValueError, match="grid_steps"):
            minimax_lr_chained(2, grid_steps)

    @pytest.mark.parametrize("k", [2.5, 4.0, "4", float("nan")])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            minimax_lr_chained(k, 20)

    def test_numpy_integer_k_accepted(self):
        assert repr(minimax_lr_chained(np.int64(3), 20)) == repr(minimax_lr_chained(3, 20))

    @pytest.mark.parametrize(
        "k, grids",
        [(2, [*range(2, 61), 100]), (3, range(4, 13)), (4, range(3, 6)), (5, range(2, 5))],
    )
    def test_matches_enumeration(self, k, grids):
        def differs(g):
            return repr(minimax_lr_chained(k, g)) != repr(enumerate_chained(k, g))

        assert [g for g in grids if differs(g)] == []

    @pytest.mark.parametrize("k, grid_steps", [(2, 8), (2, 12), (3, 5)])
    def test_exact_for_arbitrary_tables(self, monkeypatch, k, grid_steps):
        # the table oracle's reduction needs no convexity of the KL tables:
        # replace both with seeded draws full of ties and +inf, in the table
        # oracle and in the enumeration alike
        q = chained_pair(k).q
        tables: dict[float, list[float]] = {}

        def table_kl(p: float, r: float) -> float:
            return tables[p][round(r * grid_steps)]

        monkeypatch.setitem(globals(), "kl_tables", lambda ps, g: [np.array(tables[p]) for p in ps])
        monkeypatch.setitem(globals(), "_kl", table_kl)
        mismatched = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for p in (q, 1.0 - q):
                table = rng.integers(0, 5, grid_steps + 1) / 4.0
                table[rng.random(grid_steps + 1) < 0.2] = math.inf
                tables[p] = table.tolist()
            if repr(table_chained(k, grid_steps)) != repr(enumerate_chained(k, grid_steps)):
                mismatched.append(seed)
        assert mismatched == []

    @pytest.mark.parametrize("k", range(2, 13))
    def test_matches_table_search(self, k):
        def differs(g):
            return repr(minimax_lr_chained(k, g)) != repr(table_chained(k, g))

        assert [g for g in [*range(2, 1001), 2000, 3000, 10007, 10**5] if differs(g)] == []

    @pytest.mark.parametrize("k", range(2, 13))
    def test_optimum_sits_next_to_the_crossing(self, k):
        """The search's premise, cell by cell: each KL table falls strictly
        to its first minimum and never falls after it, the last slot's at
        1 - q's cell, rounded down, or the next; the crossing test
        KL(q, g_i) >= reach_i is false, then true, on cells 1 .. grid_steps,
        the crossing c at or past the leading table's minimum; so the
        optimum is val at c - 1 or c."""
        q = chained_pair(k).q
        for g in [*range(2, 301, 7), 1000, 3000, 10007]:
            grid = np.linspace(0.0, 1.0, g + 1)
            kl_left, kl_last = kl_tables((q, 1.0 - q), grid)
            for table in (kl_left, kl_last):
                m = int(table.argmin())
                assert (np.diff(table[: m + 1]) < 0).all() and (np.diff(table[m:]) >= 0).all(), g
            a = int((1.0 - q) * g)  # 1 - q's cell, rounded down
            assert int(kl_last.argmin()) in (a, a + 1), g
            reach = np.minimum.accumulate(kl_last)[np.minimum((2 * k - 1) * np.arange(g + 1), g)]
            crossed = (kl_left >= reach)[1:].tolist()
            c = crossed.index(True) + 1
            assert crossed == [False] * (c - 1) + [True] * (g + 1 - c), g
            assert c >= int(kl_left.argmin()), g
            val = np.maximum(kl_left, reach)
            assert val.min() == min(val[c - 1], val[c]), g

    def test_evaluations_are_logarithmic_in_the_grid(self, monkeypatch):
        calls = 0

        def counting_kl(q, r):
            nonlocal calls
            calls += 1
            return _kl(q, r)

        monkeypatch.setattr(adversary, "_kl", counting_kl)
        grid_steps = 10**7  # the two tables would take 2 * (10^7 + 1) evaluations
        for k in (2, 12):
            calls = 0
            assignment, value = minimax_lr_chained(k, grid_steps)
            assert calls <= 2 * math.log2(grid_steps) + 5, k
            assert 0.0 <= value - kl_per_trial(chained_pair(k)) <= 1e-6, k
            assert abs(assignment.probs[0] - 1.0 / (2 * k)) <= 1e-6, k

    def test_slot_loop_is_linear_in_k(self):
        # 2k - 1 = 39999 leading slots; summing the slots so far at each one
        # made this call take 4.1 s on a 2-vCPU VM, against about 10 ms
        k = 20_000
        started = time.perf_counter()
        assignment, value = minimax_lr_chained(k, 10 * k)
        assert time.perf_counter() - started < 1.0
        assert abs(value - kl_per_trial(chained_pair(k))) <= 1e-12
        assert assignment.probs == (1.0 / (2 * k),) * (2 * k - 1) + (assignment.probs[-1],)
        assert abs(assignment.probs[-1] - (1.0 - 1.0 / (2 * k))) <= 1e-12

    @pytest.mark.parametrize("k", range(2, 13))
    def test_tables_are_the_scalar_kl_of_each_cell(self, k):
        q = chained_pair(k).q
        for grid_steps in (2, 3, 10, 100, 1000, 10007):
            g = np.linspace(0.0, 1.0, grid_steps + 1)
            tables = kl_tables((q, 1.0 - q), g)
            for p, table in zip((q, 1.0 - q), tables, strict=True):
                want = np.array([_kl(p, r) for r in g.tolist()])
                assert table.tobytes() == want.tobytes(), (p, grid_steps)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_saturating_strategy_is_the_grid_optimum(self, k):
        # 1/2k lies on the 10k-cell grid, so the grid optimum is the continuous one
        assignment, value = minimax_lr_chained(k, 10 * k)
        assert abs(value - kl_per_trial(chained_pair(k))) <= 1e-12
        want = (1.0 / (2 * k),) * (2 * k - 1) + (1.0 - 1.0 / (2 * k),)
        assert max(abs(p - w) for p, w in zip(assignment.probs, want)) <= 1e-12

    def test_memory_is_linear_in_the_grid(self):
        # no table is built: at 10^6 cells the two would take tens of MB
        assert peak_traced_bytes(lambda: minimax_lr_chained(2, 10**6)) < 100_000

    def test_k3_coarse_grid_is_sane(self):
        assignment, value = minimax_lr_chained(3, 10)
        assert len(assignment.probs) == 6
        assert value >= CHAINED3_KL - 1e-12

    def test_k3_fine_grid_runs(self):
        # 101^6 = 1.1e12 grid points, none of them built
        assignment, value = minimax_lr_chained(3, 100)
        assert len(assignment.probs) == 6
        assert value >= _kl(chained_pair(3).q, 1.0 / 6.0) - 1e-12

    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            ChainAssignment((0.1, 0.1, 0.1, 0.9))  # 0.3 < 0.9
        with pytest.raises(ValueError):
            ChainAssignment((0.1, 0.2, 0.3))  # odd length

    @pytest.mark.parametrize("probs", [(0.1, 0.1, 0.1, 1.5), (0.1, 0.1, 0.1, math.nan)])
    def test_assignment_rejects_non_probabilities(self, probs):
        with pytest.raises(ValueError, match=r"probabilities out of \[0, 1\]"):
            ChainAssignment(probs)


class TestHardyMinimax:
    def test_paper_grid_optimum(self):
        assignment, n_real = minimax_lr_hardy(1000, "paper")
        r1 = assignment.r[0]
        assert abs(r1 - 0.03358) <= 1e-3  # within one grid cell
        assert math.isclose(n_real, HARDY_GRID_TRIALS_PAPER, rel_tol=1e-9)
        value = LN_1E4 / n_real
        assert math.isclose(value, HARDY_GRID_VALUE_PAPER, rel_tol=1e-9)
        # grid coarseness costs at most a cell's worth of rate
        assert 0.0 <= value - 0.034160565938475516 <= 1e-3

    def test_paper_split_saturates_ch(self):
        assignment, _ = minimax_lr_hardy(1000, "paper")
        r1, r2, r3, r4 = assignment.r
        assert abs(r1 - (r2 + r3 + r4)) <= 1e-12
        assert abs(r2 - r1 / 3.0) <= 1e-12 and abs(r3 - r1 / 3.0) <= 1e-12

    def test_literal_grid_optimum(self):
        assignment, n_real = minimax_lr_hardy(1000, "literal")
        r1, r2, r3, r4 = assignment.r
        assert abs(r1 - HARDY_R_LITERAL) <= 1e-3
        assert math.isclose(LN_1E4 / n_real, HARDY_GRID_VALUE_LITERAL, rel_tol=1e-9)
        assert abs(r1 - (r2 + r3 + r4)) <= 1e-12
        assert max(r2, r3, r4) - min(r2, r3, r4) <= 1.0 / 1000 + 1e-12

    def test_refinement_is_monotone(self):
        for mode in ("paper", "literal"):
            _, n_coarse = minimax_lr_hardy(500, mode)
            _, n_fine = minimax_lr_hardy(1000, mode)
            assert LN_1E4 / n_fine <= LN_1E4 / n_coarse + 1e-12, mode

    def test_all_zero_corner_is_feasible_but_hopeless(self):
        HardyAssignment((0.0, 0.0, 0.0, 0.0))  # CH holds with equality
        for mode in ("paper", "literal"):
            # the zero-coincidence family costs nothing, but setup 1 is fatal
            assert max(*_hardy_rates((0.0, 0.0, 0.0, 0.0), mode)) == math.inf

    @pytest.mark.parametrize("r1", [0.03, 0.0476, 0.06])
    def test_asymmetric_splits_never_beat_balanced(self, r1):
        balanced = (r1, r1 / 3, r1 / 3, r1 / 3)
        lopsided = [
            (r1, 0.0, 0.0, r1),
            (r1, r1 / 2, r1 / 4, r1 / 4),
            (r1, r1 / 6, r1 / 3, r1 / 2),
        ]
        for asym in lopsided:
            assert sum(asym[1:]) >= r1 - 1e-12  # still CH-feasible
            for mode in ("paper", "literal"):
                assert max(*_hardy_rates(asym, mode)) >= max(*_hardy_rates(balanced, mode)) - 1e-12

    def test_independent_full_grid_enumeration(self):
        """Brute-force every (r1, r2, r3, r4) on a coarse grid with the
        literal objective written out here, and confirm the balanced
        CH-saturating split wins."""
        q = hardy_q()
        axis = np.linspace(0.0, 0.12, 31)  # cell 0.004
        r1 = axis[:, None, None, None]
        r2 = axis[None, :, None, None]
        r3 = axis[None, None, :, None]
        r4 = axis[None, None, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            setup1 = q * (np.log(q) - np.log(r1)) + (1 - q) * (np.log1p(-q) - np.log1p(-r1))
        family = np.maximum(-np.log1p(-r2), np.maximum(-np.log1p(-r3), -np.log1p(-r4)))
        objective = np.maximum(setup1, family) + np.zeros(4 * (len(axis),))
        feasible = r1 <= r2 + r3 + r4 + 1e-12
        objective[~np.broadcast_to(feasible, objective.shape)] = np.inf
        best = np.unravel_index(np.argmin(objective), objective.shape)
        cell = axis[1] - axis[0]
        b1, b2, b3, b4 = (axis[i] for i in best)
        assert abs(b1 - HARDY_R_LITERAL) <= 2 * cell
        for split in (b2, b3, b4):
            assert abs(split - b1 / 3.0) <= cell + 1e-12
        assert objective[best] >= HARDY_KL_LITERAL - 1e-12

    @pytest.mark.parametrize("grid_steps", [49, 200.0, 1000.5, "1000", float("nan")])
    def test_grid_steps_floor(self, grid_steps):
        with pytest.raises(ValueError, match="grid_steps"):
            minimax_lr_hardy(grid_steps)

    def test_numpy_integer_grid_steps_accepted(self):
        assert repr(minimax_lr_hardy(np.int64(1000))) == repr(minimax_lr_hardy(1000))

    @pytest.mark.parametrize("mode", ["paper", "literal"])
    def test_matches_enumeration(self, mode):
        def differs(g):
            return repr(minimax_lr_hardy(g, mode)) != repr(enumerate_hardy(g, mode))

        assert [g for g in [*range(50, 601), 1000, 2000, 3000] if differs(g)] == []

    @pytest.mark.parametrize("mode", ["paper", "literal"])
    def test_optimum_sits_next_to_the_crossing(self, mode):
        """The bisection's argument, cell by cell: setup 1's KL <= family
        rate is false, then true, up to the cell past q; the objective falls
        before the first true cell i* and is never below its value at i*
        after it; so the scan's optimum is cell i* - 1 or i*."""
        q = hardy_q()
        for g in [*range(50, 301, 7), 1000, 3000]:
            cell = 1.0 / g
            setup1, family, value = [], [], []
            for i in range(g + 1):
                r1, r2, r3, r4 = _balanced_split(i, cell, mode)
                share = r1 if mode == "paper" else max(r2, r3, r4)
                setup1.append(_kl(q, r1))
                family.append(-math.log1p(-share) if share < 1.0 else math.inf)
                value.append(max(setup1[-1], family[-1]))
            top = min(g, math.ceil(q / cell))
            crossed = [s <= f for s, f in zip(setup1[: top + 1], family[: top + 1])]
            first = crossed.index(True)
            assert not crossed[0] and crossed == [False] * first + [True] * (top + 1 - first), g
            assert all(a > b for a, b in zip(value[:first], value[1:first])), g
            assert min(value[first:]) == value[first] == family[first], g
            best = min(range(g + 1), key=lambda i: (value[i], i))
            assert best in (first - 1, first), g

    def test_evaluations_are_logarithmic_in_the_grid(self, monkeypatch):
        coarse = {mode: minimax_lr_hardy(1000, mode)[0].r[0] for mode in ("paper", "literal")}
        calls = 0

        def counting_kl(q, r):
            nonlocal calls
            calls += 1
            return _kl(q, r)

        monkeypatch.setattr(adversary, "_kl", counting_kl)
        grid_steps = 10**7  # a scan would evaluate 10^7 + 1 cells
        for mode in ("paper", "literal"):
            calls = 0
            assignment, _ = minimax_lr_hardy(grid_steps, mode)
            assert calls <= 2 * math.log2(grid_steps) + 5, mode
            assert abs(assignment.r[0] - coarse[mode]) <= 1e-3, mode

    def test_validation(self):
        with pytest.raises(ValueError):
            minimax_lr_hardy(1000, "folk")
        with pytest.raises(ValueError):
            HardyAssignment((0.5, 0.1, 0.1, 0.1))  # CH violated

    @pytest.mark.parametrize(
        "r",
        [
            (math.nan, 0.0, 0.0, 0.0),
            (0.03, math.nan, math.nan, math.nan),
            (0.03, -0.01, 0.02, 0.02),
            (1.5, 0.5, 0.5, 0.5),
            (0.03, 0.01, 0.01, 1.2),
        ],
    )
    def test_assignment_rejects_non_probabilities(self, r):
        with pytest.raises(ValueError, match=r"need four probabilities in \[0, 1\]"):
            HardyAssignment(r)


def test_searches_leave_numpy_unloaded():
    # the cells come from _cell and the rates from the scalar _kl, so all
    # three searches run in a process that never imports numpy
    probe = (
        "import sys\n"
        "from bellodds.adversary import minimax_lr_chained, minimax_lr_ghz, minimax_lr_hardy\n"
        "minimax_lr_ghz(), minimax_lr_chained(), minimax_lr_hardy(mode='paper'), minimax_lr_hardy(mode='literal')\n"
        "sys.stderr.write(repr(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "[]")
