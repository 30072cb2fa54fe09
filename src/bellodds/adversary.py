"""Grid minimax searches for the strongest local-realist strategies.

Each function asks: over all probability assignments on a uniform grid that
the relevant locality inequality allows, which one minimizes the per-trial
evidence rate of the best experimental setup?  The experimenter is assumed
to test the single setup with the largest per-trial KL against the
assignment, so the assignment's value is that maximum and the searches are
minimax.  None of them presume the symmetric answer; the grids (dis)confirm
it.

The GHZ and chained searches return the exact optimum of their grids
without enumerating them, ties broken toward the lexicographically smallest
assignment as an enumeration in index order breaks them; the tests keep
those enumerations as oracles.  The Hardy search bisects its one-dimensional
r1 grid for the first cell where setup 1's rate drops to the
zero-coincidence family's and scores only that cell and the one before it;
the tests keep the scan of every cell as its oracle.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .bayes import _check_int, _kl, _kl_logs
from .scenarios import _HARDY_Q, _HARDY_Q_LOGS, HARDY_MODE_PAPER, HARDY_MODES, chained_pair

__all__ = [
    "ChainAssignment",
    "GhzAssignment",
    "HardyAssignment",
    "hardy_objective",
    "minimax_lr_chained",
    "minimax_lr_ghz",
    "minimax_lr_hardy",
]

_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class GhzAssignment:
    """Product averages a local-realist rule assigns to the four GHZ setups,
    with the sign of the fourth absorbed so the constraint is |sum| <= 2."""

    e: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.e) != 4 or any(not -1.0 <= x <= 1.0 for x in self.e):
            raise ValueError(f"need four averages in [-1, 1], got {self.e!r}")
        total = math.fsum(self.e)
        if not -2.0 - _FEAS_TOL <= total <= 2.0 + _FEAS_TOL:
            raise ValueError(f"averages violate the bound |sum| <= 2: sum={total!r}")


@dataclass(frozen=True)
class ChainAssignment:
    """Equal-result probabilities for the 2k chained setups; the first 2k - 1
    must sum to at least the last."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.probs) < 4 or len(self.probs) % 2:
            raise ValueError(f"need an even number >= 4 of probabilities, got {len(self.probs)}")
        if any(not 0.0 <= p <= 1.0 for p in self.probs):
            raise ValueError(f"probabilities out of [0, 1]: {self.probs!r}")
        if math.fsum(self.probs[:-1]) < self.probs[-1] - _FEAS_TOL:
            raise ValueError("chained inequality violated: sum of leading terms < last term")


@dataclass(frozen=True)
class HardyAssignment:
    """Coincidence probabilities (r1, r2, r3, r4) claimed by a local-realist
    rule; the CH inequality requires r1 <= r2 + r3 + r4."""

    r: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.r) != 4 or any(not 0.0 <= x <= 1.0 for x in self.r):
            raise ValueError(f"need four probabilities in [0, 1], got {self.r!r}")
        if self.r[0] > math.fsum(self.r[1:]) + _FEAS_TOL:
            raise ValueError("CH inequality violated: r1 > r2 + r3 + r4")


def minimax_lr_ghz(grid_steps: int = 200) -> tuple[GhzAssignment, float]:
    """Exact optimum of the grid minimax over the Mermin polytope: the
    assignment that minimizes the best setup's per-trial evidence rate.

    QM predicts "yes" with certainty in every setup, so setup j's rate
    against a claimed average e_j is -ln((1 + e_j) / 2).  The first three
    components run over a uniform grid of [-1, 1]; the fourth is set to the
    largest value the bound allows, which lowers its own rate and leaves the
    others untouched, so no candidate optimum is lost to the reduction.

    The rate falls as e grows, and the float e4 = 2 - e1 - e2 - e3 falls as
    any of e1, e2, e3 grows, so the diagonal triple (m, m, m) scores no worse
    than any triple whose smallest index is m.  The grid optimum is thus the
    best diagonal value, and the lexicographically smallest triple attaining
    it is (a, a, a), a the first index whose rate does not exceed it: bit for
    bit what the enumeration of all triples, kept as a test oracle, returns.
    """
    grid_steps = _check_int("grid_steps", grid_steps, 10)
    g = np.linspace(-1.0, 1.0, grid_steps + 1)
    e4 = np.minimum(np.maximum(2.0 - g - g - g, -1.0), 1.0)
    with np.errstate(divide="ignore"):
        rate = -np.log((1.0 + g) / 2.0)
        rate4 = -np.log((1.0 + e4) / 2.0)
    best_val = float(np.maximum(rate, rate4).min())
    a = int((rate <= best_val).argmax())
    return GhzAssignment(e=(float(g[a]),) * 3 + (float(e4[a]),)), best_val


def minimax_lr_chained(k: int = 2, grid_steps: int = 100) -> tuple[ChainAssignment, float]:
    """Exact optimum of the grid minimax over the chained-inequality polytope.

    QM predicts q = (1 - cos(pi/2k))/2 for the first 2k - 1 setups and 1 - q
    for the last.  All 2k axes are gridded over [0, 1]; points where the
    leading probabilities sum to less than the last are infeasible.  The
    (grid_steps + 1)^2k points are never enumerated: the search takes
    O(grid_steps) array work at any k.

    A point's value is the largest of its per-axis KL values.  Feasibility
    is decided in whole cells (leading indices summing to at least the
    last), as the float sums with their 1e-12 slack decide it while the cell
    is far above 1e-12.  Put every leading slot at cell i: the last slot may
    then take any cell up to min((2k - 1) i, grid_steps), so the point
    scores max(KL(q, g_i), reach_i), reach_i the smallest KL(1 - q, g_j)
    over those cells, and the optimum is the smallest such score.  No
    feasible point beats it: with i its largest leading index, KL(q, g_i)
    and reach_i are both at most its value.  The lexicographically smallest
    point attaining the optimum follows slot by slot: bit for bit what the
    enumeration of all points, kept as a test oracle, returns.
    """
    pair = chained_pair(k)  # validates k: an integer >= 2
    # a 1-cell grid has only the corners, where every KL is infinite
    grid_steps = _check_int("grid_steps", grid_steps, 2)
    n_left = 2 * k - 1
    g = np.linspace(0.0, 1.0, grid_steps + 1)
    kl_left, kl_last = _kl_tables((pair.q, 1.0 - pair.q), g)

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


def _kl_tables(ps: tuple[float, ...], g: np.ndarray) -> list[np.ndarray]:
    """_kl(p, r) over a grid g of [0, 1] for each p in (0, 1), bit for bit."""
    inner = g[1:-1]  # each cell's logs are taken once, for every p; ln 0 = -inf makes the ends +inf
    log_r = np.array([-math.inf, *map(math.log, inner.tolist()), 0.0])
    log1m_r = np.array([0.0, *map(math.log1p, (-inner).tolist()), -math.inf])
    return [np.where(kl > 0.0, kl, 0.0) for kl in (_kl_logs(p, math.log(p), math.log1p(-p), log_r, log1m_r) for p in ps)]


def hardy_objective(r: tuple[float, float, float, float], mode: str = HARDY_MODE_PAPER) -> float:
    """Experimenter's best per-trial rate against a Hardy assignment.

    Setup 1 contributes KL(q, r1).  The zero-coincidence setups contribute
    -ln(1 - r1) jointly in "paper" mode, or max_j -ln(1 - r_j) over j = 2..4
    in "literal" mode.  Each value must be a probability; feasibility of
    the assignment is the caller's concern.
    """
    if mode not in HARDY_MODES:
        raise ValueError(f"mode must be one of {HARDY_MODES}, got {mode!r}")
    if len(r) != 4 or any(not 0.0 <= x <= 1.0 for x in r):  # also rejects NaN
        raise ValueError(f"need four probabilities in [0, 1], got {r!r}")
    return max(*_hardy_rates(r, mode))


def _hardy_rates(r: tuple[float, float, float, float], mode: str) -> tuple[float, float]:
    """Setup 1's rate and the zero-coincidence family's rate, the two terms
    hardy_objective takes the larger of."""
    r1, r2, r3, r4 = r
    share = r1 if mode == HARDY_MODE_PAPER else max(r2, r3, r4)
    family = math.inf if share >= 1.0 else -math.log1p(-share)
    return _kl(_HARDY_Q, r1, _HARDY_Q_LOGS), family


def _balanced_split(i: int, cell: float, mode: str) -> tuple[float, float, float, float]:
    """The balanced split of r1 = i grid cells over setups 2..4: r1/3 each
    in "paper" mode; whole cells, the largest ceil(i/3), in "literal" mode."""
    r1 = i * cell
    if mode == HARDY_MODE_PAPER:
        return r1, r1 / 3.0, r1 / 3.0, r1 / 3.0
    c, rem = divmod(i, 3)
    return r1, c * cell, (c + (1 if rem == 2 else 0)) * cell, (c + (1 if rem == 1 else 0)) * cell


def minimax_lr_hardy(
    grid_steps: int = 1000, target_d: float = 1e4, mode: str = HARDY_MODE_PAPER
) -> tuple[HardyAssignment, float]:
    """Exact optimum of the grid minimax over CH-saturating Hardy
    assignments, r1 on a uniform grid of [0, 1]; return it with the trial
    count n_real = ln(target_d) / rate at the optimum.

    Only r1 needs a grid.  In "paper" mode the zero-coincidence family's rate
    depends on r1 alone and any CH-feasible split ties, so the symmetric
    split r1/3 is reported.  In "literal" mode the best split is solved
    exactly: max_j -ln(1 - r_j) grows with the largest share, and with the
    shares confined to the same grid the smallest achievable largest share is
    ceil(i/3) cells out of r1's i, the balanced split.  Each r1 is scored by
    hardy_objective on that split in whole cells.  The reported r4 is
    r1 - r2 - r3 instead, which saturates CH exactly in floating point but
    may round past the cell value, so it is not the one scored.

    The grid is not scanned.  The family rate -ln(1 - share) does not
    decrease with the cell index i, and setup 1's KL(q, r1) does not
    increase on cells 0 .. ceil(q / cell), so on those cells the test
    KL <= family is false up to a first cell i* and true from it on (cell 0
    fails it, KL being infinite; the last one passes it once grid_steps >=
    50), and bisection finds i* in O(log grid_steps) objective evaluations.
    Left of i* the objective is setup 1's KL, which falls, so i* - 1 beats
    every cell before it; from i* on the objective is at least the family
    rate at i*, which i* attains, so no later cell beats i* (ties go to the
    smaller r1).  The cells i* - 1 and i* are scored with the same (value,
    split) tuples a scan of every cell minimizes, so ties break as that scan
    breaks them: bit for bit what the scan, kept as a test oracle, returns.
    """
    grid_steps = _check_int("grid_steps", grid_steps, 50)
    if not (math.isfinite(target_d) and target_d > 1.0):
        raise ValueError(f"target_d must be finite and > 1, got {target_d!r}")
    if mode not in HARDY_MODES:
        raise ValueError(f"mode must be one of {HARDY_MODES}, got {mode!r}")
    cell = 1.0 / grid_steps

    def crossed(i: int) -> bool:
        setup1, family = _hardy_rates(_balanced_split(i, cell, mode), mode)
        return setup1 <= family

    top = min(grid_steps, math.ceil(_HARDY_Q / cell))
    first = bisect.bisect_left(range(top + 1), True, key=crossed)
    splits = (_balanced_split(i, cell, mode) for i in range(first - 1, first + 1))
    best_val, (r1, r2, r3, _) = min((max(*_hardy_rates(split, mode)), split) for split in splits)
    r4 = r1 - r2 - r3  # saturates the CH inequality exactly
    n_real = math.log(target_d) / best_val
    return HardyAssignment(r=(r1, r2, r3, r4)), n_real
