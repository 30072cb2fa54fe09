"""Grid minimax searches for the strongest local-realist strategies.

Each function asks: over all probability assignments on a uniform grid that
the relevant locality inequality allows, which one minimizes the per-trial
evidence rate of the best experimental setup?  The experimenter is assumed
to test the single setup with the largest per-trial KL against the
assignment, so the assignment's value is that maximum and the searches are
minimax.  None of them presume the symmetric answer; the grids (dis)confirm
it.

All three searches return the exact optimum of their grids without
enumerating them, ties broken toward the lexicographically smallest
assignment as an enumeration in index order breaks them.  Each reduces its
grid to one axis where one rate falls and another rises; one helper,
_first, gallops and bisects for the crossing cell and the tie cells, and
only those are scored, with the scalar _kl that kl_per_trial uses, on
_cell's cells (np.linspace's bit for bit, without numpy): 7 or 8 for GHZ,
6 to 13 for chained k = 2..12 and 9 for Hardy at their default grids.  The
tests keep the enumerations, a search over both full chained KL tables and
a scan of every Hardy cell as oracles.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable
from dataclasses import dataclass

from .bayes import _check_int, _kl
from .scenarios import _HARDY_Q, HARDY_MODE_PAPER, HARDY_MODES, chained_pair

__all__ = [
    "ChainAssignment",
    "GhzAssignment",
    "HardyAssignment",
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
    against a claimed average e_j is KL(1, (1 + e_j)/2) = -ln((1 + e_j)/2).
    The first three components run over a uniform grid of [-1, 1]; the
    fourth is set to the largest value the bound allows, which lowers its
    own rate and leaves the others untouched, so no candidate optimum is
    lost to the reduction.

    The rate falls as e grows, and the float e4 = 2 - e1 - e2 - e3 falls as
    any of e1, e2, e3 grows, so the diagonal triple (m, m, m) scores no worse
    than any triple whose smallest index is m: the grid optimum is the best
    diagonal value.  Along the diagonal the leading rate falls and e4's
    rises, so a gallop out from e = 1/2's cell 3 grid_steps/4 and a bisection
    find the first cell c where the leading rate is at most e4's (false at
    cell 0, true at the last).  The optimum is the leading rate at c - 1 or
    e4's at c, and the lexicographically smallest triple attaining it is
    (a, a, a), a the first cell whose leading rate does not exceed it: bit
    for bit what the enumeration of all triples, a test oracle, returns.
    """
    grid_steps = _check_int("grid_steps", grid_steps, 10)

    def diagonal(i: int) -> tuple[float, float]:  # cell i's average and the e4 it leaves
        e = _cell(i, grid_steps, -1.0)
        return e, min(max(2.0 - e - e - e, -1.0), 1.0)

    def rate(i: int, setup: int) -> float:  # setup 0: the three leading ones, 1: the fourth
        return _kl(1.0, (1.0 + diagonal(i)[setup]) / 2.0)

    c = _first(lambda i: rate(i, 0) <= rate(i, 1), 0, grid_steps, 3 * grid_steps // 4)
    best_val = min(rate(c - 1, 0), rate(c, 1))
    a = _first(lambda i: rate(i, 0) <= best_val, 0, c, c - 1)
    e, e4 = diagonal(a)
    return GhzAssignment(e=(e, e, e, e4)), best_val


def minimax_lr_chained(k: int = 2, grid_steps: int = 100) -> tuple[ChainAssignment, float]:
    """Exact optimum of the grid minimax over the chained-inequality polytope.

    QM predicts q = (1 - cos(pi/2k))/2 for the first 2k - 1 setups and 1 - q
    for the last.  All 2k axes are gridded over [0, 1]; points where the
    leading probabilities sum to less than the last are infeasible.  The
    (grid_steps + 1)^2k points are never enumerated, nor are the two KL
    tables built: the search scores O(log grid_steps) cells (6 for k = 2 and
    12 for k = 12 at 100 cells), and its slot loop takes O(k) steps.

    A point's value is the largest of its per-axis KL values.  Feasibility
    is decided in whole cells (leading indices summing to at least the
    last), as the float sums with their 1e-12 slack decide it while the cell
    is far above 1e-12.  Put every leading slot at cell i: the last slot may
    then take any cell up to min((2k - 1) i, grid_steps), so the point
    scores val_i = max(KL(q, g_i), reach_i), reach_i the smallest KL(1 - q,
    g_j) over those cells, and the optimum is the smallest val_i.  No
    feasible point beats it: with i its largest leading index, KL(q, g_i)
    and reach_i are both at most its value.

    Not every val_i is scored.  reach_i never rises with i.  Let c be the
    first cell i >= 1 where KL(q, g_i) >= reach_i, the crossing (cell
    grid_steps has KL = +inf).  Left of c, val_i = reach_i >= reach_(c-1) =
    val_(c-1); from c on, KL(q, g_i) never falls, so val_i >= val_c.  The
    optimum is thus the smaller of val_(c-1) and val_c.  The crossing test
    is false on cells 1 .. c-1 and true from c on, so a gallop out from the
    continuous optimum's cell grid_steps/2k and a bisection find c.  They
    also find the cells that break ties: the leading cells with KL <= the
    optimum form an interval [lo, hi] around q's cell, and the last slot's
    first such cell lies between the cells holding reach_(hi-1) and
    reach_hi.  Slot by slot, the lexicographically smallest point attaining
    the optimum takes the smallest cell of [lo, hi] that still lets the
    remaining slots reach the last one, so lo is sought only when a slot's
    need falls below it: bit for bit what the enumeration of all points,
    kept as a test oracle, returns.

    The argument rests on each float KL table falling strictly to its first
    minimum and never falling after it, the last slot's bottoming out at
    1 - q's cell a, rounded down, or at a + 1: reach_i is then KL(1 - q,
    g_j) at j = min((2k - 1) i, grid_steps) while j <= a, and that minimum
    past it.  The crossing lies at or past the leading table's minimum,
    where KL(q, g_i) is near 0 and reach_i large.  The tests check all of
    this cell by cell for k = 2 .. 12 up to 10007 cells, and the search
    against the full tables up to 1e5 cells; around each minimum the premise
    holds up to 1e8 cells.  Finer grids (1e9 cells for k = 2) can wiggle
    within a few cells of a minimum, where neighbouring cells differ by less
    than the logs' rounding, but the answer does not move.  Near q's cell
    reach_i is large, so the crossing test is false whatever the wiggles,
    and all those cells lie inside [lo, hi].  Near 1 - q's cell, reached
    from leading cells past (1 - q)/(2k - 1) > 1/2k, reach_i is within
    rounding of 0 while KL(q, g_i) is above its value at 1/2k, so the test
    is true whatever the wiggles and whichever of a and a + 1 is taken as
    the minimum.  Everything the answer depends on sits near 1/2k, near
    1 - 1/2k and at lo, where neighbouring cells differ by about the slope
    over grid_steps, far above the rounding.
    """
    k = _check_int("k", k, 2)  # as chained_pair checks it, but a Python int for the cell arithmetic
    pair = chained_pair(k)
    # a 1-cell grid has only the corners, where every KL is infinite
    grid_steps = _check_int("grid_steps", grid_steps, 2)
    n_left = 2 * k - 1
    kl_left, kl_last = _KlCells(pair.q, grid_steps), _KlCells(1.0 - pair.q, grid_steps)
    # 1 - q's cell, rounded down: the last slot's table bottoms out there or one cell on
    a = min(int((1.0 - pair.q) * grid_steps), grid_steps - 1)

    def reach_cell(i: int) -> int:  # the cell holding reach_i
        j = min(n_left * i, grid_steps)
        return j if j <= a else a if kl_last[a] <= kl_last[a + 1] else a + 1

    start = max(1, (grid_steps + k) // (2 * k))
    c = _first(lambda i: kl_left[i] >= kl_last[reach_cell(i)], 0, grid_steps, start)
    best_val = min(max(kl_left[i], kl_last[reach_cell(i)]) for i in (c - 1, c))
    hi = _first(lambda i: kl_left[i] > best_val, c - 1, grid_steps, c) - 1
    below = reach_cell(hi - 1) if kl_last[reach_cell(hi - 1)] > best_val else 0
    last = _first(lambda j: kl_last[j] <= best_val, below, reach_cell(hi))

    # slot by slot, the smallest cell of [lo, hi] that still lets the
    # remaining slots reach the last one: lo while the need is below it, then
    # the need itself, after which each remaining slot needs exactly hi
    lo = None  # sought only once a need falls outside [lo, hi]
    idx: list[int] = []
    total = 0
    for rest in range(n_left - 1, -1, -1):
        need = last - total - rest * hi
        if lo is None and need < hi and (need <= 0 or kl_left[need] > best_val):
            lo = _first(lambda i: kl_left[i] <= best_val, max(need, 0), hi)
        if lo is None or need >= lo:
            idx += [need] + [hi] * rest
            break
        idx.append(lo)
        total += lo
    probs = tuple(_cell(i, grid_steps, 0.0) for i in idx + [last])
    return ChainAssignment(probs=probs), best_val


class _KlCells(dict):
    """_kl(p, g_i) over the cells g_i = _cell(i, steps, 0.0), by index i,
    each scored the first time it is read."""

    def __init__(self, p: float, steps: int):
        super().__init__()
        self.p, self.steps = p, steps

    def __missing__(self, i: int) -> float:
        kl = self[i] = _kl(self.p, _cell(i, self.steps, 0.0))
        return kl


def _cell(i: int, steps: int, lo: float) -> float:
    """Cell i of np.linspace(lo, 1, steps + 1), bit for bit, by linspace's own
    formula: i times the step, plus lo, the last cell 1.0."""
    return 1.0 if i == steps else i * ((1.0 - lo) / steps) + lo


def _first(pred: Callable[[int], bool], lo: int, hi: int, start: int | None = None) -> int:
    """The first index in (lo, hi] where pred holds, pred taken as false at lo
    and true at hi and switching once between.  From start, the search
    gallops out in steps 1, 2, 4, ... to a bracket; it then bisects.  Every
    crossing and tie cell of the three searches is found here."""
    if start is not None:
        step = 1
        if pred(start):
            hi = start
            while (i := hi - step) > lo and pred(i):
                hi, step = i, 2 * step
            lo = max(lo, i)
        else:
            lo = start
            while (i := lo + step) < hi and not pred(i):
                lo, step = i, 2 * step
            hi = min(hi, i)
    return lo + 1 + bisect.bisect_left(range(lo + 1, hi), True, key=pred)


def _hardy_rates(r: tuple[float, float, float, float], mode: str) -> tuple[float, float]:
    """The experimenter's two rates against a Hardy assignment r, the larger
    its value: setup 1's KL(q, r1), and the zero-coincidence family's,
    -ln(1 - r1) in "paper" mode, max_j -ln(1 - r_j) over j = 2..4 in "literal"."""
    r1, r2, r3, r4 = r
    share = r1 if mode == HARDY_MODE_PAPER else max(r2, r3, r4)
    family = math.inf if share >= 1.0 else -math.log1p(-share)
    return _kl(_HARDY_Q, r1), family


def _balanced_split(i: int, cell: float, mode: str) -> tuple[float, float, float, float]:
    """The balanced split of r1 = i grid cells over setups 2..4: r1/3 each
    in "paper" mode; whole cells, the largest ceil(i/3), in "literal" mode."""
    r1 = i * cell
    if mode == HARDY_MODE_PAPER:
        return r1, r1 / 3.0, r1 / 3.0, r1 / 3.0
    c, rem = divmod(i, 3)
    return r1, c * cell, (c + (1 if rem == 2 else 0)) * cell, (c + (1 if rem == 1 else 0)) * cell


def minimax_lr_hardy(grid_steps: int = 1000, mode: str = HARDY_MODE_PAPER) -> tuple[HardyAssignment, float]:
    """Exact optimum of the grid minimax over CH-saturating Hardy assignments, r1 on
    a uniform grid of [0, 1], with n_real = ln(1e4) / rate there: the trials to the
    paper's 1e4 factor.  n_real stays only because bench/workloads.py's check_analysis
    divides ln(1e4) by it; the search should return the rate, as the GHZ and chained do.

    Only r1 needs a grid.  In "paper" mode the zero-coincidence family's rate
    depends on r1 alone and any CH-feasible split ties, so the symmetric
    split r1/3 is reported.  In "literal" mode the best split is solved
    exactly: max_j -ln(1 - r_j) grows with the largest share, and with the
    shares confined to the same grid the smallest achievable largest share is
    ceil(i/3) cells out of r1's i, the balanced split.  Each r1 is scored by
    the larger of _hardy_rates' two terms on that split in whole cells.  The
    reported r4 is r1 - r2 - r3 instead, which saturates CH exactly in
    floating point but may round past the cell value, so it is not the one
    scored.

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
    if mode not in HARDY_MODES:
        raise ValueError(f"mode must be one of {HARDY_MODES}, got {mode!r}")
    cell = 1.0 / grid_steps

    def crossed(i: int) -> bool:
        setup1, family = _hardy_rates(_balanced_split(i, cell, mode), mode)
        return setup1 <= family

    top = math.ceil(_HARDY_Q / cell)  # below grid_steps: q < 0.1 and grid_steps >= 50
    first = _first(crossed, 0, top)
    splits = (_balanced_split(i, cell, mode) for i in range(first - 1, first + 1))
    best_val, (r1, r2, r3, _) = min((max(*_hardy_rates(split, mode)), split) for split in splits)
    r4 = r1 - r2 - r3  # saturates the CH inequality exactly
    return HardyAssignment(r=(r1, r2, r3, r4)), math.log(1e4) / best_val
