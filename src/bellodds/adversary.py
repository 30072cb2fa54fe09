"""Brute-force grid search for the strongest local-realist strategies.

Each function asks: over all probability assignments the relevant locality
inequality allows, which one minimizes the per-trial evidence rate of the
best experimental setup?  The experimenter is assumed to test the single
setup with the largest per-trial KL against the assignment, so the
assignment's value is that maximum and the searches are minimax.  None of
them presume the symmetric answer; the grids (dis)confirm it.

Ties are broken toward the lexicographically smallest assignment, and every
objective is a pure function of the assignment, so results are independent
of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayes import _kl
from .scenarios import (
    HARDY_MODE_PAPER,
    HARDY_MODES,
    chained_pair,
    hardy_q,
)

__all__ = [
    "ChainAssignment",
    "GhzAssignment",
    "GridBudgetError",
    "HardyAssignment",
    "hardy_objective",
    "minimax_lr_chained",
    "minimax_lr_ghz",
    "minimax_lr_hardy",
]

_FEAS_TOL = 1e-9


class GridBudgetError(ValueError):
    """The requested exhaustive grid exceeds the configured point budget."""


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

    @property
    def yes_probabilities(self) -> tuple[float, ...]:
        return tuple((1.0 + x) / 2.0 for x in self.e)


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
    """Grid-search the Mermin polytope for the assignment that minimizes the
    best setup's per-trial evidence rate.

    QM predicts "yes" with certainty in every setup, so setup j's rate
    against a claimed average e_j is -ln((1 + e_j) / 2).  The first three
    components run over a uniform grid of [-1, 1]; the fourth is set to the
    largest value the bound allows, which lowers its own rate and leaves the
    others untouched, so no candidate optimum is lost to the reduction.
    """
    if grid_steps < 10:
        raise ValueError(f"grid_steps must be >= 10, got {grid_steps}")
    g = np.linspace(-1.0, 1.0, grid_steps + 1)
    with np.errstate(divide="ignore"):
        rate = -np.log((1.0 + g) / 2.0)
    r2 = rate[:, None]
    r3 = rate[None, :]
    best_val = math.inf
    best: tuple[float, float, float, float] | None = None
    for i1, e1 in enumerate(g):
        e4 = np.clip(2.0 - e1 - g[:, None] - g[None, :], -1.0, 1.0)
        with np.errstate(divide="ignore"):
            rate4 = -np.log((1.0 + e4) / 2.0)
        val = np.maximum(np.maximum(rate[i1], np.maximum(r2, r3)), rate4)
        flat = int(np.argmin(val))
        v = float(val.flat[flat])
        if v < best_val:
            i2, i3 = np.unravel_index(flat, val.shape)
            best_val = v
            best = (float(e1), float(g[i2]), float(g[i3]), float(e4[i2, i3]))
    assert best is not None
    return GhzAssignment(e=best), best_val


def minimax_lr_chained(
    k: int = 2, grid_steps: int = 100, max_grid_points: float = 2e8
) -> tuple[ChainAssignment, float]:
    """Exhaustive-grid minimax over the chained-inequality polytope.

    QM predicts q = (1 - cos(pi/2k))/2 for the first 2k - 1 setups and 1 - q
    for the last.  All 2k axes are gridded over [0, 1]; points where the
    leading probabilities sum to less than the last are infeasible.  The
    point count (grid_steps + 1)^2k must fit max_grid_points, which in
    practice limits the exhaustive search to k = 2 at meaningful resolutions;
    larger k needs a coarser opt-in grid.
    """
    pair = chained_pair(k)  # validates k >= 2
    n_axes = 2 * k
    n_points = float(grid_steps + 1) ** n_axes
    if n_points > max_grid_points:
        raise GridBudgetError(
            f"(grid_steps+1)^2k = {n_points:.3g} exceeds the budget of {max_grid_points:.3g} points"
        )
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


def hardy_objective(r: tuple[float, float, float, float], mode: str = HARDY_MODE_PAPER) -> float:
    """Experimenter's best per-trial rate against a Hardy assignment.

    Setup 1 contributes KL(q, r1).  The zero-coincidence setups contribute
    -ln(1 - r1) jointly in "paper" mode, or max_j -ln(1 - r_j) over j = 2..4
    in "literal" mode.  Feasibility of the assignment is the caller's
    concern.
    """
    if mode not in HARDY_MODES:
        raise ValueError(f"mode must be one of {HARDY_MODES}, got {mode!r}")
    r1, r2, r3, r4 = r
    setup1 = _kl(hardy_q(), r1)
    share = r1 if mode == HARDY_MODE_PAPER else max(r2, r3, r4)
    family = math.inf if share >= 1.0 else -math.log1p(-share)
    return max(setup1, family)


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
    """Scan r1 over a uniform grid of [0, 1] for the CH-saturating assignment
    minimizing the experimenter's best rate; return it with the trial count
    n_real = ln(target_d) / rate at the optimum.

    Only r1 needs a grid.  In "paper" mode the zero-coincidence family's rate
    depends on r1 alone and any CH-feasible split ties, so the symmetric
    split r1/3 is reported.  In "literal" mode the best split is solved
    exactly: max_j -ln(1 - r_j) grows with the largest share, and with the
    shares confined to the same grid the smallest achievable largest share is
    ceil(i/3) cells out of r1's i, the balanced split.  Each r1 is scored by
    hardy_objective on that split in whole cells.  The reported r4 is
    r1 - r2 - r3 instead, which saturates CH exactly in floating point but
    may round past the cell value, so it is not the one scored.
    """
    if grid_steps < 50:
        raise ValueError(f"grid_steps must be >= 50, got {grid_steps}")
    if not (math.isfinite(target_d) and target_d > 1.0):
        raise ValueError(f"target_d must be finite and > 1, got {target_d!r}")
    cell = 1.0 / grid_steps
    splits = (_balanced_split(i, cell, mode) for i in range(grid_steps + 1))
    best_val, (r1, r2, r3, _) = min((hardy_objective(split, mode), split) for split in splits)
    r4 = r1 - r2 - r3  # saturates the CH inequality exactly
    n_real = math.log(target_d) / best_val
    return HardyAssignment(r=(r1, r2, r3, r4)), n_real
