"""The Bell-test scenarios, each reduced to a per-trial (q, r) hypothesis pair.

Every scenario pits an ideal quantum prediction against the local-realist
counter-theory that saturates the relevant locality inequality; saturation
minimizes the evidence the experimenter collects per trial, so these pairs
are the hardest case for ruling local realism out.  The adversary module
verifies the saturating strategies numerically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .bayes import HypothesisPair, _check_int, _kl_logs, required_trials

__all__ = [
    "BisectionError",
    "ChainedGeometry",
    "GHZ",
    "CHAINED",
    "HARDY",
    "HARDY_NAIVE",
    "HARDY_MODE_LITERAL",
    "HARDY_MODE_PAPER",
    "HardySolution",
    "KINDS",
    "ScenarioResolution",
    "ScenarioSpec",
    "chained_pair",
    "find_optimal_k",
    "ghz_pair",
    "hardy_naive_trials",
    "hardy_optimize_r",
    "hardy_q",
    "scenario_pair",
]

GHZ = "ghz"
CHAINED = "chained"
HARDY = "hardy"
HARDY_NAIVE = "hardy-naive"
KINDS = (GHZ, CHAINED, HARDY, HARDY_NAIVE)

# Conventions for the evidence rate of Hardy's three zero-probability setups:
# "paper" charges the whole optimized r1 against them, rate -ln(1 - r1);
# "literal" charges each setup its own share r1/3, rate -ln(1 - r1/3).
HARDY_MODE_PAPER = "paper"
HARDY_MODE_LITERAL = "literal"
HARDY_MODES = (HARDY_MODE_PAPER, HARDY_MODE_LITERAL)

_HARDY_Q = ((math.sqrt(5.0) - 1.0) / 2.0) ** 5  # hardy_q(), with its logs for _kl
_HARDY_Q_LOGS = math.log(_HARDY_Q), math.log1p(-_HARDY_Q)


class BisectionError(RuntimeError):
    """Root bracketing or convergence failed."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Which experiment family is analyzed.

    kind is one of "ghz", "chained", "hardy", "hardy-naive"; chained
    scenarios carry the number of measurement directions k, Hardy scenarios
    the zero-setup convention.
    """

    kind: str
    k: int | None = None
    hardy_mode: str = HARDY_MODE_PAPER

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == CHAINED:
            _check_int("k", self.k, 2)
        elif self.k is not None:
            raise ValueError(f"k only applies to chained scenarios, got kind={self.kind!r}")
        if self.hardy_mode not in HARDY_MODES:
            raise ValueError(f"hardy_mode must be one of {HARDY_MODES}, got {self.hardy_mode!r}")
        if self.kind != HARDY and self.hardy_mode != HARDY_MODE_PAPER:
            raise ValueError(f"hardy_mode only applies to hardy scenarios, got kind={self.kind!r}")

    def label(self) -> str:
        """Stable human/machine tag, e.g. "chained-k4" or "hardy-paper"."""
        if self.kind == CHAINED:
            return f"chained-k{self.k}"
        if self.kind == HARDY:
            return f"hardy-{self.hardy_mode}"
        return self.kind


@dataclass(frozen=True)
class ChainedGeometry:
    """k alternative measurement directions per observer, consecutive
    directions separated by theta = pi / 2k."""

    k: int
    theta: float

    @classmethod
    def for_k(cls, k: int) -> "ChainedGeometry":
        k = _check_int("k", k, 2)  # k = 2 is the CHSH configuration
        return cls(k=k, theta=math.pi / (2 * k))


@dataclass(frozen=True)
class HardySolution:
    """Optimized local-realist response to Hardy's four-setup experiment.

    The CH inequality r1 <= r2 + r3 + r4 is saturated by the symmetric split
    r2 = r3 = r4 = r1/3, and r1 is tuned so the experimenter gains evidence
    at the same per-trial rate whichever setup family they choose to test.
    n_real is the trial count at the target_d given to hardy_optimize_r;
    r_opt does not depend on the target.
    """

    r_opt: float
    n_real: float


@dataclass(frozen=True)
class ScenarioResolution:
    """A scenario and the hypothesis pair it resolves to."""

    spec: ScenarioSpec
    pair: HypothesisPair


def ghz_pair() -> HypothesisPair:
    """Three-particle GHZ test: QM predicts "yes" with certainty in each of
    the four setups.

    The best local-realist rule sets all four product averages to 0.5,
    saturating the Mermin bound of 2, so each setup answers "yes" with
    probability (1 + 0.5) / 2 = 0.75.
    """
    return HypothesisPair(q=1.0, r=0.75)


def chained_pair(k: int) -> HypothesisPair:
    """Two-particle singlet test with k directions per observer.

    QM gives each of the 2k - 1 equal-result probabilities
    q = (1 - cos(pi/2k)) / 2, while the saturating local-realist theory
    assigns the common value r = 1/2k to all of them.
    """
    k = _check_int("k", k, 2)  # k = 2 is the CHSH configuration
    return HypothesisPair(q=(1.0 - math.cos(math.pi / (2 * k))) / 2.0, r=1.0 / (2 * k))


def hardy_q() -> float:
    """Coincidence probability of Hardy's first setup: the golden-ratio
    conjugate (sqrt(5) - 1)/2 raised to the fifth power, about 0.09017."""
    return _HARDY_Q


def _bisect_decreasing(g, lo: float, hi: float) -> float:
    """Root of a strictly decreasing scalar function by plain bisection."""
    g_lo, g_hi = g(lo), g(hi)
    if not (g_lo > 0.0 > g_hi):
        raise BisectionError(f"no sign change on [{lo!r}, {hi!r}]: g={g_lo!r}..{g_hi!r}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if g(mid) > 0.0 else (lo, mid)
        if hi - lo <= 1e-12:
            return 0.5 * (lo + hi)
    raise BisectionError("no convergence to 1e-12 within 200 iterations")


def hardy_optimize_r(mode: str = HARDY_MODE_PAPER, target_d: float = 1e4) -> HardySolution:
    """Find the r1 in (0, q) equalizing the two setup families' evidence rates.

    Setup 1 yields KL(q, r1) per trial; the three setups where QM predicts no
    coincidences yield -ln(1 - r1) per trial in "paper" mode, or
    -ln(1 - r1/3) in "literal" mode.  Both sides are strictly monotone in r1,
    so bisection on (0, q) cannot miss: bracket (1e-12, q - 1e-12), where
    KL(q, r1) is finite, absolute tolerance 1e-12, iteration cap 200.
    """
    if mode not in HARDY_MODES:
        raise ValueError(f"mode must be one of {HARDY_MODES}, got {mode!r}")
    if not (math.isfinite(target_d) and target_d > 1.0):
        raise ValueError(f"target_d must be finite and > 1, got {target_d!r}")
    q, share = _HARDY_Q, 1.0 if mode == HARDY_MODE_PAPER else 1.0 / 3.0
    log_q, log1m_q = _HARDY_Q_LOGS

    def gap(r: float) -> float:  # _kl's +0.0 clamp cannot change its sign: the family term is negative
        return _kl_logs(q, log_q, log1m_q, math.log(r), math.log1p(-r)) + math.log1p(-r * share)

    r1 = _bisect_decreasing(gap, 1e-12, q - 1e-12)
    return HardySolution(r_opt=r1, n_real=required_trials(HypothesisPair(q, r1), target_d))


def hardy_naive_trials(survival_threshold: float) -> int:
    """Smallest n with (1 - q)^n below the threshold.

    This is the cost of the all-zero local-realist theory: it declares
    setup-1 coincidences impossible, so its survival only lasts while the
    experimenter keeps drawing "no" there.
    """
    if not 0.0 < survival_threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {survival_threshold!r}")
    q = hardy_q()
    n = max(1, math.floor(math.log(survival_threshold) / math.log1p(-q)))
    while (1.0 - q) ** n >= survival_threshold:  # the start never passes the answer
        n += 1
    return n


@functools.lru_cache(maxsize=128)
def scenario_pair(spec: ScenarioSpec) -> ScenarioResolution:
    """Resolve a scenario to its hypothesis pair.

    No target factor enters the pair (the Hardy r1 equalizes two rates), so
    trial counts come from required_trials.  Pure and cached.
    """
    if spec.kind == GHZ:
        return ScenarioResolution(spec, ghz_pair())
    if spec.kind == CHAINED:
        return ScenarioResolution(spec, chained_pair(spec.k))
    if spec.kind == HARDY:
        return ScenarioResolution(spec, HypothesisPair(hardy_q(), hardy_optimize_r(spec.hardy_mode).r_opt))
    return ScenarioResolution(spec, HypothesisPair(hardy_q(), 0.0))


def find_optimal_k(target_d: float, k_min: int, k_max: int) -> tuple[int, float]:
    """The k in [k_min, k_max] minimizing the chained trial count.

    Returns (k, trials); ties go to the smaller k.
    """
    k_min = _check_int("k_min", k_min, 2)
    k_max = _check_int("k_max", k_max, k_min)
    best_n, best_k = min((required_trials(chained_pair(k), target_d), k) for k in range(k_min, k_max + 1))
    return best_k, best_n
