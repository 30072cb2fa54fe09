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

_HARDY_Q = ((math.sqrt(5.0) - 1.0) / 2.0) ** 5  # hardy_q()


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
    """The hypothesis pair a scenario resolves to."""

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


def _hardy_root(share: float) -> float:
    """The root in (0, q) of hardy_optimize_r's gap KL(q, r) + ln(1 - r * share),
    by Newton's method from q/2.  On (0, q) the gap falls and is convex
    (curvature above 1/q - 1/(1 - q)**2 > 9), so from the first step on the
    iterates rise to the root; a step of at most 1e-12 leaves an error far
    below a float's spacing there."""
    q = _HARDY_Q
    log_q, log1m_q = math.log(q), math.log1p(-q)

    def gap(r: float) -> float:
        return _kl_logs(q, log_q, log1m_q, math.log(r), math.log1p(-r)) + math.log1p(-r * share)

    root, step = 0.5 * q, 1.0
    while abs(step) > 1e-12:
        step = gap(root) / ((root - q) / (root * (1.0 - root)) - share / (1.0 - root * share))
        root -= step
    return root


def hardy_optimize_r(mode: str = HARDY_MODE_PAPER, target_d: float = 1e4) -> HardySolution:
    """Find the r1 in (0, q) equalizing the two setup families' evidence rates.

    Setup 1 yields KL(q, r1) per trial; the three setups where QM predicts no
    coincidences yield -ln(1 - r1) per trial in "paper" mode, or
    -ln(1 - r1/3) in "literal" mode.  Both sides are strictly monotone in r1,
    so their gap has one root on (0, q), which _hardy_root finds by Newton's
    method from 4 or 5 gap evaluations.
    """
    if mode not in HARDY_MODES:
        raise ValueError(f"mode must be one of {HARDY_MODES}, got {mode!r}")
    if not (math.isfinite(target_d) and target_d > 1.0):
        raise ValueError(f"target_d must be finite and > 1, got {target_d!r}")
    r1 = _hardy_root(1.0 if mode == HARDY_MODE_PAPER else 1.0 / 3.0)
    return HardySolution(r_opt=r1, n_real=required_trials(HypothesisPair(_HARDY_Q, r1), target_d))


def hardy_naive_trials(survival_threshold: float) -> int:
    """Smallest n with (1 - q)^n below the threshold.

    This is the cost of the all-zero local-realist theory: it declares
    setup-1 coincidences impossible, so its survival only lasts while the
    experimenter keeps drawing "no" there.
    """
    if not 0.0 < survival_threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {survival_threshold!r}")
    q = hardy_q()
    n = math.floor(math.log(survival_threshold) / math.log1p(-q))
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
        return ScenarioResolution(ghz_pair())
    if spec.kind == CHAINED:
        return ScenarioResolution(chained_pair(spec.k))
    if spec.kind == HARDY:
        return ScenarioResolution(HypothesisPair(hardy_q(), hardy_optimize_r(spec.hardy_mode).r_opt))
    return ScenarioResolution(HypothesisPair(hardy_q(), 0.0))


def find_optimal_k(target_d: float, k_min: int, k_max: int) -> tuple[int, float]:
    """The k in [k_min, k_max] minimizing the chained trial count.

    Returns (k, trials); ties go to the smaller k.  The scan stops early, and
    exactly: q_k < r_k = 1/2k, so KL(q_k||r_k) < -ln(1 - 1/2k), which falls
    with k.  Once ln(target_d) over that bound reaches the best count (with a
    relative margin of 1e-9 for rounding), no later k can tie or win.
    """
    k_min = _check_int("k_min", k_min, 2)
    k_max = _check_int("k_max", k_max, k_min)
    best_n, best_k = required_trials(chained_pair(k_min), target_d), k_min
    for k in range(k_min + 1, k_max + 1):
        if math.log(target_d) / -math.log1p(-0.5 / k) >= best_n * (1.0 + 1e-9):
            break
        n = required_trials(chained_pair(k), target_d)
        if n < best_n:
            best_n, best_k = n, k
    return best_k, best_n
