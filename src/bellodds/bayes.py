"""Log-domain Bayesian evidence arithmetic for rival Bernoulli hypotheses.

Two theories assign different probabilities to the "yes" outcome of a
repeated yes/no experiment: q under quantum mechanics (QM) and r under the
best local-realist (LR) counter-theory.  Everything here works with the
natural log of the QM:LR likelihood ratio so that evidence from millions of
trials neither overflows nor underflows, and so that evidence from
independent trial blocks adds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

__all__ = [
    "BothFalsifiedError",
    "HypothesisPair",
    "IndistinguishableError",
    "InfiniteInformationError",
    "LR",
    "QM",
    "TrialTally",
    "binomial_log_likelihood",
    "kl_per_trial",
    "log_bayes_factor",
    "required_trials",
]

QM = "qm"  # the theory whose "yes" probability is q
LR = "lr"  # the theory whose "yes" probability is r


class BothFalsifiedError(ValueError):
    """The observed data is impossible under both hypotheses."""


class InfiniteInformationError(ValueError):
    """The LR hypothesis assigns probability 0 to an outcome QM can produce,
    so a single trial may carry unbounded evidence."""


class IndistinguishableError(ValueError):
    """The evidence rate is 0 (q == r, or q and r so close that the rate
    rounds to 0): no amount of data can separate the hypotheses."""


def _check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """value as an int in [lo, hi], hi None for no upper bound; Python and numpy ints pass, bools, floats and strings do not."""
    try:
        # operator.index takes True as 1, and numpy 1.x takes np.True_ too (with a DeprecationWarning)
        if isinstance(value, bool) or getattr(getattr(value, "dtype", None), "kind", None) == "b":
            raise TypeError
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if index < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {index}")
    if hi is not None and index > hi:
        raise ValueError(f"{name} must be an integer <= {hi}, got {index}")
    return index


@dataclass(frozen=True)
class HypothesisPair:
    """Per-trial "yes" probabilities under the two rival theories.

    q is the quantum prediction, r the local-realist one.  Both live in
    [0, 1]; the endpoints are legal and handled with the 0^0 = 1 convention
    throughout.
    """

    q: float
    r: float

    def __post_init__(self) -> None:
        for name, p in (("q", self.q), ("r", self.r)):
            if not 0.0 <= p <= 1.0:  # also rejects NaN
                raise ValueError(f"{name} must be a probability in [0, 1], got {p!r}")


@dataclass(frozen=True)
class TrialTally:
    """m "yes" results out of n trials."""

    n: int
    m: int

    def __post_init__(self) -> None:
        n = _check_int("n", self.n, 0)
        _check_int("m", self.m, 0, n)


def _xlogp(count: float, p: float) -> float:
    """count * ln(p) with the 0 * ln(0) = 0 convention."""
    if count == 0:
        return 0.0
    if p == 0.0:
        return -math.inf
    return count * math.log(p)


def binomial_log_likelihood(p: float, tally: TrialTally) -> float:
    """ln of the binomial probability of seeing the tally at per-trial p.

    The binomial coefficient goes through log-gamma, so counts up to millions
    are fine.  Certain events give exactly 0.0; a tally impossible under p
    (say p = 0 with m > 0) gives -inf.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability in [0, 1], got {p!r}")
    n, m = tally.n, tally.m
    yes = _xlogp(m, p)
    no = _xlogp(n - m, 1.0 - p)
    if yes == -math.inf or no == -math.inf:
        return -math.inf
    log_binom = math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
    return log_binom + yes + no


def _log_ratio_term(count: int, pq: float, pr: float) -> float:
    """count * ln(pq / pr) for one outcome type, honoring the conventions:
    zero count contributes nothing; a one-sided zero probability on an
    observed outcome yields the matching infinity."""
    if count == 0:
        return 0.0
    if pq == 0.0 and pr == 0.0:
        raise BothFalsifiedError("observed outcome is impossible under both hypotheses")
    if pq == 0.0:
        return -math.inf
    if pr == 0.0:
        return math.inf
    return count * (math.log(pq) - math.log(pr))


def log_bayes_factor(pair: HypothesisPair, tally: TrialTally) -> float:
    """Log likelihood ratio (QM over LR) of an observed tally.

    The binomial coefficients cancel, leaving

        m * ln(q/r) + (n - m) * ln((1-q)/(1-r)).

    A single observed outcome that LR declares impossible pushes the value to
    +inf (LR falsified); the QM mirror image gives -inf.  A tally impossible
    under both raises BothFalsifiedError, so blocks combine by joining their
    tallies: that raises when each block falsified a different hypothesis.
    """
    yes = _log_ratio_term(tally.m, pair.q, pair.r)
    no = _log_ratio_term(tally.n - tally.m, 1.0 - pair.q, 1.0 - pair.r)
    if math.isinf(yes) and math.isinf(no) and yes != no:
        raise BothFalsifiedError("tally is impossible under both hypotheses")
    return yes + no


def _kl_logs(q: float, log_q: float, log1m_q: float, log_r, log1m_r):
    """The one KL expression, _kl before its clamp; r's logs may be arrays,
    as in the tests' oracle kl_tables, its only array caller."""
    yes = 0.0 if q == 0.0 else q * (log_q - log_r)
    no = 0.0 if q == 1.0 else (1.0 - q) * (log1m_q - log1m_r)
    return yes + no


def _kl(q: float, r: float) -> float:
    """KL(Bernoulli(q) || Bernoulli(r)) in nats; +inf where r forbids an
    outcome q allows.  Scalar math.log/log1p on purpose: numpy's array logs
    can differ in the last bit, by CPU and numpy version.  The result is
    clamped at +0.0, as rounding can make it negative for r near q."""
    if r == 0.0 or r == 1.0:
        return 0.0 if q == r else math.inf
    log_q, log1m_q = math.log(q) if q > 0.0 else -math.inf, math.log1p(-q) if q < 1.0 else -math.inf
    kl = _kl_logs(q, log_q, log1m_q, math.log(r), math.log1p(-r))
    return kl if kl > 0.0 else 0.0


def kl_per_trial(pair: HypothesisPair) -> float:
    """Expected log Bayes factor earned per trial when QM is true.

    This is the Kullback-Leibler divergence of Bernoulli(q) from
    Bernoulli(r), in nats; nonnegative, and zero when q == r or when r is
    so close to q that the rate is 0 at double precision.
    """
    kl = _kl(pair.q, pair.r)
    if kl == math.inf:
        raise InfiniteInformationError(
            "LR assigns probability 0 to an outcome QM can produce; "
            "per-trial information is unbounded"
        )
    return kl


def required_trials(pair: HypothesisPair, target_factor: float) -> float:
    """Trials needed for the expected log Bayes factor to reach ln(target).

    Returns the real-valued solution ln(target) / KL; its ceiling is the
    whole number of trials.  With target = prior / lower this is Wald's
    drift value of the stopping time of the sequential protocol when QM is
    true (Wald, Ann. Math. Stat. 16, 1945); the exact mean stop sits above
    it by the mean overshoot past the threshold: for chained k=2 under the
    100:1 -> 0.01 protocol, 287.15 against 289.05.
    """
    if not (math.isfinite(target_factor) and target_factor >= 1.0):
        raise ValueError(f"target factor must be finite and >= 1, got {target_factor!r}")
    kl = kl_per_trial(pair)
    if kl == 0.0:
        raise IndistinguishableError(
            "the evidence rate is 0 at double precision: no target factor is reachable"
        )
    return math.log(target_factor) / kl
