"""Independent reference values for the benchmark's correctness checks.

Nothing here imports bellodds.  Every value is derived again from the closed
forms of the paper's scenarios, so a change in the library that alters an
answer disagrees with these numbers rather than with a stored copy of itself.

- Evidence rates: KL(q || r) of the two Bernoulli hypotheses, and the paper's
  trial counts ln(1e4) / KL.
- Hardy's optimized local-realist response r1: a safeguarded Newton solve,
  not the library's bisection.
- Minimax values of the KL game (van Dam, Gill & Grunwald, IEEE Trans. Inf.
  Theory 51, 2005): ln(4/3) for GHZ, KL(q_k || 1/2k) for the chained family,
  KL(q || r1) for Hardy.
- Stopping-time laws of the sequential protocol.  With two step sizes the log
  likelihood ratio walk lives on the (trials, yes-count) lattice, so a
  dynamic programme over the live band gives the exact first-passage law
  (Wald, Sequential Tests of Statistical Hypotheses, 1945).  GHZ and the naive
  Hardy theory also have closed forms, used to test the lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TARGET_D = 1e4
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: The paper's figures, to the precision it quotes them.
PAPER_TRIALS = {"ghz": 32.0, "chained-k2": 287.2, "chained-k4": 200.8, "hardy-paper": 269.6}
PAPER_NAIVE_TRIALS = 8
PAPER_HARDY_R1 = 0.03358
PAPER_OPTIMAL_K = 4

#: Ways to charge Hardy's three zero-coincidence setups: the share of r1 each
#: is charged at.
HARDY_SHARES = {"paper": 1.0, "literal": 1.0 / 3.0}

# A lattice state whose log factor lies this close to a threshold could be
# decided either way by the simulator's floating-point running sum.
_TIE_TOL = 1e-8
# The lattice walk stops once the undecided mass is below this.
_LIVE_EPS = 1e-18


def hardy_q() -> float:
    return GOLDEN**5


def ghz_qr() -> tuple[float, float]:
    return 1.0, 0.75


def chained_qr(k: int) -> tuple[float, float]:
    return (1.0 - math.cos(math.pi / (2 * k))) / 2.0, 1.0 / (2 * k)


def kl(q: float, r: float) -> float:
    """KL(Bernoulli(q) || Bernoulli(r)) in nats; inf when r rules out an
    outcome that q allows."""
    total = 0.0
    for pq, pr in ((q, r), (1.0 - q, 1.0 - r)):
        if pq == 0.0:
            continue
        if pr == 0.0:
            return math.inf
        total += pq * math.log(pq / pr)
    return total


def hardy_r1(mode: str) -> float:
    """The r1 in (0, q) at which KL(q || r1) = -ln(1 - share * r1).

    The gap g(r) = KL(q || r) + ln(1 - share * r) falls strictly on (0, q), so
    Newton's method kept inside a shrinking sign bracket converges to the
    unique root.
    """
    share = HARDY_SHARES[mode]
    q = hardy_q()

    def g(r: float) -> float:
        return kl(q, r) + math.log1p(-share * r)

    def dg(r: float) -> float:
        return -q / r + (1.0 - q) / (1.0 - r) - share / (1.0 - share * r)

    lo, hi = 1e-9, q
    r = q / 4.0
    for _ in range(200):
        value = g(r)
        if value > 0.0:
            lo = r
        else:
            hi = r
        step = value / dg(r)
        nxt = r - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - r) <= 1e-17:
            return nxt
        r = nxt
    raise ArithmeticError("Hardy root solve did not converge")


def trials_for_target(q: float, r: float, target: float = TARGET_D) -> float:
    return math.log(target) / kl(q, r)


def scenario_qr(label: str) -> tuple[float, float]:
    """(q, r) of a scenario label as the library names them."""
    if label == "ghz":
        return ghz_qr()
    if label.startswith("chained-k"):
        return chained_qr(int(label[len("chained-k"):]))
    if label.startswith("hardy-") and label[len("hardy-"):] in HARDY_SHARES:
        return hardy_q(), hardy_r1(label[len("hardy-"):])
    if label == "hardy-naive":
        return hardy_q(), 0.0
    raise ValueError(f"unknown scenario label {label!r}")


def naive_trials(threshold: float = 0.5) -> int:
    """Smallest n with (1 - q)^n < threshold for the all-zero Hardy theory."""
    return math.floor(math.log(threshold) / math.log1p(-hardy_q())) + 1


def optimal_k(k_min: int = 2, k_max: int = 12) -> int:
    """The chained k with the fewest trials to the target factor."""
    return min(range(k_min, k_max + 1), key=lambda k: trials_for_target(*chained_qr(k)))


def minimax_value(game: str, mode: str = "paper", k: int = 2) -> float:
    """Per-trial rate at the continuous optimum of a local-realist game."""
    if game == "ghz":
        return math.log(4.0 / 3.0)
    if game == "chained":
        return kl(*chained_qr(k))
    if game == "hardy":
        return kl(hardy_q(), hardy_r1(mode))
    raise ValueError(f"unknown game {game!r}")


@dataclass(frozen=True)
class Protocol:
    """The sequential stopping rule: start at prior LR:QM odds, stop once
    they are <= lower (LR rejected) or >= upper (QM rejected), or after
    max_trials trials (undecided)."""

    prior: float = 100.0
    lower: float = 0.01
    upper: float = 1e6
    max_trials: int = 100_000

    @property
    def log_hi(self) -> float:
        """Log QM:LR factor at which LR is rejected."""
        return math.log(self.prior / self.lower)

    @property
    def log_lo(self) -> float:
        """Log QM:LR factor at which QM is rejected."""
        return math.log(self.prior / self.upper)


@dataclass(frozen=True)
class StoppingLaw:
    """Exact law of the stopping trial T and of the decision.

    drift is the expected log QM:LR factor per trial under the true theory
    (KL(q || r) when QM is true, -KL(r || q) when LR is true), or None when
    an outcome that can occur carries infinite evidence; diffusion is the
    per-trial variance of that increment.
    """

    p_lr_rejected: float
    p_qm_rejected: float
    p_undecided: float
    mean: float
    var: float
    drift: float | None
    diffusion: float
    pmf: np.ndarray  # pmf[n] = P(T = n)

    def quantile(self, level: float) -> int:
        return int(np.searchsorted(np.cumsum(self.pmf), level - 1e-12))


def _log_ratio(pq: float, pr: float) -> float:
    """ln(pq / pr) for one outcome; +-inf when one theory rules it out."""
    if pq == 0.0 and pr == 0.0:
        return math.nan
    if pq == 0.0:
        return -math.inf
    if pr == 0.0:
        return math.inf
    return math.log(pq) - math.log(pr)


def _drift(q: float, r: float, truth: str) -> tuple[float | None, float]:
    p = q if truth == "qm" else r
    steps = [(p, _log_ratio(q, r)), (1.0 - p, _log_ratio(1.0 - q, 1.0 - r))]
    steps = [(w, s) for w, s in steps if w > 0.0]
    if any(math.isinf(s) for _, s in steps):
        return None, 0.0
    drift = kl(q, r) if truth == "qm" else -kl(r, q)
    var = sum(w * (s - drift) ** 2 for w, s in steps)
    return drift, var


def _law(stop_lr, stop_qm, live_mass, max_trials, q, r, truth) -> StoppingLaw:
    pmf = np.asarray(stop_lr) + np.asarray(stop_qm)
    pmf[max_trials] += live_mass
    n = np.arange(len(pmf), dtype=float)
    mean = float(np.dot(n, pmf))
    drift, diffusion = _drift(q, r, truth)
    return StoppingLaw(
        p_lr_rejected=float(np.sum(stop_lr)),
        p_qm_rejected=float(np.sum(stop_qm)),
        p_undecided=float(live_mass),
        mean=mean,
        var=float(np.dot((n - mean) ** 2, pmf)),
        drift=drift,
        diffusion=diffusion,
        pmf=pmf,
    )


def first_passage(q: float, r: float, truth: str, protocol: Protocol) -> StoppingLaw:
    """Exact stopping law by dynamic programming on the (n, m) lattice.

    After n trials with m "yes" outcomes the log QM:LR factor is
    m ln(q/r) + (n - m) ln((1-q)/(1-r)).  The live states form one band of m,
    because the factor is monotone in m.  An outcome with infinite evidence
    absorbs its mass at once.
    """
    p = q if truth == "qm" else r
    yes, no = _log_ratio(q, r), _log_ratio(1.0 - q, 1.0 - r)
    hi, lo = protocol.log_hi, protocol.log_lo
    n_max = protocol.max_trials
    stop_lr = np.zeros(n_max + 1)
    stop_qm = np.zeros(n_max + 1)
    live = np.array([1.0])
    m0 = 0  # yes-count of live[0]
    # finite stand-ins: a state that took an infinite step is never live
    yes_f = yes if math.isfinite(yes) else 0.0
    no_f = no if math.isfinite(no) else 0.0
    for n in range(1, n_max + 1):
        nxt = np.zeros(len(live) + 1)
        for weight, step, shift in ((p, yes, 1), (1.0 - p, no, 0)):
            if weight == 0.0:
                continue
            if math.isinf(step):
                target = stop_lr if step > 0 else stop_qm
                target[n] += weight * live.sum()
            else:
                nxt[shift : shift + len(live)] += weight * live
        m = m0 + np.arange(len(nxt))
        log_d = m * yes_f + (n - m) * no_f
        near = (np.abs(log_d - hi) < _TIE_TOL) | (np.abs(log_d - lo) < _TIE_TOL)
        if np.any(nxt[near] > 1e-15):
            raise ArithmeticError(f"lattice state at trial {n} lies on a threshold")
        up, down = log_d >= hi, log_d <= lo
        stop_lr[n] += nxt[up].sum()
        stop_qm[n] += nxt[down].sum()
        nxt[up | down] = 0.0
        keep = np.flatnonzero(nxt)
        if len(keep) == 0 or nxt.sum() < _LIVE_EPS:
            return _law(stop_lr, stop_qm, 0.0, n_max, q, r, truth)
        live = nxt[keep[0] : keep[-1] + 1]
        m0 += int(keep[0])
    return _law(stop_lr, stop_qm, float(live.sum()), n_max, q, r, truth)


def ghz_law(protocol: Protocol) -> StoppingLaw:
    """GHZ with QM true: every trial says "yes", so the walk climbs by
    ln(4/3) a trial and stops at the first n with n ln(4/3) >= ln(prior/lower)."""
    q, r = ghz_qr()
    step = math.log(q / r)
    n = math.ceil(protocol.log_hi / step)
    if (n - 1) * step >= protocol.log_hi:
        n -= 1
    stop_lr = np.zeros(protocol.max_trials + 1)
    stop_lr[n] = 1.0
    return _law(stop_lr, np.zeros_like(stop_lr), 0.0, protocol.max_trials, q, r, "qm")


def naive_law(protocol: Protocol) -> StoppingLaw:
    """Naive Hardy theory (r = 0) with QM true: the first "yes" rejects LR;
    N0 straight "no"s, the first n with n ln(1 - q) <= ln(prior/upper),
    reject QM.  T is a geometric truncated at N0."""
    q = hardy_q()
    step = math.log1p(-q)
    n0 = math.ceil(protocol.log_lo / step)
    if (n0 - 1) * step <= protocol.log_lo:
        n0 -= 1
    n = np.arange(1, n0 + 1)
    stop_lr = np.zeros(protocol.max_trials + 1)
    stop_qm = np.zeros(protocol.max_trials + 1)
    stop_lr[1 : n0 + 1] = q * (1.0 - q) ** (n - 1)
    stop_qm[n0] = (1.0 - q) ** n0
    return _law(stop_lr, stop_qm, 0.0, protocol.max_trials, q, 0.0, "qm")


def stopping_law(label: str, truth: str, protocol: Protocol) -> StoppingLaw:
    """The exact law for a scenario label; closed forms where they exist."""
    if truth == "qm" and label == "ghz":
        return ghz_law(protocol)
    if truth == "qm" and label == "hardy-naive":
        return naive_law(protocol)
    return first_passage(*scenario_qr(label), truth, protocol)
