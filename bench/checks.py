"""Checks of the library's outputs: properties every report must have, and
agreement with the exact references at stated standard errors.

A report here is a plain dict with the keys of the CLI's simulate payload:
mean_stop, stddev_stop, p05, p50, p95, decision_counts and
mean_log_d_per_trial (None or a non-finite float when a falsifying outcome
made the pooled rate infinite).  Every check returns a list of problems; an
empty list means the check passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from reference import Protocol, StoppingLaw

#: Largest |z| accepted for a pooled Monte Carlo mean.  A normal |z| above
#: 4.5 has probability 6.8e-6, so the dozen pooled checks of a run raise a
#: false alarm about once in ten thousand runs, while a mean moved by 5 SE
#: is rejected.
Z_MAX = 4.5
#: Tail probability below which a decision count is rejected.
ALPHA = 1e-7

LR_REJECTED, QM_REJECTED, INCONCLUSIVE = "lr_rejected", "qm_rejected", "inconclusive"


def report_dict(report) -> dict:
    """The check's view of a bellodds StoppingReport."""
    return {
        "mean_stop": report.mean_stop,
        "stddev_stop": report.stddev_stop,
        "p05": report.q05,
        "p50": report.q50,
        "p95": report.q95,
        "decision_counts": dict(report.decision_counts),
        "mean_log_d_per_trial": report.mean_log_d_per_trial,
    }


def check_properties(rep: dict, reps: int, protocol: Protocol) -> list[str]:
    """What any stopping report must satisfy, with no reference needed."""
    problems = []
    counts = rep["decision_counts"]
    if set(counts) != {LR_REJECTED, QM_REJECTED, INCONCLUSIVE} or sum(counts.values()) != reps:
        problems.append(f"decision counts {counts} do not sum to {reps} replications")
    if not 1 <= rep["p05"] <= rep["p50"] <= rep["p95"] <= protocol.max_trials:
        problems.append(f"quantiles out of order: {rep['p05']}, {rep['p50']}, {rep['p95']}")
    if not 1 <= rep["mean_stop"] <= protocol.max_trials or not rep["stddev_stop"] >= 0.0:
        problems.append(f"mean stop {rep['mean_stop']} or stddev {rep['stddev_stop']} out of range")
    return problems


@dataclass
class Pool:
    """Stopping statistics pooled over the reports of one scenario, kept as
    running sums so memory does not grow with the number of reports."""

    reps: int = 0
    trials: float = 0.0
    evidence: float = 0.0  # total log factor; inf once a falsification occurred
    counts: dict = field(default_factory=lambda: dict.fromkeys((LR_REJECTED, QM_REJECTED, INCONCLUSIVE), 0))

    def add(self, rep: dict, reps: int) -> None:
        trials = rep["mean_stop"] * reps
        rate = rep["mean_log_d_per_trial"]
        self.reps += reps
        self.trials += trials
        self.evidence += math.inf if rate is None else rate * trials
        for key in self.counts:
            self.counts[key] += rep["decision_counts"][key]

    @property
    def mean_stop(self) -> float:
        return self.trials / self.reps

    @property
    def rate(self) -> float:
        """Total evidence over total trials, as the report's
        mean_log_d_per_trial pools it."""
        return self.evidence / self.trials


def _log_binom_pmf(k: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def binom_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Binomial(n, p); meant for small k."""
    if p <= 0.0:
        return 1.0, 1.0 if k == 0 else 0.0
    below = math.fsum(math.exp(_log_binom_pmf(j, n, p)) for j in range(k + 1))
    above = 1.0 - below + math.exp(_log_binom_pmf(k, n, p))
    if above < 1e-6:  # 1 - below has lost its digits; sum the tail itself
        terms, j = [], k
        while j <= n:
            t = math.exp(_log_binom_pmf(j, n, p))
            terms.append(t)
            if t < 1e-30 * terms[0]:
                break
            j += 1
        above = math.fsum(terms)
    return min(below, 1.0), min(above, 1.0)


def check_law(pooled: Pool, law: StoppingLaw, truth: str, protocol: Protocol) -> list[str]:
    """Pooled Monte Carlo statistics against the exact stopping law.

    - mean stop within Z_MAX standard errors of the exact mean;
    - the rare decisions (wrong-direction rejections, undecided) consistent
      with their exact probabilities at level ALPHA;
    - Ville's bound: wrong-direction rejections within the binomial tail at
      rate prior/upper (QM true) or lower/prior (LR true);
    - Wald's identity: the pooled rate equals the exact per-trial drift
      KL(q || r) or -KL(r || q) within Z_MAX standard errors
      sigma / sqrt(reps * E[T]), or is infinite where a falsifying outcome
      can occur.
    """
    problems = []
    n = pooled.reps
    se = math.sqrt(law.var / n)
    dev = pooled.mean_stop - law.mean
    if abs(dev) > max(Z_MAX * se, 1e-12 * law.mean):
        problems.append(f"mean stop {pooled.mean_stop:.6g} vs exact {law.mean:.6g}: {dev / se:+.2f} SE")

    counts = pooled.counts
    wrong, bound = (QM_REJECTED, protocol.prior / protocol.upper) if truth == "qm" else (
        LR_REJECTED, protocol.lower / protocol.prior)
    exact = {LR_REJECTED: law.p_lr_rejected, QM_REJECTED: law.p_qm_rejected, INCONCLUSIVE: law.p_undecided}
    for key in (wrong, INCONCLUSIVE):
        below, above = binom_tails(counts[key], n, exact[key])
        if min(below, above) < ALPHA:
            problems.append(f"{key}: {counts[key]} of {n} vs exact probability {exact[key]:.3g}")
    if binom_tails(counts[wrong], n, bound)[1] < ALPHA:
        problems.append(f"{wrong}: {counts[wrong]} of {n} breaks Ville's bound {bound:.3g}")

    if law.drift is None:
        if not (math.isinf(pooled.rate) and counts[LR_REJECTED if truth == "qm" else QM_REJECTED] > 0):
            problems.append(f"pooled rate {pooled.rate} should be infinite after falsifications")
    else:
        se_rate = math.sqrt(law.diffusion / (n * law.mean))
        dev = pooled.rate - law.drift
        if abs(dev) > max(Z_MAX * se_rate, 1e-12 * abs(law.drift)):
            problems.append(f"pooled rate {pooled.rate:.6g} vs drift {law.drift:.6g}: Wald's identity fails")
    return problems


def close(value, expected: float, rel: float = 1e-9, abs_: float = 0.0) -> bool:
    return value is not None and math.isclose(value, expected, rel_tol=rel, abs_tol=abs_)
