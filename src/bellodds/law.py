"""The stopping rule of the sequential experiment, and the decision at a stop.

A walk whose trials are "yes" with probability p counts the outcome rarer at
p, "yes" at 1/2 (_stop_rule).  After n trials with c of them counted, its
log Bayes factor is the float log D = fl(fl(c u) + fl((n - c) v)) (_log_d),
where u and v are the counted and the other outcome's steps, ln(q/r) for
"yes" and ln((1-q)/(1-r)) for "no"; float addition commutes, so either count
gives the same bits.  The walk stops at its first trial that reaches a
threshold, log D >= ln(prior/lower) (LR rejected) or log D <= ln(prior/upper)
(QM rejected), that draws an outcome of infinite step, one a theory forbids
(final +inf if LR forbids it, -inf if QM does), or that is trial max_trials
(inconclusive unless a threshold is reached there too); _decide reads the
decision off the final.  The compare is in float64 logs, so a tie can round
either way: for the pair (1, 0.1) the decimal odds hit 0.01 at trial 4, but
4 * (ln 1 - ln 0.1) = 9.210340371976182 is below ln(1e4) = 9.210340371976184,
and the walk stops at trial 5.

Float log D is monotone in c for each n, so short of max_trials the stops
fold into count bounds a(n) < c < b(n) between which the walk goes on.
Neither bound ever decreases, and neither steps by more than one per trial,
so the walk needs only two numbers per count (_count_tables): R[c], the
first trial at which a run of the other outcome holding c counted ones
leaves the bounds, and E[c], the last trial at which a counted outcome that
brings the count to c leaves them.  Both are exact in float64 up to 2**53.
This module imports only bayes and numpy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bayes import HypothesisPair, TrialTally, _kl, log_bayes_factor

__all__: list[str] = []

#: Most counts _cached_tables holds per rule; walks past them build the counts they reach.
_TABLE_COUNTS = 2**14


def _stop_rule(pair: HypothesisPair, p: float, prior: float, lower: float, upper: float, max_trials: int) -> tuple:
    """The rule of pair's walk at "yes" probability p, counted in the outcome
    rarer at p ("yes" at 1/2): that outcome's probability; whether it is
    "yes"; the rule _count_tables takes: its log D step and the other's (0
    for an infinite one, whose outcome is counted 0 times until it ends the
    walk, so 0 * inf never forms), ln(prior/upper), ln(prior/lower), the
    falsifier, the outcome of infinite step (True for the counted one, False
    for the other, also where both are: p is then 0 or 1), and max_trials;
    and the drift, the mean log D step at p, KL(p||r) - KL(p||q), which is
    the falsifier's +-inf step where p draws it."""
    counted_yes = p <= 0.5
    steps = [log_bayes_factor(pair, TrialTally(1, yes)) for yes in ((1, 0) if counted_yes else (0, 1))]
    falsifier = False if math.isinf(steps[1]) else True if math.isinf(steps[0]) else None
    step, other = (step if math.isfinite(step) else 0.0 for step in steps)
    rule = step, other, math.log(prior / upper), math.log(prior / lower), falsifier, max_trials
    return p if counted_yes else 1.0 - p, counted_yes, rule, _kl(p, pair.r) - _kl(p, pair.q)


def _log_d(c, n, step: float, other: float):
    """The walk's float log D after n trials, c of them of the outcome whose
    log D step is step: fl(fl(c * step) + fl((n - c) * other)), n - c exact
    below 2**53 and the sum the same whichever outcome is counted."""
    return c * step + (n - c) * other


def _count_tables(rule: tuple, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """R[c] and E[c] of rule, counted as _stop_rule counts it, for the counts
    c = start..stop - 1, int64 and at most max_trials, where the horizon
    stops every walk.  R[c] is the first trial n >= c at which a run of the
    other outcome after c counted ones leaves the count bounds; E[c] is the
    last trial n >= c at which a counted outcome that brings the count to c
    leaves them, or c - 1 if there is none.

    With log D negated (exact) where it falls in the count, log D after n
    trials with c counted ones is f(n) = fl(fl(c * u) + fl((n - c) * v)),
    u >= 0 >= v, which never rises in n.  So R[c] is the first n with
    f(n) <= lo, or with n > c where the other outcome falsifies; E[c] the
    last with f(n) >= hi, or every n >= c where the counted one does.  Each
    is the real-valued crossing, fixed up by steps of one trial until the
    float f agrees."""
    step, other, lo, hi, falsifier, max_trials = rule
    if step < other:  # f falls in the count: negating it and the thresholds makes it rise
        step, other, lo, hi = -step, -other, -hi, -lo
    c = np.arange(start, stop, dtype=np.float64)
    top = float(max_trials)
    f = functools.partial(_log_d, c, step=step, other=other)  # log D after n trials at each count
    if other == 0.0:  # f = c * step >= 0 > lo at every n
        r = np.full(c.size, top)
        e = np.where(f(c) >= hi, top, c - 1.0)
    else:
        r = np.clip(np.ceil(c + (lo - c * step) / other), c, top)
        while (down := (r > c) & (f(r - 1.0) <= lo)).any():
            r -= down
        while (up := (r < top) & (f(r) > lo)).any():
            r += up
        e = np.clip(np.floor(c + (hi - c * step) / other), c - 1.0, top)
        while (up := (e < top) & (f(e + 1.0) >= hi)).any():
            e += up
        while (down := (e >= c) & (f(e) < hi)).any():
            e -= down
    if falsifier is False:  # the other outcome ends the walk at its first draw
        r = np.minimum(r, c + 1.0)
    elif falsifier:  # a counted outcome ends it
        e[c >= 1.0] = top
    return r.astype(np.int64), np.minimum(e, top).astype(np.int64)


@functools.lru_cache(maxsize=32)
def _cached_tables(rule: tuple, size: int) -> tuple[np.ndarray, np.ndarray]:
    """_count_tables of rule for the counts 0..size - 1, read-only, as every
    caller shares them."""
    tables = _count_tables(rule, 0, size)
    for table in tables:
        table.flags.writeable = False
    return tables


def _decide(rule: tuple, drift: float, c: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The int8 decision codes (indices into simulate._DECISIONS) and final
    log D of walks that stopped after n trials with c counted outcomes.  The
    final is _log_d, or the drift where they drew the falsifier; its code is
    1 at or past ln(prior/lower) (LR rejected), 2 at or past ln(prior/upper)
    (QM rejected), else 0."""
    step, other, lo, hi, falsifier, _ = rule
    finals = _log_d(c, n, step, other)
    if falsifier is not None:
        finals[c >= 1 if falsifier else c < n] = drift
    codes = np.zeros(finals.size, dtype=np.int8)
    codes[finals >= hi] = 1
    codes[finals <= lo] = 2
    return codes, finals
