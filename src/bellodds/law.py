"""The stopping rule of the sequential experiment, and the decision at a stop.

After n trials with m "yes" outcomes a walk's log Bayes factor is the float
log D = fl(fl(m ln(q/r)) + fl((n - m) ln((1-q)/(1-r)))) (_log_d).  The walk
stops at its first trial that reaches a threshold, log D >= ln(prior/lower)
(LR rejected) or log D <= ln(prior/upper) (QM rejected), that draws the
outcome the false theory forbids (final +inf if QM is true, -inf if LR is;
the true theory's own is never drawn), or that is trial max_trials
(inconclusive unless a threshold is reached there too); _codes reads the
decision off the final.  The compare is in float64 logs, so a tie can round
either way: for the pair (1, 0.1) the decimal odds hit 0.01 at trial 4, but
4 * (ln 1 - ln 0.1) = 9.210340371976182 is below ln(1e4) = 9.210340371976184,
and the walk stops at trial 5.

Float log D is monotone in m for each n, so short of max_trials the stops
fold into count bounds a(n) < m < b(n) between which the walk goes on.
Neither bound ever decreases, and neither steps by more than one per trial,
so a walk that counts its rarer outcome c needs only two numbers per count
(_count_tables): R[c], the first trial at which a run of the other outcome
holding c rare ones leaves the bounds, and E[c], the last trial at which a
rare outcome that brings the count to c leaves them.  Both are exact in
float64 up to 2**53.  This module imports only bayes and numpy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bayes import QM, TrialTally, _kl, log_bayes_factor

__all__: list[str] = []

#: Most counts _cached_tables holds per rule; walks past them build the counts they reach.
_TABLE_COUNTS = 2**14


def _stop_rule(config) -> tuple:
    """The rule of a simulate.SimulationConfig: the true theory's "yes"
    probability; the rule _count_tables takes: the "yes" and "no" log D steps
    (0 for an infinite one, whose outcome is counted 0 times until it ends the
    walk, so 0 * inf never forms), ln(prior/upper), ln(prior/lower), the
    falsifier (True for "yes", False for "no", None) and max_trials; and the
    drift, the mean log D step: KL(q||r) if QM is true, else -KL(r||q), which
    is the falsifier's +-inf step if there is one."""
    pair = config.resolved_pair()
    p_true, p_false, sign = (pair.q, pair.r, 1.0) if config.true_theory == QM else (pair.r, pair.q, -1.0)
    steps = (log_bayes_factor(pair, TrialTally(1, yes)) for yes in (1, 0))
    yes, no = (step if math.isfinite(step) else 0.0 for step in steps)
    falsifier = None if 0.0 < p_false < 1.0 else p_false == 0.0
    lo = math.log(config.prior_odds / config.upper_threshold)
    hi = math.log(config.prior_odds / config.lower_threshold)
    return p_true, (yes, no, lo, hi, falsifier, config.max_trials), sign * _kl(p_true, p_false)


def _log_d(m, n, yes: float, no: float):
    """The walk's float log D after n trials with m "yes" outcomes:
    fl(fl(m * yes) + fl((n - m) * no)), n - m exact below 2**53."""
    return m * yes + (n - m) * no


def _count_tables(rule: tuple, rare_yes: bool, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """R[c] and E[c] of rule for the rare-outcome counts c = start..stop - 1
    (the rare outcome "yes" if rare_yes, else "no"), int64 and at most
    max_trials, where the horizon stops every walk.  R[c] is the first trial
    n >= c at which a run of the other outcome after c rare ones leaves the
    count bounds; E[c] is the last trial n >= c at which a rare outcome that
    brings the count to c leaves them, or c - 1 if there is none.

    Counting the rare outcome, and with log D negated (exact) where it falls
    in that count, log D after n trials with c rare ones is
    f(n) = fl(fl(c * u) + fl((n - c) * v)), u >= 0 >= v, which never rises in
    n.  So R[c] is the first n with f(n) <= lo, or with n > c where the other
    outcome falsifies; E[c] the last with f(n) >= hi, or every n >= c where
    the rare one does.  Each is the real-valued crossing, fixed up by steps
    of one trial until the float f agrees."""
    yes, no, lo, hi, falsifier, max_trials = rule
    if not rare_yes:  # count the "no" outcomes: f is the same sum, its terms swapped
        yes, no, falsifier = no, yes, None if falsifier is None else not falsifier
    if yes < no:  # f falls in the count: negating it and the thresholds makes it rise
        yes, no, lo, hi = -yes, -no, -hi, -lo
    c = np.arange(start, stop, dtype=np.float64)
    top = float(max_trials)

    def f(n: np.ndarray) -> np.ndarray:
        return _log_d(c, n, yes, no)

    if no == 0.0:  # f = c * yes >= 0 > lo at every n
        r = np.full(c.size, top)
        e = np.where(f(c) >= hi, top, c - 1.0)
    else:
        r = np.clip(np.ceil(c + (lo - c * yes) / no), c, top)
        while (down := (r > c) & (f(r - 1.0) <= lo)).any():
            r -= down
        while (up := (r < top) & (f(r) > lo)).any():
            r += up
        e = np.clip(np.floor(c + (hi - c * yes) / no), c - 1.0, top)
        while (up := (e < top) & (f(e + 1.0) >= hi)).any():
            e += up
        while (down := (e >= c) & (f(e) < hi)).any():
            e -= down
    if falsifier is False:  # the other outcome ends the walk at its first draw
        r = np.minimum(r, c + 1.0)
    elif falsifier:  # a rare outcome ends it
        e[c >= 1.0] = top
    return r.astype(np.int64), np.minimum(e, top).astype(np.int64)


@functools.lru_cache(maxsize=32)
def _cached_tables(rule: tuple, rare_yes: bool, size: int) -> tuple[np.ndarray, np.ndarray]:
    """_count_tables of rule for the counts 0..size - 1, read-only, as every
    caller shares them."""
    tables = _count_tables(rule, rare_yes, 0, size)
    for table in tables:
        table.flags.writeable = False
    return tables


def _final(rule: tuple, drift: float, m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The final log D of walks that stopped after n trials with m "yes"
    outcomes: _log_d, or the drift where they drew the falsifier."""
    yes, no, _, _, falsifier, _ = rule
    final = _log_d(m, n, yes, no)
    if falsifier is not None:
        final[m >= 1 if falsifier else m < n] = drift
    return final


def _codes(rule: tuple, finals: np.ndarray) -> np.ndarray:
    """Each final's int8 decision code, an index into simulate._DECISIONS: 1 at
    or past ln(prior/lower) (LR rejected), 2 at or past ln(prior/upper) (QM rejected), else 0."""
    _, _, lo, hi, *_ = rule
    codes = np.zeros(finals.size, dtype=np.int8)
    codes[finals >= hi] = 1
    codes[finals <= lo] = 2
    return codes
