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

Float log D is monotone in m for each n, so the three stops fold into count
bounds a(n) < m < b(n) between which the walk goes on (_count_bounds),
exact in float64 up to 2**53.  This module imports only bayes and numpy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bayes import QM, TrialTally, _kl, log_bayes_factor

__all__: list[str] = []

#: Trial counts per window of count bounds; _bounds serves at most this many.
_WINDOW = 6144


def _stop_rule(config) -> tuple:
    """The rule of a simulate.SimulationConfig: the true theory's "yes"
    probability; the rule _count_bounds takes: the "yes" and "no" log D steps
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


def _count_bounds(yes: float, no: float, lo: float, hi: float, falsifier: bool | None, max_trials: int,
                  n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each trial count in n (float64), the "yes" counts a and b (float64)
    such that a walk with m "yes" outcomes in n trials goes on exactly when
    a < m < b: while lo < _log_d(m, n, yes, no) < hi, m = 0 if "yes" is the
    falsifier (b <= 1), m = n if "no" is (a >= n - 1), and n < max_trials.
    Rounding is monotone, so float log D is monotone in m for a fixed n (yes
    and no are of opposite signs or 0): a threshold's bound is the real-valued
    crossing, fixed up by steps of one count until the float log D agrees."""
    if yes < no:  # log D falls in m: negating it (exact) and the thresholds makes it rise
        yes, no, lo, hi = -yes, -no, -hi, -lo

    def last_below(t: float, below) -> np.ndarray:
        """The largest m in [0, n] with below(log D, t), or -1."""
        if yes == no:  # both steps 0: log D is 0 for every m
            m = np.where(below(0.0, t), n, -1.0)
        else:
            m = np.clip(np.floor((t - n * no) / (yes - no)), -1.0, n)
        while (up := (m < n) & below(_log_d(m + 1, n, yes, no), t)).any():
            m += up
        while (down := (m >= 0) & ~below(_log_d(m, n, yes, no), t)).any():
            m -= down
        return m

    a = np.maximum(last_below(lo, np.less_equal), n - 1 if falsifier is False else -1.0)
    b = np.minimum(last_below(hi, np.less) + 1, 1.0 if falsifier else n + 1)
    return np.where(n >= max_trials, n, a), b


# 20 windows: the 17 of a walk to the default max_trials, and headroom; 1.97 MB at most
@functools.lru_cache(maxsize=20)
def _bound_window(rule: tuple, start: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """_count_bounds of rule for the trial counts start..start + size - 1,
    read-only, as every caller shares them."""
    bounds = _count_bounds(*rule, np.arange(start, start + size, dtype=np.float64))
    for bound in bounds:
        bound.flags.writeable = False
    return bounds


def _bounds(rule: tuple, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """_count_bounds of rule for the trial counts start..stop - 1, at most
    _WINDOW of them: slices of the _WINDOW-aligned window that holds start
    (_bound_window), joined to the next window when they straddle the two.
    The bounds are a pure function of the rule, so what the cache holds
    never changes a walk."""
    first = start - start % _WINDOW
    a, b = _bound_window(rule, first, _WINDOW)
    if stop > first + _WINDOW:
        a, b = (np.concatenate(pair) for pair in zip((a, b), _bound_window(rule, first + _WINDOW, _WINDOW)))
    return a[start - first : stop - first], b[start - first : stop - first]


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
