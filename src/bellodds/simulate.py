"""Monte Carlo sequential experiments: per-trial odds updates to a stopping
decision, replicated over independent random substreams.

The stopping protocol generalizes the running example of a local realist who
starts at 100:1 odds in their favor and concedes at 0.01: the experiment
stops as soon as the LR:QM odds reach either threshold.  Each replication
draws from its own counter-based substream, so results are a pure function
of the configuration no matter how replications are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayes import HypothesisPair, TrialTally, _check_int, _kl, log_bayes_factor
from .scenarios import ScenarioSpec, scenario_pair

__all__ = [
    "GENERATOR",
    "INCONCLUSIVE",
    "LR",
    "LR_REJECTED",
    "QM",
    "QM_REJECTED",
    "SimulationConfig",
    "StoppingReport",
    "Trajectory",
    "replication_summaries",
    "run_replications",
    "run_trajectory",
    "summarize",
    "trial_stream",
]

QM = "qm"
LR = "lr"

LR_REJECTED = "lr_rejected"
QM_REJECTED = "qm_rejected"
INCONCLUSIVE = "inconclusive"

#: Identification of the random stream construction, echoed in CLI output.
GENERATOR = "numpy.random.Philox(master_seed).jumped(replication_index)"


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a sequential experiment needs, thresholds included.

    The experiment stops once the LR:QM odds are <= lower_threshold (LR
    rejected) or >= upper_threshold (QM rejected), checked after each trial's
    update.  scenario is a ScenarioSpec, whose pair scenario_pair resolves,
    or a HypothesisPair, simulated as given.  replications is at most 2**32.
    """

    scenario: ScenarioSpec | HypothesisPair
    true_theory: str = QM
    prior_odds: float = 100.0
    lower_threshold: float = 0.01
    upper_threshold: float = 1e6
    max_trials: int = 100_000
    master_seed: int = 0
    replications: int = 1000

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, (ScenarioSpec, HypothesisPair)):
            raise ValueError(f"scenario must be a ScenarioSpec or a HypothesisPair, got {self.scenario!r}")
        if self.true_theory not in (QM, LR):
            raise ValueError(f"true_theory must be {QM!r} or {LR!r}, got {self.true_theory!r}")
        if not 0.0 < self.lower_threshold < self.prior_odds < self.upper_threshold:
            raise ValueError(
                "need 0 < lower_threshold < prior_odds < upper_threshold, got "
                f"{self.lower_threshold!r} / {self.prior_odds!r} / {self.upper_threshold!r}"
            )
        for name in ("lower_threshold", "upper_threshold"):
            threshold = getattr(self, name)
            if not 0.0 < self.prior_odds / threshold < math.inf:  # the walk works in ln(prior / threshold)
                raise ValueError(
                    f"{name} {threshold!r} is too far from prior_odds {self.prior_odds!r}: "
                    "the log of their ratio is not finite"
                )
        _check_int("max_trials", self.max_trials, 1, 2**53)  # the walker's float counts are exact up to 2**53
        _check_int("replications", self.replications, 1, 2**32)
        _check_int("master_seed", self.master_seed, 0, 2**64 - 1)
        pair = self.resolved_pair()
        if pair.q == pair.r and pair.q in (0.0, 1.0):
            raise ValueError("degenerate pair q == r in {0, 1}: every trial would falsify both theories")

    def resolved_pair(self) -> HypothesisPair:
        if isinstance(self.scenario, HypothesisPair):
            return self.scenario
        return scenario_pair(self.scenario).pair


@dataclass
class Trajectory:
    """One sequential experiment: outcomes, the running log Bayes factor, and
    how it ended.  stop_trial counts performed trials; it equals max_trials
    when no threshold was reached."""

    outcomes: np.ndarray
    cumulative_log_d: np.ndarray
    decision: str
    stop_trial: int


@dataclass(frozen=True)
class StoppingReport:
    """Stopping statistics over all replications.

    mean_log_d_per_trial pools evidence across replications (total log
    factor over total trials), which converges to the per-trial KL when QM
    is true; it is +inf for scenarios where a single outcome can falsify LR.
    """

    mean_stop: float
    stddev_stop: float
    q05: float
    q50: float
    q95: float
    decision_counts: dict[str, int]
    mean_log_d_per_trial: float


def trial_stream(master_seed: int, replication_index: int) -> np.random.Generator:
    """Independent substream for one replication.

    Philox is counter-based: every replication shares the key of
    Philox(master_seed) and starts from its own counter (0, 0, index, 0), so
    it is Philox(master_seed).jumped(index), here jumped in place by
    advancing index * 2**128 counter steps; at 4 draws per step, neighbours
    lie 2**130 draws apart.  Any replication can be generated on any worker,
    in any order, with identical results.  The batch walker (_draw) sets the
    same key and counter.
    """
    index = _check_int("replication_index", replication_index, 0, 2**32 - 1)
    seed = _check_int("master_seed", master_seed, 0, 2**64 - 1)  # the seeds Philox takes
    return np.random.Generator(np.random.Philox(seed).advance(index << 128))


#: Decision codes of the batch walker, indexed by code.
_DECISIONS = (INCONCLUSIVE, LR_REJECTED, QM_REJECTED)
#: First block of trials of a walk that is not sized from the drift; later
#: blocks double.
_FIRST_BLOCK = 64
#: Widest block (a multiple of 8), which bounds the draws a replication makes
#: past its stopping trial.
_MAX_BLOCK = 2048
#: Replications walked side by side.
_CHUNK_ROWS = 128
#: Most floats a block holds, rows x width: it bounds the walk's buffer at
#: 2 x 1 MB, so memory stays flat in the number of replications.  At least
#: 8 x _CHUNK_ROWS, so a block is never narrower than 8 trials.
_BLOCK_FLOATS = 128 * 1024


def _sized_block(distance: float, drift: float) -> int:
    """1.25 x the trials the drift takes to cover distance, rounded up to a
    multiple of 8 and capped at _MAX_BLOCK."""
    return 8 * max(1, math.ceil(min(1.25 * distance / abs(drift), _MAX_BLOCK) / 8))


def _stop_rule(config: SimulationConfig) -> tuple:
    """The walk's view of the pair and thresholds: the true theory's "yes"
    probability; the "yes" and "no" log D steps of the count formula, with 0
    for an infinite one, whose outcome is counted 0 times until it ends the
    walk (so 0 * inf never forms); the one outcome that can falsify a theory
    in the walk (True for "yes", False for "no", None if none), the one the
    false theory forbids, as the true theory's own is never drawn; its step,
    +inf if QM is true, else -inf; the thresholds ln(prior/upper) and
    ln(prior/lower); and the drift, the mean log D step under the true
    theory: KL(q||r) if QM is true, else -KL(r||q).
    """
    pair = config.resolved_pair()
    p_true, p_false, sign = (pair.q, pair.r, 1.0) if config.true_theory == QM else (pair.r, pair.q, -1.0)
    steps = (log_bayes_factor(pair, TrialTally(1, yes)).log_value for yes in (1, 0))
    yes, no = (step if math.isfinite(step) else 0.0 for step in steps)
    falsifier = None if 0.0 < p_false < 1.0 else p_false == 0.0
    lo = math.log(config.prior_odds / config.upper_threshold)
    hi = math.log(config.prior_odds / config.lower_threshold)
    return p_true, (yes, no), falsifier, sign * math.inf, (lo, hi), sign * _kl(p_true, p_false)


def _draw(gen: np.random.Generator, key: list[int], indices: list[int], done: int, draws: np.ndarray) -> None:
    """Fills row i of draws with draws done + 1, done + 2, ... of the
    substream of replication indices[i] under the run's key, from one
    generator set to each counter in turn.  done must be a multiple of 4:
    Philox makes 4 draws per counter step."""
    bit_generator, step, inner = gen.bit_generator, done // 4, {"counter": None, "key": key}
    state = {
        "bit_generator": "Philox",
        "state": inner,
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for row, index in zip(draws, indices):
        inner["counter"] = [step, 0, index, 0]
        bit_generator.state = state
        gen.random(out=row)


def _yes_counts(is_yes: np.ndarray, count: np.ndarray, m: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Fills m with np.cumsum(is_yes, axis=1, dtype=np.float64) + count[:, None],
    exact below 2**53, eight trials to a word: a little-endian word of bool
    lanes times 0x0101010101010101 holds in byte j the count of lanes 0..j,
    in byte 7 its total.  The totals' running sum is each word's carry within
    the block (at most _MAX_BLOCK, so 16 bits), spread over 16-bit lanes, one
    per trial.  The words go in scratch, flat float64 at least m's size."""
    rows, width = is_yes.shape
    words, flat = is_yes.view("<u8"), scratch.view("<u8")
    prefix = np.multiply(words, 0x0101010101010101, out=flat[: words.size].reshape(words.shape))
    totals = prefix >> 56
    carry = np.add.accumulate(totals, axis=1) - totals
    spread = flat[words.size : 3 * words.size].reshape(rows, -1, 2)
    np.multiply(carry, 0x0001000100010001, out=spread[:, :, 0])  # four 16-bit lanes of carry
    spread[:, :, 1] = spread[:, :, 0]
    in_block = spread.view("<u2").reshape(rows, width)
    in_block += prefix.view(np.uint8).reshape(rows, width)
    np.copyto(m, in_block)
    return np.add(m, count[:, None], out=m)


def _walk(config: SimulationConfig, start: int, stop: int, rule: tuple | None = None) -> tuple[np.ndarray, ...]:
    """Walk replications [start, stop) side by side by rule, _stop_rule(config).

    Returns their stopping trials, int8 decision codes (indices into
    _DECISIONS) and final log Bayes factors.  Replications go in chunks of
    _CHUNK_ROWS, each drawn in blocks of a multiple of 8 trials (_draw) under
    the run's one key, so every row gets exactly the draws of its trial_stream;
    the last block may draw up to 7 trials past max_trials, which no walk
    reaches.  A walk whose outcomes are certain (p_true is 0 or 1) makes no
    draws, and every row walks as the first does.

    Blocks are sized from the drift, the mean log D step under the true
    theory (_stop_rule).  Where it is finite and non-zero (no outcome of
    positive probability falsifies a theory), a block is 1.25 x the trials
    the drift takes to cover the farthest live row's distance to the
    threshold it drifts to, which for the first block is the whole distance
    from log D = 0.  Otherwise the first block is _FIRST_BLOCK and each
    later one doubles.  Every block is capped at _MAX_BLOCK trials and at
    _BLOCK_FLOATS draws.

    After every trial the walk compares log D with ln(prior/upper) and
    ln(prior/lower).  Log D after n trials with m "yes" outcomes is
    (n - m) ln((1-q)/(1-r)) + m ln(q/r), a function of the counts alone, so
    it does not depend on the block or chunk layout; the counts (_yes_counts)
    are kept in float64, exact up to 2**53, which bounds max_trials.

    A walk stops at its first trial that reaches a threshold, that draws the
    one outcome able to falsify a theory (_stop_rule; the final log D is
    then that outcome's +-inf step) or that is trial max_trials.  Its final
    decides it: at or past ln(prior/lower) is LR_REJECTED, at or past
    ln(prior/upper) QM_REJECTED, otherwise INCONCLUSIVE.
    """
    p_true, (yes, no), falsifier, falsified, (lo, hi), drift = rule = rule or _stop_rule(config)
    certain = p_true in (0.0, 1.0)
    if certain and stop - start > 1:  # every row walks the same outcomes
        return tuple(np.full(stop - start, column[0]) for column in _walk(config, start, start + 1, rule))
    sized = math.isfinite(drift) and drift != 0.0
    target = hi if drift > 0.0 else lo

    if not certain:  # one Philox, whose key every replication shares
        gen = np.random.Generator(np.random.Philox(config.master_seed))
        key = gen.bit_generator.state["state"]["key"].tolist()
    stops = np.empty(stop - start, dtype=np.int64)
    finals = np.empty(stop - start)
    # one buffer for the walk, so the blocks do not grow and shrink the heap
    # (which costs page faults): per block, half of it takes the draws, then
    # the "yes" counts m and then log D in place, the other half the counts'
    # words and then the "no" term
    floats = min(_CHUNK_ROWS, stop - start) * min(_MAX_BLOCK, config.max_trials + 7)
    buffer = np.empty((2, min(floats, _BLOCK_FLOATS)))
    for base in range(start, stop, _CHUNK_ROWS):
        live = np.arange(min(_CHUNK_ROWS, stop - base))  # chunk rows still walking
        count = np.zeros(live.size)  # "yes" outcomes so far
        done, block = 0, _sized_block(abs(target), drift) if sized else _FIRST_BLOCK
        while live.size:
            width = min(block, _BLOCK_FLOATS // live.size // 8 * 8, (config.max_trials - done + 7) & -8)
            n = np.arange(done + 1, done + width + 1, dtype=np.float64)
            draws, no_part = (half[: live.size * width].reshape(live.size, width) for half in buffer)
            if certain:  # draws < p_true has one value for every draw in [0, 1)
                draws.fill(0.0)
            else:
                _draw(gen, key, (live + base).tolist(), done, draws)
            is_yes = draws < p_true
            m = _yes_counts(is_yes, count, draws, buffer[1])
            count = m[:, -1].copy()
            np.subtract(n, m, out=no_part)
            no_part *= no
            log_d = np.multiply(m, yes, out=m)
            log_d += no_part
            stopped = log_d >= hi
            stopped |= log_d <= lo
            if falsifier is not None:
                stopped |= is_yes == falsifier
            if done + width >= config.max_trials:
                stopped[:, config.max_trials - done - 1] = True
            done += width
            first = stopped.argmax(axis=1)
            ended = stopped[np.arange(live.size), first]
            walking = slice(None)  # every row, unless one ended
            if ended.any():
                walking = ~ended
                rows, first = ended.nonzero()[0], first[ended]
                at = live[ended] + (base - start)
                stops[at] = n[first]
                final = log_d[rows, first]
                if falsifier is not None:
                    final[is_yes[rows, first] == falsifier] = falsified
                finals[at] = final
                live, count = live[walking], count[walking]
            if not sized:
                block = min(2 * block, _MAX_BLOCK)
            elif live.size:
                block = _sized_block(np.abs(target - log_d[walking, -1]).max(), drift)
    codes = np.zeros(stop - start, dtype=np.int8)
    codes[finals >= hi] = 1
    codes[finals <= lo] = 2
    return stops, codes, finals


def run_trajectory(config: SimulationConfig, replication_index: int) -> Trajectory:
    """Simulate one sequential experiment under the configured true theory.

    Each trial is "yes" with probability q (true_theory "qm") or r ("lr");
    the cumulative log Bayes factor moves by ln(q/r) on "yes" and
    ln((1-q)/(1-r)) on "no".  The walk stops the first time the implied odds
    reach a threshold; an outcome one theory declared impossible settles the
    experiment on the spot.  The batch walker decides the stop; the outcomes
    are then redrawn from trial_stream and log D rebuilt from their counts.
    """
    index = _check_int("replication_index", replication_index, 0, config.replications - 1)
    p_true, (yes, no), *_ = rule = _stop_rule(config)
    (stop,), (code,), (final,) = (column.tolist() for column in _walk(config, index, index + 1, rule))
    outcomes = trial_stream(config.master_seed, index).random(stop) < p_true
    m, n = np.cumsum(outcomes), np.arange(1, stop + 1)
    cumulative = m * yes + (n - m) * no
    cumulative[-1] = final  # +-inf if the last outcome falsified a theory
    return Trajectory(outcomes, cumulative, _DECISIONS[code], stop)


def replication_summaries(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every replication's stopping trial, decision code (an int8 index into
    _DECISIONS) and final log Bayes factor: the walker's columns.  A walk
    stops at a threshold, at the one outcome that can falsify a theory
    (final +-inf) or at max_trials."""
    return _walk(config, 0, config.replications)


def summarize(walk: tuple[np.ndarray, np.ndarray, np.ndarray]) -> StoppingReport:
    """Stopping statistics of replication_summaries' columns in replication
    order, which neither scheduling nor the walk's block and chunk layout
    changes; reordering them can move the float sum of final log D.  The mean
    and sd are the ufunc reductions of np.mean and np.std(ddof=1), bit for bit."""
    stops, codes, finals = walk
    counts = np.bincount(codes, minlength=len(_DECISIONS)).tolist()
    q05, q50, q95 = _quantiles(stops, (0.05, 0.5, 0.95))
    mean = np.add.reduce(stops, dtype=np.float64) / len(stops)
    deviations = stops - mean
    squares = np.add.reduce(np.square(deviations, out=deviations))
    return StoppingReport(
        mean_stop=float(mean),
        stddev_stop=math.sqrt(squares / (len(stops) - 1)) if len(stops) > 1 else 0.0,
        q05=q05,
        q50=q50,
        q95=q95,
        decision_counts={LR_REJECTED: counts[1], QM_REJECTED: counts[2], INCONCLUSIVE: counts[0]},
        mean_log_d_per_trial=float(finals.sum() / stops.sum()),
    )


def _quantiles(values: np.ndarray, quantiles: tuple[float, ...]) -> list[float]:
    """np.quantile(values, quantiles) under numpy's default "linear" rule,
    bit for bit, from one sort and Python floats: at v = (n - 1) q, between
    a = s[floor(v)] and b = the next value (or a at the end) with weight
    g = v - floor(v), it takes b - (b - a)(1 - g) if g >= 0.5, else
    a + (b - a) g.  np.percentile costs more than the rest of a small
    report."""
    s = np.sort(values)
    result = []
    for q in quantiles:
        v = (len(s) - 1) * q
        i = math.floor(v)
        a, b, g = s[i].item(), s[min(i + 1, len(s) - 1)].item(), v - i
        result.append(float(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g))
    return result


def run_replications(config: SimulationConfig) -> StoppingReport:
    """All replications, aggregated: a pure function of the configuration, as
    each replication's substream is fixed by its index."""
    return summarize(replication_summaries(config))
