"""Monte Carlo sequential experiments: per-trial odds updates to a stopping
decision, replicated over independent random substreams.

The stopping rule (bellodds.law) generalizes the running example of a local
realist who starts at 100:1 odds in their favor and concedes at 0.01.  Each
replication draws from its own counter-based substream, so results are a
pure function of the configuration no matter how replications are scheduled.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .bayes import LR, QM, HypothesisPair, _check_int
from .law import _WINDOW, _bounds, _codes, _final, _log_d, _stop_rule
from .scenarios import ScenarioSpec, scenario_pair

__all__ = [
    "GENERATOR",
    "INCONCLUSIVE",
    "LR_REJECTED",
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

LR_REJECTED = "lr_rejected"
QM_REJECTED = "qm_rejected"
INCONCLUSIVE = "inconclusive"

#: Identification of the random stream construction, echoed in CLI output.
GENERATOR = "numpy.random.Philox(master_seed).jumped(replication_index)"


@dataclass(frozen=True)
class SimulationConfig:
    """Everything a sequential experiment needs, thresholds included.

    The experiment stops by the rule of bellodds.law: once the LR:QM odds are
    <= lower_threshold or >= upper_threshold, an outcome falsifies a theory,
    or at max_trials.  scenario is a ScenarioSpec, whose pair scenario_pair
    resolves, or a HypothesisPair, simulated as given.  replications is at most 2**32.
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
            raise ValueError(f"degenerate pair q = r = {pair.q!r}: the outcome both theories forbid has no log D step")

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
    factor over total trials): it converges to KL(q||r) when QM is true and
    to -KL(r||q) when LR is true, and is +inf once an outcome falsifies LR
    (hardy-naive, QM true) and -inf once one falsifies QM (ghz, LR true).
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
    same key and counter, and in blocks of _RAW_WIDTH trials or more decides
    "yes" on the raw words these doubles are made from, some of whose rows
    the process's fill thread may draw, in whatever order its job queue
    runs them: a row's words depend on its key and counter alone, not on the
    thread that draws them or when."""
    index = _check_int("replication_index", replication_index, 0, 2**32 - 1)
    seed = _check_int("master_seed", master_seed, 0, 2**64 - 1)  # the seeds Philox takes
    return np.random.Generator(np.random.Philox(seed).advance(index << 128))


#: Decision codes of the batch walker, indexed by code.
_DECISIONS = (INCONCLUSIVE, LR_REJECTED, QM_REJECTED)
#: First block of trials of a walk that is not sized from the drift; later
#: blocks double.
_FIRST_BLOCK = 64
#: Widest block: law's window (a multiple of 8, below 2**16).  _BLOCK_FLOATS
#: cuts blocks narrower once more than 21 rows live, so this cap binds only
#: with at most 21; it bounds the draws past a stop of the walks not sized from the drift.
_MAX_BLOCK = _WINDOW
#: Replications walked side by side.
_CHUNK_ROWS = 128
#: Most floats a block holds, rows x width: it bounds the walk's buffer at
#: 2 x 1 MB, so memory stays flat in the number of replications.  At least
#: 8 x _CHUNK_ROWS, so a block is never narrower than 8 trials.
_BLOCK_FLOATS = 128 * 1024
#: Narrowest block whose "yes" flags _draw takes from raw words; below it, their extra call per row costs more.
_RAW_WIDTH = 1024
#: Fewest draws (rows x width) of a raw-word block whose rows _draw shares
#: with the fill thread (_fill_jobs); below it the hand-off costs more than
#: the half fill it saves.
_SPLIT_DRAWS = 2**15
#: CPUs the process may run on; on one, _draw fills every row itself.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _sized_block(distance: float, drift: float) -> int:
    """1.25 x the trials the drift takes to cover distance, rounded up to a
    multiple of 8 and capped at _MAX_BLOCK."""
    return 8 * max(1, math.ceil(min(1.25 * distance / abs(drift), _MAX_BLOCK) / 8))


def _fill(gen: np.random.Generator, key: list[int], indices: list[int], step: int, rows: np.ndarray,
          cut: np.uint64) -> None:
    """Fills row i of rows from the substream of replication indices[i] under
    the run's key, from Philox counter step on, with gen set to each counter
    in turn: a float64 row with its doubles, a bool row with its raw words'
    "yes" flags, word < cut.  A row's draws depend on its key and counter
    alone, not on gen's own seed."""
    bit_generator, inner, raw = gen.bit_generator, {"counter": None, "key": key}, rows.dtype == bool
    state = {
        "bit_generator": "Philox",
        "state": inner,
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for row, index in zip(rows, indices):
        inner["counter"] = [step, 0, index, 0]
        bit_generator.state = state
        if raw:
            np.less(bit_generator.random_raw(row.size), cut, out=row)
        else:
            gen.random(out=row)


def _fill_jobs(jobs: queue.SimpleQueue, gen: np.random.Generator) -> None:
    """The fill thread: runs _fill on gen for each job, (_fill's other
    arguments, a reply queue), in the order posted, and puts None or the
    error it raised on the job's reply queue; a None job ends it.  Philox's C
    loop runs without the GIL, so a job overlaps the poster's own fill."""
    while (job := jobs.get()) is not None:
        try:
            _fill(gen, *job[0])
        except BaseException as error:  # handed to the posting thread, which raises it
            job[1].put(error)
        else:
            job[1].put(None)


#: The job queue of each process's fill thread (_fill_jobs), by pid: a
#: forked child has no thread behind its parent's queue.
_JOBS: dict[int, queue.SimpleQueue] = {}


def _draw(gen: np.random.Generator, key: list[int], indices: list[int], done: int, draws: np.ndarray, p_true: float,
          cut: np.uint64) -> np.ndarray:
    """Row i's "yes" flags for draws done + 1, done + 2, ... of the substream
    of replication indices[i] under the run's key (_fill; done a multiple of
    4: Philox makes 4 draws per counter step).  Rows narrower than
    _RAW_WIDTH compare doubles with p_true; wider ones skip the float fill
    and compare the raw words with cut, ceil(p_true * 2**53) << 11, which
    decides alike: a double is (word >> 11) * 2**-53, and p_true * 2**53 is
    exact.  A block of raw words with two rows or more and _SPLIT_DRAWS
    draws or more, in a process that may run on more than one CPU, posts
    its second half of rows, ceil(rows / 2) on, to the process's fill thread
    (_fill_jobs, started on the first such block, again in a forked child),
    fills the first half itself and waits for the thread's reply, raising
    the error it sends back.  A block posted while another walk's job runs
    waits its turn; the flags are the same whichever thread draws a row."""
    step = done // 4
    if draws.shape[1] < _RAW_WIDTH:
        _fill(gen, key, indices, step, draws, cut)
        return draws < p_true
    flags = np.empty(draws.shape, dtype=bool)
    if len(indices) < 2 or flags.size < _SPLIT_DRAWS or _CPUS < 2:
        _fill(gen, key, indices, step, flags, cut)
        return flags
    if (jobs := _JOBS.get(pid := os.getpid())) is None:
        # started before it is published, so a failed start leaves no queue that a later block waits on forever
        jobs = queue.SimpleQueue()
        thread = threading.Thread(target=_fill_jobs, args=(jobs, np.random.Generator(np.random.Philox(0))),
                                  name="bellodds-fill", daemon=True)
        thread.start()
        if _JOBS.setdefault(pid, jobs) is not jobs:  # another walk published first
            jobs.put(None)
            thread.join()
            jobs = _JOBS[pid]
    h, reply = (len(indices) + 1) // 2, queue.SimpleQueue()
    jobs.put(((key, indices[h:], step, flags[h:], cut), reply))
    try:
        _fill(gen, key, indices[:h], step, flags[:h], cut)
    finally:
        error = reply.get()  # the thread's rows are written, or it failed
    if error is not None:
        raise error
    return flags


def _yes_counts(is_yes: np.ndarray, count: np.ndarray, m: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Fills m with np.cumsum(is_yes, axis=1, dtype=np.float64) + count[:, None],
    exact below 2**53, eight trials to a word: a little-endian word of bool
    lanes times 0x0101010101010101 holds in byte j the count of lanes 0..j,
    in byte 7 its total.  The totals' running sum is each word's carry within
    the block (at most _MAX_BLOCK < 2**16), spread over 16-bit lanes, one
    per trial.  The words go in scratch, flat float64 of at least 3/8 of m's
    size."""
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
    """Walk replications [start, stop) side by side by rule, law._stop_rule(config).

    Returns their stopping trials, int8 decision codes (indices into
    _DECISIONS) and final log Bayes factors.  Replications go in chunks of
    _CHUNK_ROWS, each drawn in blocks of a multiple of 8 trials (_draw) under
    the run's one key, so every row gets exactly the draws of its trial_stream
    (raw words in blocks of _RAW_WIDTH or more, half of whose rows the fill
    thread may draw, with the same words); the last block may draw up to 7
    trials past max_trials, which no walk reaches.  The walk itself runs on
    the caller's thread.  A walk whose outcomes are certain (p_true is 0 or
    1) makes no draws, and every row walks as the first does.

    Blocks are sized from the drift, the mean log D step under the true
    theory.  Where it is finite and non-zero (no outcome of
    positive probability falsifies a theory), a block is 1.25 x the trials
    the drift takes to cover the farthest live row's distance to the
    threshold it drifts to, which for the first block is the whole distance
    from log D = 0.  Otherwise the first block is _FIRST_BLOCK and each
    later one doubles.  Every block is capped at _MAX_BLOCK trials and at
    _BLOCK_FLOATS draws, the tighter cap once more than 21 rows are live.

    Rows stop by the rule of bellodds.law: at the first trial whose "yes"
    count (_yes_counts) leaves its count bounds (law._bounds).  Their finals
    (law._final) and codes (law._codes) depend on the counts alone.
    """
    p_true, bounds, drift = rule = rule or _stop_rule(config)
    yes, no, lo, hi, _, max_trials = bounds
    certain = p_true in (0.0, 1.0)
    if certain and stop - start > 1:  # every row walks the same outcomes
        return tuple(np.full(stop - start, column[0]) for column in _walk(config, start, start + 1, rule))
    sized = math.isfinite(drift) and drift != 0.0
    target = hi if drift > 0.0 else lo

    if not certain:  # one Philox, whose key every replication shares
        gen = np.random.Generator(np.random.Philox(config.master_seed))
        key = gen.bit_generator.state["state"]["key"].tolist()
        cut = np.uint64(math.ceil(p_true * 2.0**53) << 11)  # below 2**64, as p_true < 1
    stops = np.empty(stop - start, dtype=np.int64)
    finals = np.empty(stop - start)
    # one buffer for the walk, so the blocks do not grow and shrink the heap
    # (which costs page faults): per block, its head takes the doubles of a
    # block narrower than _RAW_WIDTH and then the "yes" counts m, its tail
    # (3/8 of the head) the counts' words
    floats = min(min(_CHUNK_ROWS, stop - start) * min(_MAX_BLOCK, max_trials + 7), _BLOCK_FLOATS)
    buffer = np.empty(floats + (3 * floats + 7) // 8)
    for base in range(start, stop, _CHUNK_ROWS):
        live = np.arange(min(_CHUNK_ROWS, stop - base))  # chunk rows still walking
        count = np.zeros(live.size)  # "yes" outcomes so far
        done, block = 0, _sized_block(abs(target), drift) if sized else _FIRST_BLOCK
        while live.size:
            width = min(block, _BLOCK_FLOATS // live.size // 8 * 8, (max_trials - done + 7) & -8)
            draws = buffer[: live.size * width].reshape(live.size, width)
            if certain:  # draws < p_true has one value for every draw in [0, 1)
                is_yes = np.full(draws.shape, p_true == 1.0)
            else:
                is_yes = _draw(gen, key, (live + base).tolist(), done, draws, p_true, cut)
            m = _yes_counts(is_yes, count, draws, buffer[floats:])
            count = m[:, -1].copy()
            a, b = _bounds(bounds, done + 1, done + width + 1)
            stopped = m <= a
            stopped |= m >= b
            first = stopped.argmax(axis=1)
            ended = stopped[np.arange(live.size), first]
            if ended.any():
                rows, first = ended.nonzero()[0], first[ended]
                at = live[ended] + (base - start)
                n = first + (done + 1)
                stops[at] = n
                finals[at] = _final(bounds, drift, m[rows, first], n)
                live, count = live[~ended], count[~ended]
            done += width
            if not sized:
                block = min(2 * block, _MAX_BLOCK)
            elif live.size:
                block = _sized_block(np.abs(target - _log_d(count, done, yes, no)).max(), drift)
    return stops, _codes(bounds, finals), finals


def run_trajectory(config: SimulationConfig, replication_index: int) -> Trajectory:
    """Simulate one sequential experiment under the configured true theory.

    Each trial is "yes" with probability q (true_theory "qm") or r ("lr"),
    and the walk stops by the rule bellodds.law states.  The batch walker
    decides the stop; the outcomes are then redrawn from trial_stream and
    log D rebuilt from their counts.
    """
    index = _check_int("replication_index", replication_index, 0, config.replications - 1)
    p_true, (yes, no, *_), _ = rule = _stop_rule(config)
    (stop,), (code,), (final,) = (column.tolist() for column in _walk(config, index, index + 1, rule))
    outcomes = trial_stream(config.master_seed, index).random(stop) < p_true
    cumulative = _log_d(np.cumsum(outcomes), np.arange(1, stop + 1), yes, no)
    cumulative[-1] = final  # +-inf if the last outcome falsified a theory
    return Trajectory(outcomes, cumulative, _DECISIONS[code], stop)


def replication_summaries(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every replication's stopping trial, decision code (an int8 index into
    _DECISIONS) and final log Bayes factor: the walker's columns, stopped by
    the rule bellodds.law states."""
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
