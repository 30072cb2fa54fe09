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
import os
import threading
from dataclasses import dataclass

import numpy as np

from .bayes import LR, QM, HypothesisPair, TrialTally, _check_int, _kl, log_bayes_factor
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

    The experiment stops once the LR:QM odds are <= lower_threshold (LR
    rejected) or >= upper_threshold (QM rejected), checked after each trial's
    update in float64 logs (log D from the counts against ln(prior/threshold)),
    so a tie can round either way: for the pair (1, 0.1) the decimal odds hit
    0.01 at trial 4, but 4 * (ln 1 - ln 0.1) = 9.210340371976182 is below
    ln(1e4) = 9.210340371976184, and the walk stops at trial 5.  scenario is a
    ScenarioSpec, whose pair scenario_pair resolves, or a HypothesisPair,
    simulated as given.  replications is at most 2**32.
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
    "yes" on the raw words these doubles are made from, some of whose rows a
    helper thread may fill: a row's words depend on its key and counter
    alone, not on the thread that draws them."""
    index = _check_int("replication_index", replication_index, 0, 2**32 - 1)
    seed = _check_int("master_seed", master_seed, 0, 2**64 - 1)  # the seeds Philox takes
    return np.random.Generator(np.random.Philox(seed).advance(index << 128))


#: Decision codes of the batch walker, indexed by code.
_DECISIONS = (INCONCLUSIVE, LR_REJECTED, QM_REJECTED)
#: First block of trials of a walk that is not sized from the drift; later
#: blocks double.
_FIRST_BLOCK = 64
#: Widest block (a multiple of 8, below 2**16).  _BLOCK_FLOATS cuts blocks
#: narrower once more than 21 rows live, so this cap binds only with at most
#: 21; it bounds the draws past a stop of the walks not sized from the drift.
_MAX_BLOCK = 6144
#: Replications walked side by side.
_CHUNK_ROWS = 128
#: Most floats a block holds, rows x width: it bounds the walk's buffer at
#: 2 x 1 MB, so memory stays flat in the number of replications.  At least
#: 8 x _CHUNK_ROWS, so a block is never narrower than 8 trials.
_BLOCK_FLOATS = 128 * 1024
#: Narrowest block whose "yes" flags _draw takes from raw words; below it, their extra call per row costs more.
_RAW_WIDTH = 1024
#: Fewest draws (rows x width) of a raw-word block whose rows _draw shares
#: with the fill helper thread (_FillHelper); below it the hand-off costs
#: more than the half fill it saves.
_SPLIT_DRAWS = 2**15
#: CPUs the process may run on; on one, _draw fills every row itself.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
#: Trial counts below which _bounds caches a stop rule's count bounds; a
#: block reaching past it builds its own, uncached.
_BOUND_CAP = 2**16
#: Most stop rules whose count bounds _bounds keeps, the least recently used
#: going first.
_BOUND_RULES = 8
#: Count bounds per stop rule (yes, no, lo, hi): int32 arrays a and b over
#: the trial counts 0, 1, ..., each below _BOUND_CAP (_count_bounds).
_BOUNDS: dict[tuple[float, ...], tuple[np.ndarray, np.ndarray]] = {}


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
    false theory forbids, as the true theory's own is never drawn; the
    thresholds ln(prior/upper) and ln(prior/lower); and the drift, the mean
    log D step under the true theory: KL(q||r) if QM is true, else -KL(r||q).
    With a falsifier the false theory's p is 0 or 1 and the true theory's
    another value, so the drift is +-inf, the falsifier's step."""
    pair = config.resolved_pair()
    p_true, p_false, sign = (pair.q, pair.r, 1.0) if config.true_theory == QM else (pair.r, pair.q, -1.0)
    steps = (log_bayes_factor(pair, TrialTally(1, yes)) for yes in (1, 0))
    yes, no = (step if math.isfinite(step) else 0.0 for step in steps)
    falsifier = None if 0.0 < p_false < 1.0 else p_false == 0.0
    lo = math.log(config.prior_odds / config.upper_threshold)
    hi = math.log(config.prior_odds / config.lower_threshold)
    return p_true, (yes, no), falsifier, (lo, hi), sign * _kl(p_true, p_false)


def _log_d(m, n, yes: float, no: float):
    """The walk's float log D after n trials with m "yes" outcomes:
    fl(fl(m * yes) + fl((n - m) * no)), n - m exact below 2**53."""
    return m * yes + (n - m) * no


def _count_bounds(yes: float, no: float, lo: float, hi: float, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each trial count in n (float64), the "yes" counts a and b (float64)
    such that a walk with m "yes" outcomes in n trials goes on exactly when
    a < m < b, that is when lo < _log_d(m, n, yes, no) < hi.  Rounding is
    monotone, so that float log D is monotone in m for a fixed n (yes and no
    are of opposite signs or 0): each bound is the real-valued crossing, fixed
    up by steps of one count until the float log D agrees."""
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

    return last_below(lo, np.less_equal), last_below(hi, np.less) + 1


def _bounds(rule: tuple[float, ...], start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """_count_bounds of rule (yes, no, lo, hi) for the trial counts
    start..stop - 1, from _BOUNDS, which grows in windows of at most
    _MAX_BLOCK trial counts up to _BOUND_CAP; past it they are built for the
    caller alone.  The bounds are a pure function of the rule, so what the
    cache holds never changes a walk."""
    if stop > _BOUND_CAP:
        return _count_bounds(*rule, np.arange(start, stop, dtype=np.float64))
    a, b = _BOUNDS.pop(rule, None) or (np.empty(0, dtype=np.int32),) * 2
    while a.size < stop:
        n = np.arange(a.size, min(a.size + _MAX_BLOCK, _BOUND_CAP), dtype=np.float64)
        a, b = (np.concatenate((old, new.astype(np.int32))) for old, new in zip((a, b), _count_bounds(*rule, n)))
    _BOUNDS[rule] = a, b
    while len(_BOUNDS) > _BOUND_RULES:
        del _BOUNDS[next(iter(_BOUNDS))]
    return a[start:stop], b[start:stop]


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


class _FillHelper:
    """A daemon thread that runs _fill on its own generator, one job at a
    time, while the walk's thread fills the other rows of the block: Philox's
    C loop runs without the GIL, so the two fills overlap.  busy is held from
    a job's post until the thread has finished it."""

    def __init__(self) -> None:
        self.pid = os.getpid()  # a forked child has no thread behind this object
        self.gen = np.random.Generator(np.random.Philox(0))
        self.busy = threading.Lock()
        self.posted = threading.Lock()
        self.posted.acquire()
        self.job: list = []  # _fill's arguments, a lock released once they are filled, the error if one was raised
        threading.Thread(target=self._run, name="bellodds-fill", daemon=True).start()

    def _run(self) -> None:
        while True:
            self.posted.acquire()
            job = self.job
            try:
                _fill(self.gen, *job[0])
            except BaseException as error:  # handed to the walk's thread, which raises it
                job[2] = error
            job[1].release()
            self.busy.release()

    def fill(self, gen: np.random.Generator, key: list[int], indices: list[int], step: int, rows: np.ndarray,
             cut: np.uint64) -> bool:
        """_fill of every row, the second half's on the thread; False, having
        filled nothing, while another walk holds the thread."""
        if not self.busy.acquire(blocking=False):
            return False
        half, finished = (len(indices) + 1) // 2, threading.Lock()
        finished.acquire()
        self.job = job = [(key, indices[half:], step, rows[half:], cut), finished, None]
        self.posted.release()
        try:
            _fill(gen, key, indices[:half], step, rows[:half], cut)
        finally:
            finished.acquire()  # the thread's rows are written, or it failed
        if job[2] is not None:
            raise job[2]
        return True


#: The fill helper _helper started, with the pid of its process.
_HELPER: _FillHelper | None = None
#: Held while _helper starts one.
_STARTING = threading.Lock()


def _helper() -> _FillHelper | None:
    """This process's fill helper, started on first use (again in a forked
    child), or None while another thread starts it."""
    global _HELPER
    if _HELPER is None or _HELPER.pid != os.getpid():
        if not _STARTING.acquire(blocking=False):
            return None
        try:
            if _HELPER is None or _HELPER.pid != os.getpid():
                _HELPER = _FillHelper()
        finally:
            _STARTING.release()
    return _HELPER


def _draw(gen: np.random.Generator, key: list[int], indices: list[int], done: int, draws: np.ndarray, p_true: float,
          cut: np.uint64) -> np.ndarray:
    """Row i's "yes" flags for draws done + 1, done + 2, ... of the substream
    of replication indices[i] under the run's key (_fill; done a multiple of
    4: Philox makes 4 draws per counter step).  Rows narrower than
    _RAW_WIDTH compare doubles with p_true; wider ones skip the float fill
    and compare the raw words with cut, ceil(p_true * 2**53) << 11, which
    decides alike: a double is (word >> 11) * 2**-53, and p_true * 2**53 is
    exact.  A block of raw words with two rows or more and _SPLIT_DRAWS
    draws or more, in a process that may run on more than one CPU, gives
    half its rows to the fill helper thread, unless another walk holds it;
    the flags are the same either way."""
    step = done // 4
    if draws.shape[1] < _RAW_WIDTH:
        _fill(gen, key, indices, step, draws, cut)
        return draws < p_true
    flags = np.empty(draws.shape, dtype=bool)
    helper = _helper() if len(indices) > 1 and flags.size >= _SPLIT_DRAWS and _CPUS > 1 else None
    if helper is None or not helper.fill(gen, key, indices, step, flags, cut):
        _fill(gen, key, indices, step, flags, cut)
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
    """Walk replications [start, stop) side by side by rule, _stop_rule(config).

    Returns their stopping trials, int8 decision codes (indices into
    _DECISIONS) and final log Bayes factors.  Replications go in chunks of
    _CHUNK_ROWS, each drawn in blocks of a multiple of 8 trials (_draw) under
    the run's one key, so every row gets exactly the draws of its trial_stream
    (raw words in blocks of _RAW_WIDTH or more, half of whose rows a helper
    thread may fill, with the same words); the last block may draw up to 7
    trials past max_trials, which no walk reaches.  The walk itself runs on
    the caller's thread.  A walk whose outcomes are certain (p_true is 0 or
    1) makes no draws, and every row walks as the first does.

    Blocks are sized from the drift, the mean log D step under the true
    theory (_stop_rule).  Where it is finite and non-zero (no outcome of
    positive probability falsifies a theory), a block is 1.25 x the trials
    the drift takes to cover the farthest live row's distance to the
    threshold it drifts to, which for the first block is the whole distance
    from log D = 0.  Otherwise the first block is _FIRST_BLOCK and each
    later one doubles.  Every block is capped at _MAX_BLOCK trials and at
    _BLOCK_FLOATS draws, the tighter cap once more than 21 rows are live.

    After every trial the walk decides as if it compared log D with
    ln(prior/upper) and ln(prior/lower).  Log D after n trials with m "yes"
    outcomes is (n - m) ln((1-q)/(1-r)) + m ln(q/r) in floats (_log_d), a
    function of the counts alone, so it does not depend on the block or chunk
    layout, and that comparison is the integer one a(n) < m < b(n) against
    count bounds tabulated once per n from the same expression (_count_bounds)
    and cached per stop rule (_bounds).  Log D itself is formed only for a
    walk's final and to size the next block.  The counts (_yes_counts) are
    kept in float64, exact up to 2**53, which bounds max_trials.

    A walk stops at its first trial that reaches a threshold, that draws the
    one outcome able to falsify a theory (_stop_rule; the final log D is
    then that outcome's +-inf step, the drift) or that is trial max_trials.
    Its final decides it: at or past ln(prior/lower) is LR_REJECTED, at or
    past ln(prior/upper) QM_REJECTED, otherwise INCONCLUSIVE.
    """
    p_true, (yes, no), falsifier, (lo, hi), drift = rule = rule or _stop_rule(config)
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
    floats = min(min(_CHUNK_ROWS, stop - start) * min(_MAX_BLOCK, config.max_trials + 7), _BLOCK_FLOATS)
    buffer = np.empty(floats + (3 * floats + 7) // 8)
    for base in range(start, stop, _CHUNK_ROWS):
        live = np.arange(min(_CHUNK_ROWS, stop - base))  # chunk rows still walking
        count = np.zeros(live.size)  # "yes" outcomes so far
        done, block = 0, _sized_block(abs(target), drift) if sized else _FIRST_BLOCK
        while live.size:
            width = min(block, _BLOCK_FLOATS // live.size // 8 * 8, (config.max_trials - done + 7) & -8)
            draws = buffer[: live.size * width].reshape(live.size, width)
            if certain:  # draws < p_true has one value for every draw in [0, 1)
                is_yes = np.full(draws.shape, p_true == 1.0)
            else:
                is_yes = _draw(gen, key, (live + base).tolist(), done, draws, p_true, cut)
            m = _yes_counts(is_yes, count, draws, buffer[floats:])
            count = m[:, -1].copy()
            a, b = _bounds((yes, no, lo, hi), done + 1, done + width + 1)
            stopped = m <= a
            stopped |= m >= b
            if falsifier is not None:
                stopped |= is_yes == falsifier
            if done + width >= config.max_trials:
                stopped[:, config.max_trials - done - 1] = True
            first = stopped.argmax(axis=1)
            ended = stopped[np.arange(live.size), first]
            if ended.any():
                rows, first = ended.nonzero()[0], first[ended]
                at = live[ended] + (base - start)
                n = first + (done + 1)
                stops[at] = n
                final = _log_d(m[rows, first], n, yes, no)
                if falsifier is not None:
                    final[is_yes[rows, first] == falsifier] = drift
                finals[at] = final
                live, count = live[~ended], count[~ended]
            done += width
            if not sized:
                block = min(2 * block, _MAX_BLOCK)
            elif live.size:
                block = _sized_block(np.abs(target - _log_d(count, done, yes, no)).max(), drift)
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
    cumulative = _log_d(np.cumsum(outcomes), np.arange(1, stop + 1), yes, no)
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
