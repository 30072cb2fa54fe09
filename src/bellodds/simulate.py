"""Monte Carlo sequential experiments: per-trial odds updates to a stopping
decision, replicated over independent random substreams.

The stopping rule (bellodds.law) generalizes the running example of a local
realist who starts at 100:1 odds in their favor and concedes at 0.01.  Each
replication draws from its own counter-based substream, so results are a
pure function of the configuration no matter how replications are scheduled.
A replication spends one draw per outcome of the rarer kind: each double u
is a gap, the trials of the other outcome before the next rare one, G =
#{1 <= t <= L : u < T_t} with T_t = (1 - p)**t by repeated float
multiplication (_gap_table, _gaps); a gap of L trials has no rare outcome
after it, and the next draw goes on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bayes import LR, QM, HypothesisPair, _check_int
from .law import _TABLE_COUNTS, _cached_tables, _count_tables, _decide, _log_d, _stop_rule
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
GENERATOR = "numpy.random.Philox(master_seed).jumped(replication_index), a double per gap to the rarer outcome"


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
    in any order, with identical results.  The batch walker (_fill) sets the
    same key and counter, so a row's doubles are these, block by block."""
    index = _check_int("replication_index", replication_index, 0, 2**32 - 1)
    seed = _check_int("master_seed", master_seed, 0, 2**64 - 1)  # the seeds Philox takes
    return np.random.Generator(np.random.Philox(seed).advance(index << 128))


#: Decision codes of the batch walker, indexed by code.
_DECISIONS = (INCONCLUSIVE, LR_REJECTED, QM_REJECTED)
#: Most terms of a gap table (_gap_table).
_GAP_CAP = 4096
#: First block of draws per row of a walk that is not sized from the drift;
#: later blocks double.
_FIRST_BLOCK = 8
#: Replications walked side by side.
_CHUNK_ROWS = 128
#: Most draws a block holds, rows x width, so memory stays flat in the
#: number of replications.  At least 4 x _CHUNK_ROWS.
_BLOCK_FLOATS = 2**14


def _sized_block(distance: float, drift: float, p_rare: float) -> int:
    """1.5 x the rare outcomes of probability p_rare expected in the trials
    the drift takes to cover distance, rounded up to a multiple of 4."""
    return 4 * max(1, math.ceil(1.5 * p_rare * distance / abs(drift) / 4))


def _fill(gen: np.random.Generator, key: list[int], indices: list[int], step: int, rows: np.ndarray) -> None:
    """Fills row i of rows with the doubles of the substream of replication
    indices[i] under the run's key, from Philox counter step on (4 doubles a
    step), with gen set to each counter in turn.  A row's draws depend on its
    key and counter alone, not on gen's own seed."""
    bit_generator, inner = gen.bit_generator, {"counter": None, "key": key}
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
        gen.random(out=row)


@functools.lru_cache(maxsize=16)
def _gap_table(p_rare: float) -> tuple[np.ndarray, float]:
    """The gap table of an outcome of probability p_rare in (0, 1/2]: inf,
    then T_t = (1 - p_rare)**t by repeated float multiplication for t = 1..L,
    then 0, read-only; L is the first t with T_t <= 2**-53, the least
    positive draw, or _GAP_CAP.  With it, 1 / ln(1 - p_rare), the scale of
    _gaps' guess."""
    powers = np.multiply.accumulate(np.full(_GAP_CAP, 1.0 - p_rare))
    size = min(np.count_nonzero(powers > 2.0**-53) + 1, _GAP_CAP)
    table = np.concatenate(([math.inf], powers[:size], [0.0]))
    table.flags.writeable = False
    return table, 1.0 / math.log1p(-p_rare)


def _gaps(table: np.ndarray, scale: float, draws: np.ndarray) -> np.ndarray:
    """Each draw u's gap, G = #{1 <= t <= L : u < T_t} of the gap table
    (_gap_table): the trials of the majority outcome before the next rare
    one, or, at G = L, a run of L with no rare one after it.  A guess from
    ln u is fixed up until T_G > u >= T_{G+1}, so comparisons with the table
    decide G, not np.log's last bits."""
    with np.errstate(divide="ignore"):  # ln 0 = -inf, whose gap is L
        guess = np.log(draws)
    guess *= scale
    g = np.empty(draws.shape, dtype=np.int64)
    np.minimum(guess, table.size - 2, out=g, casting="unsafe")
    while (up := table[1:].take(g) > draws).any():
        g += up
    while (down := table.take(g) <= draws).any():
        g -= down
    return g


def _walk(rule: tuple, seed: int, start: int, stop: int) -> tuple[np.ndarray, ...]:
    """Walk replications [start, stop) side by side by rule, law._stop_rule
    of their configuration, on the substreams of master_seed seed.

    Returns their stopping trials, int8 decision codes (indices into
    _DECISIONS) and final log Bayes factors.  Each row draws one double of
    its trial_stream per gap of the rarer outcome, the one the rule counts
    (_gap_walk).  A walk whose outcomes are certain (p_rare is 0) makes no
    draws: one row stops where a run of the other outcome from count 0
    leaves the bounds (R[0] of law._count_tables), and every row takes its
    columns.  The codes and finals (law._decide) depend on the count alone.
    """
    p_rare, _, bounds, drift = rule
    if p_rare:
        stops, counts = _gap_walk(seed, bounds, drift, p_rare, start, stop)
    else:
        stops, counts = _cached_tables(bounds, 1)[0][:1], np.zeros(1, dtype=np.int64)
    columns = stops, *_decide(bounds, drift, counts, stops)
    return columns if p_rare else tuple(np.full(stop - start, column[0]) for column in columns)


def _gap_walk(seed: int, bounds: tuple, drift: float, p_rare: float, start: int,
              stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The stopping trials of replications [start, stop) by bounds, the rule
    law._count_tables takes, and the count at each of the outcome it counts,
    the rarer, of probability p_rare.

    Replications go in chunks of _CHUNK_ROWS, each drawn in blocks of a
    multiple of 4 draws per row (_fill) under the one key of Philox(seed),
    and each draw is a gap (_gaps).  Blocks are sized from the drift, the
    mean log D step under the true theory.  Where it is finite and non-zero
    (no outcome of positive probability falsifies a theory), a block holds
    1.5 x the rare outcomes of the trials the drift takes to cover the
    farthest live row's distance to the threshold it drifts to, which for
    the first block is the whole distance from log D = 0.  Otherwise the
    first block is _FIRST_BLOCK and each later one doubles.  Every block is
    capped at _BLOCK_FLOATS draws, at the draws the horizon leaves and, while
    the cached count tables (_TABLE_COUNTS) hold the counts a row reaches,
    at the draws that keep it within them.

    A row with c rare outcomes stops in a gap's run of the other outcome if
    the run reaches R[c], at a rare outcome on a trial at most E[c + 1], and
    at max_trials.
    """
    step, other, lo, hi, _, max_trials = bounds
    stops = np.empty(stop - start, dtype=np.int64)
    counts = np.empty(stop - start, dtype=np.int64)
    gen = np.random.Generator(np.random.Philox(seed))  # its key every replication shares
    key = gen.bit_generator.state["state"]["key"].tolist()
    table, scale = _gap_table(p_rare)
    sized = math.isfinite(drift) and drift != 0.0
    target = hi if drift > 0.0 else lo
    for base in range(start, stop, _CHUNK_ROWS):
        live = np.arange(min(_CHUNK_ROWS, stop - base))  # chunk rows still walking
        n = np.zeros(live.size, dtype=np.int64)  # trials so far
        c = np.zeros(live.size, dtype=np.int64)  # rare outcomes among them
        done, block = 0, _sized_block(abs(target), drift, p_rare) if sized else _FIRST_BLOCK
        while live.size:
            width = min(block, _BLOCK_FLOATS // live.size // 4 * 4, (max_trials - int(n.min()) + 3) & -4)
            room = (_TABLE_COUNTS - 1 - int(c.max())) & -4  # draws the cached tables have counts for
            width = min(width, room) if room > 0 else width
            draws = np.empty((live.size, width))
            _fill(gen, key, (live + base).tolist(), done // 4, draws)
            g = _gaps(table, scale, draws)
            rare = g < table.size - 2
            g += rare
            ends = np.cumsum(g, axis=1)  # trials after each gap and its rare outcome
            ends += n[:, None]
            # the counts this block reaches, from 0 while the cached tables hold them
            low, top = 0, int(c.max()) + width + 1
            if top > _TABLE_COUNTS:
                low = int(c.min())
                r, e = _count_tables(bounds, low, top)
            else:
                r, e = _cached_tables(bounds, 1 << (top - 1).bit_length())
            after = np.cumsum(rare, axis=1)  # rare outcomes up to each gap's end, less low
            after += (c - low)[:, None]
            before = after - rare
            run = r.take(before)
            # a run that leaves the bounds on its last trial before no rare
            # outcome is found in the next gap, whose count and run are the same
            by_run = run < ends
            stopped = by_run | (ends >= max_trials)
            # E of a count is below every trial after the rare outcome that reached it
            stopped |= ends <= e.take(after)
            first = stopped.argmax(axis=1)
            ended = stopped[np.arange(live.size), first]
            n, c = ends[:, -1], after[:, -1] + low
            if ended.any():
                rows, first = ended.nonzero()[0], first[ended]
                at = live[ended] + (base - start)
                on_run = by_run[rows, first]
                stops[at] = np.where(on_run, run[rows, first], ends[rows, first])
                counts[at] = np.where(on_run, before[rows, first], after[rows, first]) + low
                live, n, c = live[~ended], n[~ended], c[~ended]
            done += width
            if not sized:
                block *= 2
            elif live.size:
                block = _sized_block(np.abs(target - _log_d(c, n, step, other)).max(), drift, p_rare)
    return stops, counts


def _outcomes(gen: np.random.Generator, p_rare: float, counted_yes: bool, trials: int) -> np.ndarray:
    """The first trials outcomes ("yes" True) that gen's doubles expand to,
    as the walker reads them: each draw's gap (_gaps) of the majority
    outcome and, unless the gap is L, one rare outcome after it, of
    probability p_rare and "yes" if counted_yes (law._stop_rule)."""
    outcomes = np.full(trials, not counted_yes)
    if not p_rare:  # certain outcomes, drawn from no double
        return outcomes
    table, scale = _gap_table(p_rare)
    n = 0
    while n < trials:
        g = _gaps(table, scale, gen.random(math.ceil((trials - n) * p_rare) + 4))
        rare = g < table.size - 2
        ends = n + np.cumsum(g + rare)
        outcomes[ends[rare & (ends <= trials)] - 1] = counted_yes
        n = int(ends[-1])
    return outcomes


def run_trajectory(config: SimulationConfig, replication_index: int) -> Trajectory:
    """Simulate one sequential experiment under the configured true theory.

    Each trial is "yes" with probability q (true_theory "qm") or r ("lr"),
    and the walk stops by the rule bellodds.law states.  The batch walker
    decides the stop; the outcomes are then expanded from the same doubles
    of trial_stream (_outcomes) and log D rebuilt from their counts.
    """
    index = _check_int("replication_index", replication_index, 0, config.replications - 1)
    p_rare, counted_yes, (step, other, *_), _ = rule = _stop_rule(config)
    (stop,), (code,), (final,) = (column.tolist() for column in _walk(rule, config.master_seed, index, index + 1))
    outcomes = _outcomes(trial_stream(config.master_seed, index), p_rare, counted_yes, stop)
    cumulative = _log_d(np.cumsum(outcomes == counted_yes), np.arange(1, stop + 1), step, other)
    cumulative[-1] = final  # +-inf if the last outcome falsified a theory
    return Trajectory(outcomes, cumulative, _DECISIONS[code], stop)


def replication_summaries(config: SimulationConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every replication's stopping trial, decision code (an int8 index into
    _DECISIONS) and final log Bayes factor: the walker's columns, stopped by
    the rule bellodds.law states."""
    return _walk(_stop_rule(config), config.master_seed, 0, config.replications)


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
