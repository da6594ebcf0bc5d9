"""Scoring: maps spike-triggered prediction grids onto next-event
probabilities comparable to the VMM outputs, applies the scenario-specific
scoring rules, bins error traces, and counts false positives.

The next-event probability for channel c between consecutive scored events
is the sum of the per-step estimates for c over (t_prev, t_event],
normalized by the same sum over all channels (zero if nothing was
predicted at all). Scenario rules adjust which events are scored, which
cells are masked, and how the summation window is padded/shifted (jitter).

`next_event_probability` states this over a per-cell estimate function.
Scoring computes the same sums without visiting every (step, channel)
cell: for steps before the scored event it walks the nonzero cells of the
triggers that are latest for those steps (`EpstRunResult.cells_between`),
in (step, channel) order, so every float sum is bit-identical. The
pad + 1 steps at or after the event, where the before cap makes an earlier
trigger's grid apply, all read the same trigger, the last one before the
event, so only that trigger's nonzero cells at those steps are looked up
(any other cell reads exactly 0). False-positive counting is one pass over
the same nonzero cells.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .events import (
    Event,
    EventStream,
    LABEL_DROPPED,
    LABEL_INTERFERENCE,
    LABEL_SIGNAL,
)
from .extensions import FALSE_POSITIVE_THRESHOLD
from .runner import EpstRunResult, VmmRunResult

DEFAULT_BIN_WIDTH = 250
TRUE_EVENT_LABELS = (LABEL_SIGNAL, LABEL_INTERFERENCE, LABEL_DROPPED)
# the events each scoring mode scores, for the EPST scorers and the VMM
# baselines alike
SCORED_LABELS = {
    "structured": (LABEL_SIGNAL, LABEL_INTERFERENCE),
    "random_noise": (LABEL_SIGNAL,),
    "jitter": (LABEL_SIGNAL,),
    "jitter_dropout": (LABEL_SIGNAL, LABEL_DROPPED),
}

Cell = Tuple[int, int]  # (channel, time step)


@dataclass
class ErrorTrace:
    """Binned mean absolute probability error: (bin start, mean, samples)."""

    bin_width: int
    bins: List[Tuple[int, float, int]]

    def mean_over(self, t_lo: int, t_hi: int) -> float:
        """Sample-weighted mean error of all bins overlapping [t_lo, t_hi)."""
        total = 0.0
        count = 0
        for start, mean, n in self.bins:
            if start + self.bin_width <= t_lo or start >= t_hi:
                continue
            total += mean * n
            count += n
        return total / count if count else 0.0

    def to_csv(self) -> str:
        lines = ["bin_start,mean_error,samples"]
        for start, mean, n in self.bins:
            lines.append(f"{start},{mean:.12g},{n}")
        return "\n".join(lines) + "\n"


def bin_errors(
    samples: Iterable[Tuple[int, float]], bin_width: int, span: int
) -> ErrorTrace:
    sums: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for t, err in samples:
        b = (t // bin_width) * bin_width
        sums[b] = sums.get(b, 0.0) + err
        counts[b] = counts.get(b, 0) + 1
    bins = []
    for start in range(0, span + 1, bin_width):
        n = counts.get(start, 0)
        bins.append((start, sums.get(start, 0.0) / n if n else 0.0, n))
    return ErrorTrace(bin_width, bins)


def next_event_probability(
    estimate,  # callable (channel, step, before_time) -> float
    num_channels: int,
    channel: int,
    t_lo: int,
    t_hi: int,
    before_time: float,
    masks: Set[Cell] = frozenset(),
    allowed: Optional[Set[Cell]] = None,
) -> float:
    """Normalized marginal over steps in (t_lo, t_hi]. Masked cells are
    zeroed before summation; when `allowed` is given, only those cells
    enter the sums (the set of cells known to hold true events, so that
    spurious predictions at impossible cells do not hinder the ratio).
    Returns 0 when nothing was predicted anywhere."""
    num = 0.0
    den = 0.0
    for step in range(t_lo + 1, t_hi + 1):
        for c in range(num_channels):
            if (c, step) in masks:
                continue
            if allowed is not None and (c, step) not in allowed:
                continue
            v = estimate(c, step, before_time)
            if v:
                den += v
                if c == channel:
                    num += v
    return num / den if den > 0.0 else 0.0


def _window_probability(
    run: EpstRunResult,
    num_channels: int,
    channel: int,
    t_lo: int,
    t_hi: int,
    before_time: float,
    masks: Set[Cell] = frozenset(),
    allowed: Optional[Set[Cell]] = None,
) -> float:
    """next_event_probability(run.latest_estimate, ...), summed from the
    triggers' nonzero cells. Every step at or after ceil(before_time)
    reads the last trigger before `before_time`, so those steps look up
    only that trigger's nonzero cells, in (step, channel) order; any other
    cell would add exactly 0."""

    def counted(c: int, step: int) -> bool:
        return (c, step) not in masks and (allowed is None or (c, step) in allowed)

    num = 0.0
    den = 0.0
    capped = math.ceil(before_time)  # first step the before cap can change
    for step, c, v in run.cells_between(t_lo, min(t_hi, capped - 1)):
        if counted(c, step):
            den += v
            if c == channel:
                num += v
    # the one trigger every later step reads; none before the first trigger
    idx = bisect.bisect_left(run.trigger_times, before_time) - 1
    if idx >= 0:
        t = run.trigger_times[idx]
        for n, c, _ in run.matrices[idx].cells_in(max(t_lo + 1, capped) - t, t_hi - t):
            if c < num_channels and counted(c, t + n):
                v = run.latest_estimate(c, t + n, before_time)
                den += v
                if c == channel:
                    num += v
    return num / den if den > 0.0 else 0.0


def _scored_labels(mode: str) -> Tuple[str, ...]:
    if mode not in SCORED_LABELS:
        raise ValueError(f"unknown scoring mode {mode!r}")
    return SCORED_LABELS[mode]


def _scored_events(stream: EventStream, mode: str) -> List[Event]:
    labels = _scored_labels(mode)
    return [e for e in stream.events if e.label in labels]


def _score_stream(
    run: EpstRunResult,
    num_channels: int,
    scored: Sequence[Event],
    masks: Set[Cell] = frozenset(),
    allowed: Optional[Set[Cell]] = None,
    pad: Optional[int] = None,
    t_prev: Optional[int] = None,
) -> List[Tuple[int, float]]:
    """Per-event |1 - p| for a sequence of scored events, each summed over
    (t_prev, t_event]. With `pad` given (jitter-aware scoring) the
    summation window is shifted to (t_prev + pad, t_event + pad], which
    covers the jitter distribution around the true time and excludes cells
    consumed by the previous event; only the scored event's own cells (its
    channel within +-pad of its true time) can legitimately hold this
    window's prediction, so the normalizing sum is restricted to them."""
    shift = pad or 0
    errors = []
    for e in scored:
        if t_prev is not None and t_prev < e.time:
            if pad is not None:
                allowed = {(e.channel, e.time + dt) for dt in range(-pad, pad + 1)}
            p = _window_probability(
                run,
                num_channels,
                e.channel,
                t_prev + shift,
                e.time + shift,
                e.time,
                masks,
                allowed,
            )
            errors.append((e.time, abs(1.0 - p)))
        t_prev = e.time
    return errors


def score_structured(
    run: EpstRunResult, stream: EventStream, bin_width: int = DEFAULT_BIN_WIDTH
) -> Dict[str, ErrorTrace]:
    """Two interleaved scorings: the signal stream with interference cells
    zeroed, and each interference burst with signal cells zeroed. Returns
    per-stream traces plus their combination."""
    span = stream.events[-1].time if stream.events else 0
    signal, interference = (
        [e for e in stream.events if e.label == label]
        for label in SCORED_LABELS["structured"]
    )
    signal_cells = {(e.channel, e.time) for e in signal}
    interference_cells = {(e.channel, e.time) for e in interference}

    sig_errors = _score_stream(run, stream.num_channels, signal, interference_cells)

    bursts: List[List[Event]] = []
    for e in interference:
        if not bursts or e.time - bursts[-1][-1].time > 100:
            bursts.append([])
        bursts[-1].append(e)
    int_errors = [
        error
        for burst in bursts
        for error in _score_stream(
            run, stream.num_channels, burst, signal_cells, t_prev=burst[0].time
        )
    ]

    return {
        "signal": bin_errors(sig_errors, bin_width, span),
        "interference": bin_errors(int_errors, bin_width, span),
        "combined": bin_errors(sig_errors + int_errors, bin_width, span),
    }


def score_epst(
    run: EpstRunResult, stream: EventStream, mode: str,
    bin_width: int = DEFAULT_BIN_WIDTH, pad: int = 0,
) -> ErrorTrace:
    """The error trace of one run under a scenario's scoring rule.

    - structured: the combined trace of `score_structured`.
    - random_noise: noise events are skipped entirely; only signal events
      are scored and advance t_prev. Since the noise is unpredictable by
      construction, only signal cells can legitimately hold predictions,
      so the normalizing sum is restricted to them. `pad` is not used.
    - jitter: signal events, with the pad-shifted windows of `_score_stream`.
    - jitter_dropout: as jitter, but dropped events are also scored as true
      next events (predicting them is rewarded) and advance t_prev.
    """
    if mode == "structured":
        return score_structured(run, stream, bin_width)["combined"]
    span = stream.events[-1].time if stream.events else 0
    scored = _scored_events(stream, mode)
    if mode == "random_noise":
        allowed = {(e.channel, e.time) for e in scored}
        errors = _score_stream(run, stream.num_channels, scored, allowed=allowed)
    else:
        errors = _score_stream(run, stream.num_channels, scored, pad=pad)
    return bin_errors(errors, bin_width, span)


def score_vmm(
    run: VmmRunResult, mode: str, bin_width: int = DEFAULT_BIN_WIDTH
) -> ErrorTrace:
    """Per-event |1 - p| for the VMM baselines; a no-estimate counts as
    maximum error. The scenario rule picks which events are scored."""
    labels = _scored_labels(mode)
    span = run.events[-1].time if run.events else 0
    samples = []
    for e, p in zip(run.events, run.probabilities):
        if e.label not in labels:
            continue
        err = 1.0 if p is None else abs(1.0 - p)
        samples.append((e.time, err))
    return bin_errors(samples, bin_width, span)


def aggregate_runs(traces: Sequence[ErrorTrace]) -> ErrorTrace:
    """Per-bin sample-weighted mean over seeds. Traces must share their bin
    width; their spans may differ, and bins align on their starts."""
    if not traces:
        raise ValueError("need at least one trace")
    widths = {t.bin_width for t in traces}
    if len(widths) != 1:
        raise ValueError("traces disagree on bin width")
    width = widths.pop()
    sums: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    max_start = 0
    for trace in traces:
        for start, mean, n in trace.bins:
            sums[start] = sums.get(start, 0.0) + mean * n
            counts[start] = counts.get(start, 0) + n
            max_start = max(max_start, start)
    bins = []
    for start in range(0, max_start + 1, width):
        n = counts.get(start, 0)
        bins.append((start, sums.get(start, 0.0) / n if n else 0.0, n))
    return ErrorTrace(width, bins)


def count_false_positives(
    run: EpstRunResult,
    stream: EventStream,
    bin_width: int = DEFAULT_BIN_WIDTH,
) -> List[Tuple[int, int]]:
    """Binned counts of confidently predicted cells (at least
    FALSE_POSITIVE_THRESHOLD, the bar in-run resolution uses) with no true
    (signal/interference/dropped) event."""
    true_cells = {
        (e.channel, e.time) for e in stream.events if e.label in TRUE_EVENT_LABELS
    }
    span = stream.events[-1].time if stream.events else 0
    counts: Dict[int, int] = {}
    for start in range(0, span + 1, bin_width):
        counts[start] = 0
    for step, c, p in run.cells_between(-1, span):
        if p >= FALSE_POSITIVE_THRESHOLD and (c, step) not in true_cells:
            counts[(step // bin_width) * bin_width] += 1
    return sorted(counts.items())


def sum_counts(runs: Iterable[Sequence[Tuple[int, int]]]) -> List[Tuple[int, int]]:
    """Binned counts summed over runs: (bin start, total) for every bin
    that any run has, in bin order."""
    summed: Dict[int, int] = {}
    for counts in runs:
        for start, n in counts:
            summed[start] = summed.get(start, 0) + n
    return sorted(summed.items())


def false_positive_csv(counts: Sequence[Tuple[int, int]], algorithm: str) -> str:
    lines = ["bin_start,count,algorithm"]
    for start, n in counts:
        lines.append(f"{start},{n},{algorithm}")
    return "\n".join(lines) + "\n"
