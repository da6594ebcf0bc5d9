"""Online experiment drive: feed a labeled event stream to an EPST variant
or a VMM baseline, event by event, collecting the spike-triggered
prediction matrices (EPST) or per-event next-symbol probabilities (VMM)
for later scoring. Learning for one event always happens before the
prediction triggered by the next event.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Iterator, List, Optional, Tuple

from .events import Event, EventStream, LABEL_DROPPED, window_of
from .extensions import (
    FALSE_POSITIVE_THRESHOLD,
    Variant,
    VARIANTS,
    inhibitory_maintenance,
    prune_entropy,
    record_false_positive,
)
from .infer import PredictionMatrix, context_events, predict_from_context, sampled_predict
from .tree import EpstParams, EpstTree, forest, learn_step
from .vmm import VmmModel

PRUNE_INTERVAL_EVENTS = 500


@dataclass
class SamplingConfig:
    sample_size: int
    repeats: int
    seed: int = 0


@dataclass
class EpstRunResult:
    trigger_times: List[int]
    matrices: List[PredictionMatrix]
    trees: List[EpstTree]

    def latest_estimate(self, channel: int, step_time: int, before_time: float) -> float:
        """Estimate for the cell (channel, step_time) from the most recent
        trigger strictly before `before_time` that covers the step."""
        times = self.trigger_times
        idx = min(bisect.bisect_right(times, step_time), bisect.bisect_left(times, before_time)) - 1
        if idx < 0:
            return 0.0
        n = step_time - times[idx]
        if n > self.matrices[idx].steps:
            return 0.0
        return self.matrices[idx].probability(channel, n)

    def cells_between(self, step_lo: int, step_hi: int) -> Iterator[Tuple[int, int, float]]:
        """Every nonzero (step, channel, p) with step in (step_lo, step_hi],
        in (step, channel) order: the cells `latest_estimate` reads with no
        before cap. Trigger i is the latest one for the steps
        [T_i, T_{i+1} - 1], so only its own nonzero cells are visited."""
        times = self.trigger_times
        i = max(bisect.bisect_right(times, step_lo + 1) - 1, 0)
        while i < len(times) and times[i] <= step_hi:
            t = times[i]
            last = step_hi if i + 1 == len(times) else min(step_hi, times[i + 1] - 1)
            for n, channel, p in self.matrices[i].cells_in(step_lo + 1 - t, last - t):
                yield t + n, channel, p
            i += 1


@dataclass
class VmmRunResult:
    """Per-event probability the model assigned to the event's channel just
    before (possibly) consuming it; None marks the PST no-estimate case."""

    events: Tuple[Event, ...]
    probabilities: List[Optional[float]]


def run_epst(
    stream: EventStream,
    params: EpstParams,
    variant: Variant = VARIANTS["epst"],
    sampling: Optional[SamplingConfig] = None,
) -> EpstRunResult:
    m = params.history_window
    trees = forest(stream.num_channels, params)
    visible = stream.visible()
    vis_cells = {(e.channel, e.time) for e in visible}

    result = EpstRunResult([], [], trees)

    def resolve_false_positives(step_lo: int, step_hi: int):
        """Check every step in (step_lo, step_hi] for confident predictions
        of channels with no event there, and teach inhibitory patterns.
        Called before the trigger at step_hi is made, so every such step
        reads the cells of the latest trigger."""
        window_step, window = None, None
        for step, g, p in result.cells_between(step_lo, step_hi):
            if p < FALSE_POSITIVE_THRESHOLD or (g, step) in vis_cells:
                continue
            if step != window_step:
                window_step, window = step, window_of(stream, step, m)
            record_false_positive(trees[g], window)

    received = 0
    next_prune = PRUNE_INTERVAL_EVENTS
    last_resolved = -1
    for t, group in groupby(visible, key=attrgetter("time")):
        evs = list(group)
        if variant.inhibition:
            resolve_false_positives(last_resolved, t)
            # inhibitory patterns that the latest trigger, made before t, matched at spikes now
            matrix = result.matrices[-1] if result.matrices else None
            if matrix is not None and (n := t - matrix.trigger_time) <= matrix.steps:
                for e in evs:
                    hits = [
                        node
                        for node, mask in matrix.inhibitory_hits.get(e.channel, ())
                        if mask >> n & 1
                    ]
                    if hits:
                        inhibitory_maintenance(trees[e.channel], hits)
        last_resolved = t

        learn_step(trees, stream, t, evs)
        received += len(evs)

        if variant.pruning:
            while received >= next_prune:
                for tree in trees:
                    prune_entropy(tree)
                next_prune += PRUNE_INTERVAL_EVENTS

        if sampling is None:
            matrix = predict_from_context(trees, context_events(stream, t, m), t)
        else:
            matrix = sampled_predict(
                trees,
                stream,
                t,
                sampling.sample_size,
                sampling.repeats,
                sampling.seed + t,
            )
        result.trigger_times.append(t)
        result.matrices.append(matrix)

    return result


def run_vmm(stream: EventStream, kind: str) -> VmmRunResult:
    model = VmmModel(kind, stream.num_channels)
    ordered = sorted(stream.events, key=lambda e: (e.time, e.channel))
    probs: List[Optional[float]] = []
    for e in ordered:
        probs.append(model.probability(e.channel))
        if e.label != LABEL_DROPPED:
            model.update(e.channel)
    return VmmRunResult(tuple(ordered), probs)
