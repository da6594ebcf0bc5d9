"""Spike-triggered prediction.

A prediction at trigger time t fills a (channel, step) grid for steps
n = 0..M'. Each cell takes the probability of the representative
subsequence: among all stored patterns matching the history window at
t + n (built only from events at or before t), the one with the lowest
count-based entropy wins; matched inhibitory patterns contribute a
probability of exactly zero.

Matching for all steps of one trigger is one walk, `tree.match_occupancy`.
An item (d, c) of a stored pattern matches an event of age a = t - t_k at
step n iff |n + a - d| <= tol and 1 <= n + a <= M. The context is one int
per channel, its occupancy: an event of age a <= M sets bit M' + a, and a
step mask holds step n at bit M' - n, so the occupancy shifted right by d
holds at step n the events with n + a = d. A channel's events are bits of
one int, so a duplicated (time, channel) event is one bit, and there is no
used-event mask. Matched nodes are ranked as plain tuples;
only a node that wins a nonzero cell becomes a `Candidate`, and the
prediction matrix stores only rows with a nonzero cell.

Downsampled prediction shares that one walk among its R repeats: lane r
holds repeat r's events at bits r*B + M' + a and its steps at bits
r*B .. r*B + M', with stride B = M + M' + 1, so a shift by d <= M moves no
bit of lane r + 1 into lane r's steps, and each lane sees exactly its
repeat's own walk. A cell is the maximum over lanes, a tie keeps the lower
lane's `chosen` Candidate, and an inhibitory node reports its step mask
from the lowest lane it matched in. The full context is the one-lane case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .events import EventStream, Subsequence, sort_key
from .tree import EpstTree, TreeNode, match_tolerance, match_occupancy


def estimate_probability(numerator: int, denominator: int) -> float:
    """Clamped count quotient n(s and g) / n(s)."""
    if denominator < 1:
        raise ValueError("denominator must be >= 1")
    return min(max(numerator, 0) / denominator, 1.0)


@lru_cache(maxsize=1 << 12)
def entropy(numerator: int, denominator: int) -> float:
    """Binary Shannon entropy of the estimated probability (natural log,
    0*ln 0 := 0). Lower means more reliable. Memoised: selection ranks
    every matched node by it on every prediction."""
    p = estimate_probability(numerator, denominator)
    h = 0.0
    if 0.0 < p < 1.0:
        h = -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))
    return h


@dataclass(frozen=True)
class Candidate:
    """A representative: a stored subsequence and its counts, from which
    its probability and entropy follow. An inhibitory pattern counts as 0
    of 1, so both are 0."""

    subsequence: Subsequence
    numerator: int
    denominator: int

    @property
    def probability(self) -> float:
        return estimate_probability(self.numerator, self.denominator)

    @property
    def entropy(self) -> float:
        return entropy(self.numerator, self.denominator)

    def rank_key(self):
        """Selection order: low entropy, then longer subsequence, then
        higher denominator, then canonical subsequence order."""
        return (
            self.entropy,
            -len(self.subsequence),
            -self.denominator,
            sort_key(self.subsequence),
        )


def candidate_from_node(node: TreeNode) -> Candidate:
    if node.is_inhibitory:
        return Candidate(node.path, 0, 1)
    return Candidate(node.path, node.numerator, node.denominator)


class _Rows(dict):
    """Channel -> estimate row. Prediction stores only rows with a nonzero
    cell; indexing a missing channel stores and returns an all-zero row."""

    __slots__ = ("width",)

    def __init__(self, width: int, rows=()):
        super().__init__(rows)
        self.width = width

    def __missing__(self, channel: int) -> List[float]:
        row = self[channel] = [0.0] * self.width
        return row


@dataclass
class PredictionMatrix:
    """Per-trigger grid of probability estimates, columns n = 0..M'.
    `estimates` stores a row only for a channel with a nonzero cell; a
    missing row reads 0 through `probability`, and indexing it stores a
    zero row. `chosen` records the representative behind every nonzero
    cell."""

    trigger_time: int
    steps: int  # M'
    estimates: Dict[int, List[float]] = field(default_factory=dict)
    chosen: Dict[Tuple[int, int], Candidate] = field(default_factory=dict)
    # matched inhibitory patterns per channel: (node, step bitmask)
    inhibitory_hits: Dict[int, List[Tuple[TreeNode, int]]] = field(default_factory=dict)

    def __post_init__(self):
        self.estimates = _Rows(self.steps + 1, self.estimates)

    def probability(self, channel: int, n: int) -> float:
        row = self.estimates.get(channel)
        if row is None:
            return 0.0
        return row[n]

    @cached_property
    def cells(self) -> Tuple[Tuple[int, int, float], ...]:
        """The nonzero cells of `estimates` as (n, channel, p), sorted by
        (n, channel). Derived on first use, so the grid must be final by
        then."""
        return tuple(sorted(
            (n, channel, p)
            for channel, row in self.estimates.items() if any(row)
            for n, p in enumerate(row[: self.steps + 1]) if p
        ))


def _rank_key(node: TreeNode):
    """`candidate_from_node(node).rank_key()`, without building the
    Candidate. Sort keys differ between the nodes of one tree, so ranking
    never compares past them."""
    if node.inhibitory is not None:
        return (0.0, -node.depth, -1, node.sort_key())
    den = node.denominator
    return (entropy(node.numerator, den), -node.depth, -den, node.sort_key())


def predict_from_context(
    trees: Sequence[EpstTree],
    events: Sequence[Tuple[int, int]],
    t: int,
    lanes: Optional[Sequence[Sequence[int]]] = None,
) -> PredictionMatrix:
    """Spike-triggered prediction at time t from an explicit (time, channel)
    context: for each tree and each step n in 0..M', the window at t + n is
    matched against the stored patterns and the representative's
    probability is written to the cell (0 when nothing matches). The trees
    share one parameter set (one tree per channel, as `learn_step`
    assumes), so one occupancy serves them all. `lanes` holds the event
    indices of each repeat (default: one lane of all events), merged as the
    module docstring says. An event later than t is not context:
    ValueError. A Candidate is built only for a node that wins a nonzero
    cell, and a row only when it has one; a tree whose level-1 groups share
    no channel with the context is not walked."""
    p = trees[0].params
    m, steps = p.history_window, p.prediction_window
    w, stride = steps + 1, m + steps + 1
    lane_mask = (1 << w) - 1
    if lanes is None:
        lanes = [range(len(events))]
    spreads = [0] * len(events)
    for r, idx in enumerate(lanes):
        for k in idx:
            spreads[k] |= 1 << r * stride
    occ: Dict[int, int] = {}
    for (time_k, c_k), spread in zip(events, spreads):
        age = t - time_k
        if age < 0:
            raise ValueError(f"context event at time {time_k} is later than t = {t}")
        if spread and age <= m:
            occ[c_k] = occ.get(c_k, 0) | spread << steps + age
    full = lane_mask * sum(1 << r * stride for r in range(len(lanes)))
    tolerance = match_tolerance(p)   # shared: its ORs are the occupancy's
    matrix = PredictionMatrix(trigger_time=t, steps=steps)
    min_len = p.min_subseq_len
    for tree in trees:
        # no level-1 node, inhibitory or not, is a candidate when
        # min_subseq_len >= 2, so the walk starts from the branching ones
        first = tree.branching if min_len > 1 else tree.root.by_channel
        if first.keys().isdisjoint(occ):
            continue
        matches: Dict[TreeNode, int] = {}
        match_occupancy(first, full, occ, 0, tolerance, matches, min_len, 1)
        if not matches:
            continue
        ranked = []
        inhib: List[Tuple[TreeNode, int]] = []
        for node, mask in matches.items():
            if node.inhibitory is not None:
                lowest = ((mask & -mask).bit_length() - 1) // stride * stride
                # a lane holds step n at bit M' - n, inhibitory_hits at bit n
                lane = format(mask >> lowest & lane_mask, f"0{w}b")
                inhib.append((node, int(lane[::-1], 2)))
            ranked.append((_rank_key(node), node, mask))
        ranked.sort()
        row = bit_of = None
        remaining = full
        for _, node, mask in ranked:
            take = mask & remaining
            remaining &= ~mask
            if take and node.inhibitory is None and node.numerator > 0:
                cand = candidate_from_node(node)
                prob = cand.probability
                if row is None:
                    row, bit_of = matrix.estimates[tree.g], [0] * w
                while take:
                    low = take & -take
                    take ^= low
                    bit = low.bit_length() - 1
                    n = steps - bit % stride
                    # of two bits of one cell, the lower is in the lower lane
                    if prob > row[n] or prob == row[n] and bit < bit_of[n]:
                        row[n], bit_of[n] = prob, bit
                        matrix.chosen[(tree.g, n)] = cand
            if not remaining:
                break
        if inhib:
            matrix.inhibitory_hits[tree.g] = inhib
    return matrix


def context_events(stream: EventStream, t: int, m: int) -> List[Tuple[int, int]]:
    """Visible events usable by a prediction triggered at t: times in
    [t - M, t], dropped events excluded."""
    return [(e.time, e.channel) for e in stream.visible_between(t - m, t + 1)]


def predict_window(trees: Sequence[EpstTree], stream: EventStream, t: int) -> PredictionMatrix:
    """predict_from_context on the stream's context at t: only events at or
    before t are used."""
    return predict_from_context(
        trees, context_events(stream, t, trees[0].params.history_window), t
    )


def sampled_predict(
    trees: Sequence[EpstTree],
    stream: EventStream,
    t: int,
    sample_size: int,
    repeats: int,
    seed: int,
) -> PredictionMatrix:
    """Predict on `repeats` contexts downsampled to min(sample_size, context
    size) events without replacement and keep the cell-wise maximum. Repeat
    r is lane r of one prediction (module docstring): a tie between repeats
    keeps the earlier repeat's `chosen` Candidate, and an inhibitory node
    reports its step mask from the first repeat it matched in."""
    if sample_size < 1 or repeats < 1:
        raise ValueError("sample_size and repeats must be >= 1")
    events = context_events(stream, t, trees[0].params.history_window)
    if sample_size >= len(events):
        # every repeat would predict on the same full context
        return predict_from_context(trees, events, t)
    rng = np.random.default_rng(seed)
    lanes = [rng.choice(len(events), size=sample_size, replace=False) for _ in range(repeats)]
    return predict_from_context(trees, events, t, lanes)
