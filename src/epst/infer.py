"""Spike-triggered prediction.

A prediction at trigger time t fills a (channel, step) grid for steps
n = 0..M'. Each cell takes the probability of the representative
subsequence: among all stored patterns matching the history window at
t + n (built only from events at or before t), the one with the lowest
count-based entropy wins; matched inhibitory patterns contribute a
probability of exactly zero.

Matching for all steps of one trigger is one walk, `tree.match_occupancy`.
It starts, once per forest, at the level-2 nodes that the pairs of
distinct context events select through the forest's pair index (`tree`
module docstring): two items at delays d1 <= d2 can match events of ages
a1, a2 at one step only if d2 - d1 is within 2*tol of a2 - a1. A context
with more event pairs than the index has keys tries every key instead.
Each such node's step mask is then computed exactly, and the walk goes on
below it.
An item (d, c) of a stored pattern matches an event of age a = t - t_k at
step n iff |n + a - d| <= tol and 1 <= n + a <= M. The context is one int
per channel, its occupancy: an event of age a <= M sets bit M' + a, and a
step mask holds step n at bit M' - n, so the occupancy shifted right by d
holds at step n the events with n + a = d. A channel's events are bits of
one int, so a duplicated (time, channel) event is one bit, and there is no
used-event mask.

A step of a tree goes to the best-ranked node that matched there. Only a
tree whose matched step masks overlap is ranked, as plain tuples; in any
other tree each node just takes its own steps. A prediction is its
nonzero cells: one tuple of (n, channel, p), sorted, and an aligned tuple
of each winner's (subsequence, numerator, denominator) at prediction time.
Both hold only ints and floats. The rows of `estimates` and the
`Candidate`s of `chosen` are views derived from them on first read.

Downsampled prediction shares that one walk among its R repeats: lane r
holds repeat r's events at bits r*B + M' + a and its steps at bits
r*B .. r*B + M', with stride B = M + M' + 1, so a shift by d <= M moves no
bit of lane r + 1 into lane r's steps, and each lane sees exactly its
repeat's own walk. A cell is the maximum over lanes, a tie keeps the lower
lane's winner, and an inhibitory node reports its step mask from the
lowest lane it matched in. The full context is the one-lane case.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .events import EventStream, Subsequence, sort_key
from .tree import (
    EpstTree,
    TreeNode,
    _tolerant_steps,
    forest_indexes,
    match_occupancy,
    match_tolerance,
)


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
    """Channel -> estimate row; indexing a missing channel stores and
    returns an all-zero row."""

    __slots__ = ("width",)

    def __init__(self, width: int):
        super().__init__()
        self.width = width

    def __missing__(self, channel: int) -> List[float]:
        row = self[channel] = [0.0] * self.width
        return row


# a nonzero cell (n, channel, p) and the representative behind it, as
# (subsequence, numerator, denominator) at prediction time
Cell = Tuple[int, int, float]
Winner = Tuple[Subsequence, int, int]


@dataclass
class PredictionMatrix:
    """Per-trigger grid of probability estimates, columns n = 0..M': its
    nonzero cells, sorted by (n, channel), and the representative behind
    each. Every other cell is 0. `estimates` and `chosen` are views derived
    from them on first read."""

    trigger_time: int
    steps: int  # M'
    cells: Tuple[Cell, ...] = ()
    winners: Tuple[Winner, ...] = ()  # aligned with `cells`
    # matched inhibitory patterns per channel: (node, step bitmask)
    inhibitory_hits: Dict[int, List[Tuple[TreeNode, int]]] = field(default_factory=dict)

    def probability(self, channel: int, n: int) -> float:
        cells = self.cells
        i = bisect_left(cells, (n, channel))
        if i < len(cells) and cells[i][0] == n and cells[i][1] == channel:
            return cells[i][2]
        return 0.0

    def cells_in(self, lo: int, hi: int) -> Tuple[Cell, ...]:
        """The nonzero cells with lo <= n <= hi, in (n, channel) order."""
        cells = self.cells
        return cells[bisect_left(cells, (lo,)) : bisect_left(cells, (hi + 1,))]

    @cached_property
    def estimates(self) -> Dict[int, List[float]]:
        """Channel -> its row of M' + 1 estimates, for every channel with a
        nonzero cell. Built on first read and then stored: indexing a
        missing channel stores and returns a zero row, and writes to a row
        change this view only."""
        rows = _Rows(self.steps + 1)
        for n, channel, p in self.cells:
            rows[channel][n] = p
        return rows

    @cached_property
    def chosen(self) -> Dict[Tuple[int, int], Candidate]:
        """(channel, n) -> the representative behind that nonzero cell."""
        return {
            (channel, n): Candidate(*winner)
            for (n, channel, _), winner in zip(self.cells, self.winners)
        }


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
    ValueError."""
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
    items = set()
    for (time_k, c_k), spread in zip(events, spreads):
        age = t - time_k
        if age < 0:
            raise ValueError(f"context event at time {time_k} is later than t = {t}")
        if spread and age <= m:
            occ[c_k] = occ.get(c_k, 0) | spread << steps + age
            items.add((age, c_k))
    full = lane_mask * sum(1 << r * stride for r in range(len(lanes)))
    tolerance = match_tolerance(p)   # shared: its ORs are the occupancy's
    found = _match_forests(trees, sorted(items), occ, full, tolerance)
    one_lane = len(lanes) == 1
    won: List[Tuple[Cell, Winner]] = []
    hits: Dict[int, List[Tuple[TreeNode, int]]] = {}
    for g, matches in found.items():
        union = overlap = 0
        for node, mask in matches.items():
            if node.inhibitory is not None:
                lowest = ((mask & -mask).bit_length() - 1) // stride * stride
                # a lane holds step n at bit M' - n, inhibitory_hits at bit n
                lane = format(mask >> lowest & lane_mask, f"0{w}b")
                hits.setdefault(g, []).append((node, int(lane[::-1], 2)))
            overlap |= union & mask
            union |= mask
        if overlap:
            # a step bit goes to the best-ranked node that matched there
            taken = []
            remaining = full
            for _, node, mask in sorted((_rank_key(node), node, mask) for node, mask in matches.items()):
                take = mask & remaining
                if take:
                    remaining ^= take
                    taken.append((node, take))
        else:
            taken = matches.items()
        best: Dict[int, Tuple[float, int, Winner]] = {}
        for node, take in taken:
            num = node.numerator
            if node.inhibitory is not None or num <= 0:
                continue
            den = node.denominator
            prob = estimate_probability(num, den)
            winner = (node.path, num, den)
            while take:
                low = take & -take
                take ^= low
                bit = low.bit_length() - 1
                if one_lane:
                    won.append(((steps - bit, g, prob), winner))
                    continue
                n = steps - bit % stride
                # of two bits of one cell, the lower is in the lower lane
                old = best.get(n)
                if old is None or prob > old[0] or prob == old[0] and bit < old[1]:
                    best[n] = (prob, bit, winner)
        for n, (prob, _, winner) in best.items():
            won.append(((n, g, prob), winner))
    # (n, channel) is unique, so sorting never compares winners
    won.sort()
    cells, winners = zip(*won) if won else ((), ())
    return PredictionMatrix(t, steps, cells, winners, hits)


def _match_forests(trees, items, occ, full, tolerance) -> Dict[int, Dict[TreeNode, int]]:
    """Every node of `trees` that can predict (inhibitory, or counted and
    at least `min_subseq_len` deep) and matches the occupancy `occ` at some
    step of `full`, with its step mask, by tree channel; only trees with a
    match have an entry. Level-1 candidates (`min_subseq_len` 1) are read
    from the forests' level-1 index; the walk starts at the level-2 nodes
    under the pair index keys (c1, c2, gap) of the pairs of distinct
    context `items` (age, channel): in canonical order at the pair's gap at
    tol 0, in both orders within 2*tol of it above. When those pairs
    outnumber the index's keys, every key of the index is tried instead. A
    tried node's mask is exact."""
    min_len = trees[0].params.min_subseq_len
    indexes, keep = forest_indexes(trees)
    found: Dict[int, Dict[TreeNode, int]] = {}
    n = len(items)
    span = 0 if tolerance is None else 2 * tolerance[0]
    # the number of context pair keys, at most
    bound = n * (n - 1) // 2 if tolerance is None else n * (n - 1) * (2 * span + 1)
    context_keys = None
    record = min_len <= 2
    for index in indexes:
        if min_len == 1:
            for c, group in index.level1.items():
                o = occ.get(c)
                if o is None:
                    continue
                for node, g in group.items():
                    if tolerance is None:
                        seg = full & o >> node.cum_delay
                    else:
                        seg = _tolerant_steps(tolerance, node.path, full, c, o, 0)
                    if seg and (node.denominator >= 1 or node.inhibitory is not None):
                        matches = found.get(g)
                        if matches is None:
                            matches = found[g] = {}
                        matches[node] = seg
        pairs = index.pairs
        if len(pairs) < bound:
            keys = pairs
        elif context_keys is not None:
            keys = context_keys
        elif tolerance is None:
            keys = context_keys = {
                (c1, c2, a2 - a1) for (a1, c1), (a2, c2) in combinations(items, 2)
            }
        else:
            keys = context_keys = {
                (c1, c2, gap)
                for (a1, c1), (a2, c2) in permutations(items, 2)
                for gap in range(max(a2 - a1 - span, 0), a2 - a1 + span + 1)
            }
        for key in keys:
            entries = pairs.get(key)
            if entries is None:
                continue
            c1, c2, gap = key
            o1, o2 = occ.get(c1), occ.get(c2)
            if o1 is None or o2 is None:
                continue
            if tolerance is None:
                # o1 >> d1 & o2 >> d2 is both >> d1
                both = o1 & o2 >> gap
                if not both:
                    continue  # no lane holds the pair
            for node, g in entries.items():
                if tolerance is None:
                    seg = full & both >> node.path[0][0]
                else:
                    seg = _tolerant_steps(tolerance, node.path[:1], full, c1, o1, 0)
                    seg = seg and _tolerant_steps(tolerance, node.path, seg, c2, o2, 0)
                if not seg:
                    continue
                matches = found.get(g)
                if matches is None:
                    matches = found[g] = {}
                if record and node.denominator >= 1 or node.inhibitory is not None:
                    matches[node] = seg
                if node.by_channel:
                    match_occupancy(node.by_channel, seg, occ, 0, tolerance, matches, min_len, 1)
    if keep is not None:
        found = {g: matches for g, matches in found.items() if g in keep}
    return found


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
    keeps the earlier repeat's winner, and an inhibitory node
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
