"""Per-channel prediction tree over event subsequences.

The virtual root stands for the predicted spike (delay 0). Level-1
children hold the most recent history events; deeper nodes extend
further into the past. Each node holds its path from the root, the
stored subsequence as a canonical tuple of cumulative-delay items, and no
pointer back up. `EpstTree` makes every structural change.

Two spike-triggered learning steps maintain the per-node counts:
step 1 (any spike) accumulates denominators n(s); step 2 (spike in the
preferred channel) accumulates numerators n(s and g) and grows the tree.
`learn_step` runs both for one time step, and `learn_stream` for a whole
stream.

Both steps and prediction (`infer`) match with one walk, `match_occupancy`:
a child item at delay d below an anchor at delay b keeps the steps of its
parent's mask where the occupancy (bit wd per window entry (wd, channel))
shifted right by d - b is set, one AND per child with no search.

Step 1 and prediction start that walk at the level-2 nodes a pair of events
selects. A forest's trees (`forest`; a lone tree is a forest of one) share
one `ForestIndex`, `EpstTree.index`. Its `pairs` map (c1, c2, d2 - d1) to
every level-2 node ((d1, c1), (d2, c2)), with the channel of its tree. Two
items match two events only if their gap is the events' gap (within
2*tol), so a lookup per event pair finds every level-2 node that can
match, and the walk checks each exactly. Its `level1` maps a channel c to
every level-1 node (d, c), so step 1 counts the level-1 nodes of a spike's
channel with one lookup. `_add_child` and `_detach` keep both.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields
from itertools import accumulate, groupby
from operator import attrgetter, or_
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .events import (
    Event,
    EventStream,
    HistoryWindow,
    Item,
    Subsequence,
    sort_key,
    window_of,
)


@dataclass
class EpstParams:
    history_window: int = 32          # M
    prediction_window: int = 28       # M'
    min_subseq_len: int = 2
    max_subseq_len: int = 4
    branch_extension_threshold: int = 1
    matching_interval: int = 0        # tol

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be >= 0")
        if self.min_subseq_len < 1:
            raise ValueError("min_subseq_len must be >= 1")
        if self.min_subseq_len > self.max_subseq_len:
            raise ValueError("min_subseq_len must be <= max_subseq_len")


# the children and by_channel of every leaf: one shared read-only map, so a
# leaf allocates no dicts; _add_child gives a node its own on its first child
_NO_CHILDREN: Mapping = MappingProxyType({})


class TreeNode:
    """One stored subsequence: a node holds its path from the root and no
    pointer to its parent, so a dropped forest is freed by reference
    counting alone. `EpstTree` makes every structural change."""

    __slots__ = (
        "path",
        "item",
        "cum_delay",
        "depth",
        "numerator",
        "denominator",
        "children",
        "by_channel",
        "inhibitory",
        "_sort_key",
    )

    def __init__(self, path: Subsequence):
        # set here only, so the key kept by sort_key() never changes; canonical
        # by construction, since a child's item is greater than its parent's
        self.path = path
        self.item = path[-1] if path else None   # (cumulative delay, channel); None at root
        self.cum_delay = path[-1][0] if path else 0
        self.depth = len(path)
        self.numerator = 0
        self.denominator = 0
        self.children: Mapping[Item, TreeNode] = _NO_CHILDREN
        # children grouped by channel; matching only ever needs the
        # children on a channel present in the window
        self.by_channel: Mapping[int, List["TreeNode"]] = _NO_CHILDREN
        # None for an excitatory node; for an inhibitory pattern, the false
        # negatives it caused since creation (matches that coincided with a
        # spike in g)
        self.inhibitory: Optional[int] = None
        self._sort_key = None

    @property
    def is_inhibitory(self) -> bool:
        return self.inhibitory is not None

    def sort_key(self):
        """`sort_key(path)`: built on first use and kept on the node, since
        selection ranks by it on every prediction."""
        if self._sort_key is None:
            self._sort_key = sort_key(self.path)
        return self._sort_key


class ForestIndex:
    """The index a forest's trees share (module docstring). Each entry maps
    a node to the channel of its tree; it holds no tree, so a dropped
    forest leaves no reference cycle."""

    __slots__ = ("pairs", "level1")

    def __init__(self):
        # (c1, c2, d2 - d1) -> {level-2 node ((d1, c1), (d2, c2)): tree channel}
        self.pairs: Dict[Tuple[int, int, int], Dict[TreeNode, int]] = {}
        # c -> {level-1 node (d, c): tree channel}
        self.level1: Dict[int, Dict[TreeNode, int]] = {}


def _key_of(node: TreeNode):
    """The key of a level-1 or level-2 node in its `ForestIndex` map."""
    if node.depth == 1:
        return node.item[1]
    (d1, c1), (d2, c2) = node.path
    return c1, c2, d2 - d1


class EpstTree:
    """One prediction unit: learns to predict spikes in channel `g`. Its
    level-1 and level-2 nodes are entered in `index`, the index of its
    forest (module docstring), a new one unless given."""

    def __init__(self, g: int, params: EpstParams, index: Optional[ForestIndex] = None):
        if g < 0:
            raise ValueError("preferred channel must be >= 0")
        self.g = g
        self.params = params
        self.root = TreeNode(())
        self.root_count = 0          # n(g): spikes seen in the preferred channel
        self.node_count = 0
        self.index = ForestIndex() if index is None else index

    # -- structure ---------------------------------------------------------

    def _add_child(self, parent: TreeNode, item: Item) -> TreeNode:
        node = TreeNode(parent.path + (item,))
        if parent.children is _NO_CHILDREN:
            parent.children, parent.by_channel = {}, {}
        parent.children[item] = node
        parent.by_channel.setdefault(item[1], []).append(node)
        if parent.depth == 0:
            self.index.level1.setdefault(item[1], {})[node] = self.g
        elif parent.depth == 1:
            self.index.pairs.setdefault(_key_of(node), {})[node] = self.g
        self.node_count += 1
        return node

    def _detach(self, parent: TreeNode, item: Item) -> None:
        """Remove the child of `parent` at `item`, with its subtree."""
        child = parent.children.pop(item)
        group = parent.by_channel[item[1]]
        group.remove(child)
        if not group:
            del parent.by_channel[item[1]]
        if not parent.children:
            parent.children = parent.by_channel = _NO_CHILDREN
        if parent.depth == 0:
            self._unindex(self.index.level1, child)
            for level2 in child.children.values():
                self._unindex(self.index.pairs, level2)
        elif parent.depth == 1:
            self._unindex(self.index.pairs, child)
        self.node_count -= 1 + sum(1 for _ in _descendants(child))

    @staticmethod
    def _unindex(index: Dict, node: TreeNode) -> None:
        key = _key_of(node)
        entries = index[key]
        del entries[node]
        if not entries:
            del index[key]

    def _chain(self, node: TreeNode) -> List[TreeNode]:
        """The nodes from the root down to `node`, found by walking its
        path. Raises ValueError unless `node` is in this tree."""
        chain = [self.root]
        for item in node.path:
            child = chain[-1].children.get(item)
            if child is None:
                break
            chain.append(child)
        if chain[-1] is not node:
            raise ValueError("node is not in this tree")
        return chain

    def remove_node(self, node: TreeNode) -> None:
        """Remove a whole subtree; ValueError for the root or a node not in
        this tree."""
        if node.item is None:
            raise ValueError("cannot remove the virtual root")
        self._detach(self._chain(node)[-2], node.item)

    def iter_nodes(self):
        """All non-root nodes, depth-first, children in canonical item order."""
        return _descendants(self.root)

    # -- learning ----------------------------------------------------------

    def step1_denominators(self, event: Event, window: HistoryWindow) -> None:
        """Triggered on any spike: `count_denominators` in this tree alone,
        even when it shares its index with other trees."""
        tolerance = match_tolerance(self.params)
        count_denominators((self,), event.channel, window, tolerance)

    def _bounded_entries(self, window: HistoryWindow) -> Tuple[Item, ...]:
        """The entries to store; ValueError if the oldest is beyond M."""
        entries, m = window.entries, self.params.history_window
        if entries and entries[-1][0] > m:
            raise ValueError(f"window delay {entries[-1][0]} exceeds history_window {m}")
        return entries

    def step2_numerators_and_extend(self, window: HistoryWindow) -> None:
        """Triggered on a spike in channel g at the current time; `window`
        is the history window of that spike (ValueError, with the tree
        unchanged, if it reaches beyond M). Increments the root count and
        the numerator of every matching node, then extends branches below
        nodes whose numerator exceeds the branch extension threshold."""
        p = self.params
        entries = self._bounded_entries(window)
        self.root_count += 1
        found: Dict[TreeNode, int] = {}
        match_occupancy(self.root.by_channel, 1, window.occupancy, 0, match_tolerance(p), found, 0, 0)
        matched = sorted(found, key=TreeNode.sort_key)
        for node in matched:
            if not node.is_inhibitory:
                node.numerator += 1

        grow = []
        # Window entries always enter as level-1 nodes; deeper growth is
        # gated by the extension threshold.
        for entry in entries:
            child = self.root.children.get(entry)
            if child is None:
                child = self._add_child(self.root, entry)
                child.numerator = 1
                child.denominator = 1
                grow.append(child)
        grow.extend(n for n in matched if not n.is_inhibitory)

        while grow:
            node = grow.pop()
            if node.numerator <= p.branch_extension_threshold:
                continue
            if node.depth >= p.max_subseq_len:
                continue
            # canonical order: only entries after the node's own item, so
            # each subset is built once
            for entry in entries[bisect_right(entries, node.item):]:
                if entry in node.children:
                    continue
                child = self._add_child(node, entry)
                child.numerator = 1
                child.denominator = 1
                grow.append(child)

    # -- serialization -----------------------------------------------------

    def dump(self) -> str:
        """Deterministic depth-first text snapshot, one node per line:
        (delay,channel,numerator,denominator,inhibitory) with indentation."""
        lines = [f"tree g={self.g} root_count={self.root_count} nodes={self.node_count}"]
        for node in self.iter_nodes():
            d = node.cum_delay - (node.path[-2][0] if node.depth > 1 else 0)
            lines.append(
                "  " * node.depth
                + f"({d},{node.item[1]},{node.numerator},{node.denominator},"
                + ("1" if node.is_inhibitory else "0")
                + ")"
            )
        return "\n".join(lines) + "\n"


def count_denominators(
    trees: Sequence[EpstTree],
    channel: int,
    window: HistoryWindow,
    tolerance,
) -> None:
    """Learning step 1 for a spike on `channel` in `trees`: a `Forest`, or
    some trees of one or more forests (then only their nodes count);
    `tolerance` is `match_tolerance`'s state for this window. Every level-1
    node on the spike's channel counts. Below it, a node counts once per
    spike when its path matches the window in a walk anchored at the
    level-1 delay: one lookup per window entry (wd, c) finds the level-2
    nodes ((d1, channel), (d2, c)) with d2 - d1 within tol of wd."""
    indexes, keep = forest_indexes(trees)
    occ = window.occupancy
    if tolerance is None:
        keys: Iterable = [(channel, wc, wd) for wd, wc in window.entries]
    else:
        tol = tolerance[0]
        keys = {
            (channel, wc, gap)
            for wd, wc in window.entries
            for gap in range(wd - tol if wd > tol else 0, wd + tol + 1)
        }
    matched: Dict[TreeNode, int] = {}
    for index in indexes:
        for node, g in index.level1.get(channel, {}).items():
            if node.inhibitory is None and (keep is None or g in keep):
                node.denominator += 1
        pairs = index.pairs
        for key in keys:
            entries = pairs.get(key)
            if entries is None:
                continue
            for node, g in entries.items():
                if keep is not None and g not in keep:
                    continue
                base, seg = node.path[0][0], 1
                if tolerance is not None:
                    c = key[1]
                    seg = _tolerant_steps(tolerance, node.path, 1, c, occ[c], base)
                    if not seg:
                        continue
                matched[node] = seg
                if node.by_channel:
                    match_occupancy(node.by_channel, seg, occ, base, tolerance, matched, 0, 0)
    for node in matched:
        if node.inhibitory is None:
            node.denominator += 1


class Forest(list):
    """Trees, one per channel, that share one `ForestIndex`, `index`, and
    are all of its trees (`forest` builds one)."""

    __slots__ = ("index",)

    def __init__(self, trees: Iterable[EpstTree], index: ForestIndex):
        super().__init__(trees)
        self.index = index


def forest_indexes(trees: Sequence[EpstTree]) -> Tuple[Iterable[ForestIndex], Optional[Set[int]]]:
    """The indexes that `trees` are entered in, and the channels of the
    trees to keep from their entries: a `Forest` names its index and keeps
    every entry (None); any other sequence is scanned."""
    if type(trees) is Forest:
        return (trees.index,), None
    return {id(tree.index): tree.index for tree in trees}.values(), {tree.g for tree in trees}


def learn_step(
    trees: Sequence[EpstTree], stream: EventStream, t: int, events: Sequence[Event]
) -> None:
    """Both learning steps for the visible events at time t, which share
    the history window at t: step 1 in every tree for each event, then
    step 2 in the tree of each event's channel, in channel order. `trees`
    holds one tree per channel, indexed by channel, with shared params."""
    params = trees[0].params
    window = window_of(stream, t, params.history_window)
    tolerance = match_tolerance(params)
    for e in events:
        count_denominators(trees, e.channel, window, tolerance)
    for e in sorted(events, key=attrgetter("channel")):
        trees[e.channel].step2_numerators_and_extend(window)


def forest(num_channels: int, params: EpstParams) -> Forest:
    """Fresh trees, one per channel, sharing one index."""
    index = ForestIndex()
    return Forest((EpstTree(g, params, index) for g in range(num_channels)), index)


def learn_stream(stream: EventStream, params: EpstParams) -> Forest:
    """A fresh `forest`, learned online over the whole stream one time
    step at a time, with no prediction."""
    trees = forest(stream.num_channels, params)
    for t, events in groupby(stream.visible(), key=attrgetter("time")):
        learn_step(trees, stream, t, list(events))
    return trees


def _descendants(node: TreeNode):
    """The nodes below `node`, depth-first, children in canonical item order."""
    stack = [node.children[k] for k in sorted(node.children, reverse=True)]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children[k] for k in sorted(node.children, reverse=True))


def match_occupancy(groups, mask, occ, base, tolerance, results, min_len, min_den) -> None:
    """Record in `results` every node below `groups` (inhibitory, or at
    least `min_len` deep with a denominator of at least `min_den`) with the
    steps of `mask` where its path below the anchor at delay `base` matches
    `occ` (module docstring); `tolerance` is None at tol 0. A matched leaf
    is not descended into. Module level: a nested walk is a reference cycle."""
    for c, children in groups.items():
        o = occ.get(c)
        if o is None:
            continue
        for child in children:
            if tolerance is None:
                seg = mask & o >> child.cum_delay - base
            else:
                seg = _tolerant_steps(tolerance, child.path, mask, c, o, base)
            if not seg:
                continue
            if child.depth >= min_len and child.denominator >= min_den or (
                child.inhibitory is not None
            ):
                results[child] = seg
            deeper = child.by_channel
            if deeper:
                match_occupancy(deeper, seg, occ, base, tolerance, results, min_len, min_den)


def match_tolerance(params: EpstParams):
    """`match_occupancy`'s state at tol > 0, None at tol 0: (tol, M,
    occupancy o -> [OR of o >> 0..k for k in 0..2*tol]), the ORs built on
    first use. They are keyed by the occupancy itself, so a state serves
    any number of windows and contexts."""
    tol = params.matching_interval
    return (tol, params.history_window, {}) if tol else None


def _tolerant_steps(tolerance, path: Subsequence, mask: int, c: int, o: int, base: int) -> int:
    """The steps of `mask` where the last item of `path`, on channel c
    occupied as `o`, matches at tol > 0: at delay d (from the anchor) it
    reads the delays d - tol .. d + tol within 1..M, the OR of those shifts.
    If another item of c in the matched path lies within 2*tol of it,
    `_assignable` checks each step."""
    tol, top, spans = tolerance
    d = path[-1][0] - base
    lo = d - tol if d > tol else 1
    hi = d + tol if d + tol < top else top
    ors = spans.get(o)
    if ors is None:
        ors = spans[o] = list(accumulate((o >> k for k in range(2 * tol + 1)), or_))
    seg = mask & ors[hi - lo] >> lo
    # below a level-1 node (step 1, base > 0) the path starts after its item, the spike
    same = seg and [pd - base for pd, pc in path[1 if base else 0:] if pc == c]
    if not same or len(same) < 2 or d - same[-2] > 2 * tol:
        return seg
    # fewer events on c than items fail at every step (Hall's condition)
    return _assignable(same, o, seg, top, tol) if o.bit_count() >= len(same) else 0


def _assignable(delays: List[int], o: int, steps: int, top: int, tol: int) -> int:
    """The steps of `steps` (bit b: delay u at bit b + u of `o`) where each
    of the ascending `delays` takes its own occupied delay within tol and
    1..top. Equal-width intervals make taking each item's smallest free
    delay in turn exact (Glover 1967, convex bipartite matching)."""
    ranges = [(max(d - tol, 1), min(d + tol, top)) for d in delays]
    exact = 0
    while steps:
        low = steps & -steps
        steps ^= low
        free = o >> low.bit_length() - 1
        for lo, hi in ranges:
            points = free >> lo & (1 << hi - lo + 1) - 1
            if not points:
                break
            free ^= (points & -points) << lo
        else:
            exact |= low
    return exact
