"""Per-channel prediction tree over event subsequences.

The virtual root stands for the predicted spike (delay 0). Level-1
children hold the most recent history events; deeper nodes extend
further into the past. A node's path from the root spells a stored
subsequence as a cumulative-delay item list.

Two spike-triggered learning steps maintain the per-node counts:
step 1 (any spike) accumulates denominators n(s); step 2 (spike in the
preferred channel) accumulates numerators n(s and g) and grows the tree.
`learn_step` runs both for one time step, and `learn_stream` for a whole
stream.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import groupby
from operator import attrgetter
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
    max_spike_interval: int = 32
    branch_extension_threshold: int = 1
    frequency_threshold: int = 0
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
# leaf allocates no dicts; attach gives a node its own on its first child
_NO_CHILDREN: Mapping = MappingProxyType({})


class TreeNode:
    __slots__ = (
        "item",
        "cum_delay",
        "depth",
        "numerator",
        "denominator",
        "children",
        "by_channel",
        "parent",
        "inhibitory",
        "branching",
        "_sort_key",
    )

    def __init__(self, item: Optional[Item], parent: Optional["TreeNode"]):
        # item and parent are set here only, so the path from the root, and
        # the key kept by sort_key(), never change
        self.item = item                      # (cumulative delay, channel); None at root
        self.parent = parent
        self.cum_delay = 0 if item is None else item[0]
        self.depth = 0 if parent is None else parent.depth + 1
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
        # root only: the level-1 children that have children of their own,
        # per channel, in by_channel order; attach and detach keep it
        self.branching: Optional[Dict[int, List["TreeNode"]]] = {} if parent is None else None
        self._sort_key = None

    def attach(self, child: "TreeNode") -> None:
        if self.children is _NO_CHILDREN:
            self.children, self.by_channel = {}, {}
        self.children[child.item] = child
        self.by_channel.setdefault(child.item[1], []).append(child)
        if self.depth == 1 and len(self.children) == 1:
            self.parent._reindex(self.item[1])

    def detach(self, item: Item) -> "TreeNode":
        child = self.children.pop(item)
        group = self.by_channel[item[1]]
        group.remove(child)
        if not group:
            del self.by_channel[item[1]]
        if not self.children:
            self.children = self.by_channel = _NO_CHILDREN
        if self.depth == 0 and child.children:
            self._reindex(item[1])
        elif self.depth == 1 and not self.children:
            self.parent._reindex(self.item[1])
        return child

    def _reindex(self, channel: int) -> None:
        """Rebuild the root's branching list for one channel."""
        group = [n for n in self.by_channel.get(channel, ()) if n.children]
        if group:
            self.branching[channel] = group
        else:
            self.branching.pop(channel, None)

    @property
    def is_inhibitory(self) -> bool:
        return self.inhibitory is not None

    def edge(self) -> Tuple[int, int]:
        """(delay to parent event, channel)."""
        parent_cum = self.parent.cum_delay if self.parent is not None else 0
        return (self.cum_delay - parent_cum, self.item[1])

    def subsequence(self) -> Subsequence:
        """The path from the root. Canonical by construction: a child's
        item is always greater than its parent's."""
        items = []
        node = self
        while node.item is not None:
            items.append(node.item)
            node = node.parent
        return tuple(reversed(items))

    def sort_key(self):
        """`sort_key(subsequence())`: built on first use and kept on the
        node, since selection ranks by it on every prediction."""
        if self._sort_key is None:
            self._sort_key = sort_key(self.subsequence())
        return self._sort_key


class EpstTree:
    """One prediction unit: learns to predict spikes in channel `g`."""

    def __init__(self, g: int, params: EpstParams):
        if g < 0:
            raise ValueError("preferred channel must be >= 0")
        self.g = g
        self.params = params
        self.root = TreeNode(None, None)
        self.root_count = 0          # n(g): spikes seen in the preferred channel
        self.node_count = 0

    # -- structure helpers -------------------------------------------------

    def _add_child(self, parent: TreeNode, item: Item) -> TreeNode:
        node = TreeNode(item, parent)
        parent.attach(node)
        self.node_count += 1
        return node

    def remove_node(self, node: TreeNode) -> None:
        """Remove a whole subtree."""
        if node.item is None:
            raise ValueError("cannot remove the virtual root")
        removed = _count_subtree(node)
        node.parent.detach(node.item)
        self.node_count -= removed

    def iter_nodes(self):
        """All non-root nodes, depth-first, children in canonical item order."""
        stack = [self.root.children[k] for k in sorted(self.root.children, reverse=True)]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children[k] for k in sorted(node.children, reverse=True))

    # -- learning ----------------------------------------------------------

    def step1_denominators(self, event: Event, window: HistoryWindow) -> None:
        """Triggered on any spike. In each top-level subtree whose root
        channel equals the event's channel, increment the denominator of
        every node whose subsequence relative to that root matches the
        window; the active root itself is incremented unconditionally."""
        tol = self.params.matching_interval
        entries = window.entries
        for level1 in self.root.by_channel.get(event.channel, ()):
            if not level1.is_inhibitory:
                level1.denominator += 1
            if not level1.by_channel:
                continue
            matched = set()
            _match_below(level1, level1.cum_delay, entries, tol, set(), matched)
            for node in matched:
                if not node.is_inhibitory:
                    node.denominator += 1

    def step2_numerators_and_extend(self, window: HistoryWindow) -> None:
        """Triggered on a spike in channel g at the current time; `window`
        is the history window of that spike. Increments the root count and
        the numerator of every matching node, then extends branches below
        nodes whose numerator exceeds the branch extension threshold."""
        p = self.params
        self.root_count += 1
        entries = window.entries
        found = set()
        _match_below(self.root, 0, entries, p.matching_interval, set(), found)
        matched = sorted(found, key=TreeNode.sort_key)
        for node in matched:
            if not node.is_inhibitory:
                node.numerator += 1

        grow = []
        # Window entries always enter as level-1 nodes; deeper growth is
        # gated by the extension threshold.
        for entry in entries:
            if entry[0] > p.max_spike_interval:
                continue
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
            for entry in entries:
                if entry <= node.item:
                    continue  # canonical order; each subset built once
                if entry[0] - node.cum_delay > p.max_spike_interval:
                    continue
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
            d, c = node.edge()
            lines.append(
                "  " * node.depth
                + f"({d},{c},{node.numerator},{node.denominator},"
                + ("1" if node.is_inhibitory else "0")
                + ")"
            )
        return "\n".join(lines) + "\n"


def learn_step(
    trees: Sequence[EpstTree], stream: EventStream, t: int, events: Sequence[Event]
) -> None:
    """Both learning steps for the visible events at time t, which share
    the history window at t: step 1 in every tree for each event, then
    step 2 in the tree of each event's channel, in channel order. `trees`
    holds one tree per channel, indexed by channel, with shared params."""
    window = window_of(stream, t, trees[0].params.history_window)
    for e in events:
        for tree in trees:
            tree.step1_denominators(e, window)
    for e in sorted(events, key=attrgetter("channel")):
        trees[e.channel].step2_numerators_and_extend(window)


def learn_stream(stream: EventStream, params: EpstParams) -> List[EpstTree]:
    """Fresh trees, one per channel, learned online over the whole stream
    one time step at a time, with no prediction."""
    trees = [EpstTree(g, params) for g in range(stream.num_channels)]
    for t, events in groupby(stream.visible(), key=attrgetter("time")):
        learn_step(trees, stream, t, list(events))
    return trees


def _count_subtree(node: TreeNode) -> int:
    total = 1
    for child in node.children.values():
        total += _count_subtree(child)
    return total


def _match_below(node, base_delay, entries, tol, used, matched):
    """Mark every descendant of `node` whose path below `node` (delays taken
    relative to `base_delay`) has an injective window assignment. A matched
    leaf is marked but not descended into."""
    for j, (wd, wc) in enumerate(entries):
        if j in used:
            continue
        for child in node.by_channel.get(wc, ()):
            if abs(wd - (child.cum_delay - base_delay)) > tol:
                continue
            matched.add(child)
            if child.by_channel:
                used.add(j)
                _match_below(child, base_delay, entries, tol, used, matched)
                used.discard(j)
