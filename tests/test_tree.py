"""Learning tests: the tree's per-node counters are cross-checked against a
flat-dictionary replay oracle and a few fully hand-worked episodes."""

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from epst.events import Event, EventStream, canonical_items, window_of
from epst.extensions import (
    FALSE_NEGATIVE_LIMIT,
    inhibitory_maintenance,
    prune_entropy,
    record_false_positive,
)
from epst.tree import EpstParams, EpstTree

Items = Tuple[Tuple[int, int], ...]


# ---------------------------------------------------------------------------
# oracle: re-derive every stored subsequence's counts with a flat dict


def _assign(items, entries, tol):
    if not items:
        return True
    d, c = items[0]
    for i, (wd, wc) in enumerate(entries):
        if wc == c and abs(wd - d) <= tol:
            if _assign(items[1:], entries[:i] + entries[i + 1:], tol):
                return True
    return False


def replay_oracle(stream: EventStream, p: EpstParams, g: int) -> Dict[Items, Tuple[int, int]]:
    counts: Dict[Items, List[int]] = {}
    groups: Dict[int, List[Event]] = {}
    for e in stream.visible():
        groups.setdefault(e.time, []).append(e)
    for t in sorted(groups):
        entries = sorted(
            (t - e.time, e.channel)
            for e in stream.visible()
            if t - p.history_window <= e.time < t
        )
        for e in groups[t]:
            for items, nd in counts.items():
                if items[0][1] != e.channel:
                    continue
                rest = tuple((d - items[0][0], c) for d, c in items[1:])
                if _assign(rest, entries, p.matching_interval):
                    nd[1] += 1
        for e in sorted(groups[t], key=lambda ev: ev.channel):
            if e.channel != g:
                continue
            # only fresh singles and subsequences that matched this window
            # may grow, and only once past the extension threshold
            grow: List[Items] = []
            for items, nd in counts.items():
                if _assign(items, entries, p.matching_interval):
                    nd[0] += 1
                    grow.append(items)
            if p.max_subseq_len >= 1:
                for entry in entries:
                    if entry[0] <= p.max_spike_interval and (entry,) not in counts:
                        counts[(entry,)] = [1, 1]
                        grow.append((entry,))
            while grow:
                items = grow.pop()
                if counts[items][0] <= p.branch_extension_threshold:
                    continue
                if len(items) >= p.max_subseq_len:
                    continue
                for entry in entries:
                    if entry <= items[-1]:
                        continue
                    if entry[0] - items[-1][0] > p.max_spike_interval:
                        continue
                    ext = items + (entry,)
                    if ext not in counts:
                        counts[ext] = [1, 1]
                        grow.append(ext)
    return {items: (nd[0], nd[1]) for items, nd in counts.items()}


def learn(stream: EventStream, params: EpstParams, channels=None) -> List[EpstTree]:
    cs = range(stream.num_channels) if channels is None else channels
    trees = [EpstTree(g, params) for g in cs]
    groups: Dict[int, List[Event]] = {}
    for e in stream.visible():
        groups.setdefault(e.time, []).append(e)
    by_g = {tree.g: tree for tree in trees}
    for t in sorted(groups):
        window = window_of(stream, t, params.history_window)
        for e in groups[t]:
            for tree in trees:
                tree.step1_denominators(e, window)
        for e in sorted(groups[t], key=lambda ev: ev.channel):
            if e.channel in by_g:
                by_g[e.channel].step2_numerators_and_extend(window)
    return trees


def counts_of(tree: EpstTree) -> Dict[Items, Tuple[int, int]]:
    return {
        node.subsequence().items: (node.numerator, node.denominator)
        for node in tree.iter_nodes()
    }


def stream_from(pairs, num_channels):
    return EventStream(tuple(Event(t, c) for t, c in pairs), num_channels)


# ---------------------------------------------------------------------------
# hand-worked episodes


def test_single_item_counts_hand_worked():
    # channel-1 spike 5 steps before g three times total, but the third
    # occurrence is never followed by g: numerator 2, denominator 3
    stream = stream_from([(10, 1), (15, 0), (30, 1), (35, 0), (50, 1)], 2)
    p = EpstParams(history_window=16, max_spike_interval=16)
    tree = learn(stream, p, channels=[0])[0]
    assert counts_of(tree) == {((5, 1),): (2, 3)}
    assert tree.root_count == 2
    assert tree.node_count == 1


def test_extension_waits_for_second_confirmation():
    # two presentations of (ch1, ch2) -> g; the depth-2 chain may only
    # appear once the singles' numerators exceed the threshold of 1
    first = [(10, 1), (12, 2), (15, 0)]
    second = [(30, 1), (32, 2), (35, 0)]
    p = EpstParams(history_window=16, max_spike_interval=16)

    tree1 = learn(stream_from(first, 3), p, channels=[0])[0]
    assert counts_of(tree1) == {((3, 2),): (1, 1), ((5, 1),): (1, 1)}

    tree2 = learn(stream_from(first + second, 3), p, channels=[0])[0]
    assert counts_of(tree2) == {
        ((3, 2),): (2, 2),
        ((5, 1),): (2, 2),
        ((3, 2), (5, 1)): (1, 1),
    }


def test_one_shot_builds_full_power_set():
    # with extension threshold 0 a single example stores all 2^4 - 1 subsets
    stream = stream_from([(10, 1), (13, 2), (16, 3), (20, 4), (27, 0)], 5)
    p = EpstParams(branch_extension_threshold=0)
    tree = learn(stream, p, channels=[0])[0]
    assert tree.node_count == 15
    assert all(nd == (1, 1) for nd in counts_of(tree).values())
    assert ((7, 4), (11, 3), (14, 2), (17, 1)) in counts_of(tree)


def test_history_window_and_interval_limits():
    # the ch1 event is 40 steps old (outside M=32): no node for it; the
    # ch2 event at delay 25 exceeds max_spike_interval so it never enters
    # as a single, yet it still chains below ch3 (gap 20 <= 20)
    stream = stream_from([(0, 1), (15, 2), (35, 3), (40, 0), (41, 0)], 4)
    p = EpstParams(branch_extension_threshold=0, max_spike_interval=20)
    tree = learn(stream, p, channels=[0])[0]
    got = counts_of(tree)
    assert all(item[1] != 1 for items in got for item in items)
    assert ((5, 3),) in got
    assert ((25, 2),) not in got and ((26, 2),) not in got
    assert ((5, 3), (25, 2)) in got
    assert ((1, 0), (26, 2)) not in got  # gap 25 > max_spike_interval


def test_max_depth_respected():
    stream = stream_from(
        [(10, 1), (12, 2), (14, 3), (16, 4), (20, 0), (40, 0)], 5
    )
    p = EpstParams(branch_extension_threshold=0, max_subseq_len=2)
    tree = learn(stream, p, channels=[0])[0]
    assert max(node.depth for node in tree.iter_nodes()) == 2
    assert max(len(items) for items in counts_of(tree)) == 2


# ---------------------------------------------------------------------------
# oracle cross-check


def random_pairs(seed, n, channels):
    import numpy as np

    rng = np.random.default_rng(seed)
    t, out = 0, []
    for _ in range(n):
        t += int(rng.integers(1, 9))
        out.append((t, int(rng.integers(0, channels))))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("tol", [0, 2])
def test_counts_match_replay_oracle(seed, tol):
    p = EpstParams(
        history_window=16,
        prediction_window=12,
        max_spike_interval=16,
        matching_interval=tol,
    )
    stream = stream_from(random_pairs(seed, 60, 4), 4)
    for g in range(4):
        tree = learn(stream, p, channels=[g])[0]
        assert counts_of(tree) == replay_oracle(stream, p, g)
        assert tree.node_count == len(counts_of(tree))


@given(st.integers(0, 10 ** 6), st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_counts_match_replay_oracle_property(seed, et):
    p = EpstParams(
        history_window=12,
        prediction_window=8,
        max_subseq_len=3,
        max_spike_interval=12,
        branch_extension_threshold=et,
    )
    stream = stream_from(random_pairs(seed, 30, 3), 3)
    tree = learn(stream, p, channels=[0])[0]
    assert counts_of(tree) == replay_oracle(stream, p, 0)


# ---------------------------------------------------------------------------
# structure maintenance


def test_remove_node_updates_counts_and_index():
    stream = stream_from([(10, 1), (13, 2), (16, 3), (20, 4), (27, 0)], 5)
    tree = learn(stream, EpstParams(branch_extension_threshold=0), channels=[0])[0]
    victim = tree.root.children[(7, 4)]
    removed = 1 + sum(1 for _ in _walk(victim))
    before = tree.node_count
    tree.remove_node(victim)
    assert tree.node_count == before - removed
    assert (7, 4) not in tree.root.children
    assert all(
        child in group
        for node in _all_nodes(tree)
        for group in [node.by_channel]
        for child in []
    )
    for node in [tree.root, *tree.iter_nodes()]:
        regrouped = {}
        for child in node.children.values():
            regrouped.setdefault(child.item[1], []).append(child)
        assert {c: set(map(id, v)) for c, v in node.by_channel.items()} == {
            c: set(map(id, v)) for c, v in regrouped.items()
        }


def _walk(node):
    for child in node.children.values():
        yield child
        yield from _walk(child)


def _all_nodes(tree):
    return [tree.root, *tree.iter_nodes()]


def assert_branching_index(tree):
    root = tree.root
    expected = {
        c: [n for n in group if n.children] for c, group in root.by_channel.items()
    }
    assert root.branching == {c: group for c, group in expected.items() if group}


def test_sort_key_kept_through_maintenance():
    p = EpstParams(history_window=16, max_spike_interval=16, max_subseq_len=3)
    stream = stream_from(random_pairs(14, 80, 4), 4)
    tree = learn(stream, p, channels=[0])[0]
    assert_branching_index(tree)
    assert tree.root.branching
    for node in tree.iter_nodes():
        node.sort_key()
    for e in stream.events[30:70:5]:
        record_false_positive(tree, window_of(stream, e.time, p.history_window))
    assert_branching_index(tree)
    inhibitory = [n for n in tree.iter_nodes() if n.is_inhibitory][::3]
    removed = []
    for _ in range(FALSE_NEGATIVE_LIMIT + 1):
        removed += inhibitory_maintenance(tree, inhibitory)
        assert_branching_index(tree)
    assert removed and len(removed) == len(inhibitory)
    assert prune_entropy(tree, 0.3) > 0
    assert_branching_index(tree)

    def paths(node, prefix):
        for child in node.children.values():
            items = prefix + [child.item]
            yield child, items
            yield from paths(child, items)

    expected = dict(paths(tree.root, []))
    assert set(expected) == set(tree.iter_nodes())
    for node in tree.iter_nodes():
        chain, up = [], node
        while up.item is not None:
            chain.append(up.item)
            up = up.parent
        assert up is tree.root
        key = node.sort_key()
        assert key is node.sort_key()
        sub = node.subsequence()
        assert sub.items == canonical_items(chain) == canonical_items(expected[node])
        assert key == sub.sort_key()


def test_branching_index_follows_attach_and_detach():
    tree = EpstTree(0, EpstParams())
    root = tree.root
    a = tree._add_child(root, (3, 1))
    tree._add_child(root, (4, 1))
    b = tree._add_child(root, (5, 1))
    assert root.branching == {}
    tree._add_child(b, (7, 2))
    assert root.branching == {1: [b]}
    # a gains a child after b did but keeps its by_channel place
    a_child = tree._add_child(a, (6, 2))
    tree._add_child(a_child, (8, 0))
    assert root.branching == {1: [a, b]}
    tree.remove_node(a_child)
    assert root.branching == {1: [b]}
    tree.remove_node(b)
    assert root.branching == {}
    assert_branching_index(tree)


def test_dump_round_trip_format():
    stream = stream_from([(10, 1), (15, 0), (30, 1), (35, 0)], 2)
    p = EpstParams(history_window=16, max_spike_interval=16)
    tree = learn(stream, p, channels=[0])[0]
    assert tree.dump() == (
        "tree g=0 root_count=2 nodes=1\n"
        "  (5,1,2,2,0)\n"
    )


def test_params_validation():
    with pytest.raises(ValueError):
        EpstParams(history_window=-1)
    with pytest.raises(ValueError):
        EpstParams(min_subseq_len=4, max_subseq_len=2)
    # a zero-length pattern has no subsequence to store
    with pytest.raises(ValueError, match="min_subseq_len"):
        EpstParams(min_subseq_len=0)
    with pytest.raises(ValueError):
        EpstTree(-1, EpstParams())
