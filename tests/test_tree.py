"""Learning tests: the tree's per-node counters are cross-checked against the
flat-dictionary replay oracle (`epst.acceptance.replay_counts`) and a few
fully hand-worked episodes."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from epst import runner, tree as tree_module
from epst.acceptance import random_stream, replay_counts, tree_counts
from epst.events import Event, EventStream, sort_key, window_of
from epst.extensions import (
    FALSE_NEGATIVE_LIMIT,
    VARIANTS,
    inhibitory_maintenance,
    prune_entropy,
    record_false_positive,
)
from epst.runner import SamplingConfig
from epst.tree import (
    EpstParams,
    EpstTree,
    _assignable as assignable,
    count_denominators,
    forest,
    learn_stream,
)


def one_shot_stream():
    """One presentation of a 4-event pattern on channels 1-4, then g = 0."""
    return EventStream(
        (Event(10, 1), Event(13, 2), Event(16, 3), Event(20, 4), Event(27, 0)), 5
    )


# ---------------------------------------------------------------------------
# hand-worked episodes


def test_single_item_counts_hand_worked():
    # channel-1 spike 5 steps before g three times total, but the third
    # occurrence is never followed by g: numerator 2, denominator 3
    stream = EventStream(
        (Event(10, 1), Event(15, 0), Event(30, 1), Event(35, 0), Event(50, 1)), 2
    )
    p = EpstParams(history_window=16)
    tree = learn_stream(stream, p)[0]
    assert tree_counts(tree) == {((5, 1),): (2, 3)}
    assert tree.root_count == 2
    assert tree.node_count == 1


def test_extension_waits_for_second_confirmation():
    # two presentations of (ch1, ch2) -> g; the depth-2 chain may only
    # appear once the singles' numerators exceed the threshold of 1
    first = (Event(10, 1), Event(12, 2), Event(15, 0))
    second = (Event(30, 1), Event(32, 2), Event(35, 0))
    p = EpstParams(history_window=16)

    tree1 = learn_stream(EventStream(first, 3), p)[0]
    assert tree_counts(tree1) == {((3, 2),): (1, 1), ((5, 1),): (1, 1)}

    tree2 = learn_stream(EventStream(first + second, 3), p)[0]
    assert tree_counts(tree2) == {
        ((3, 2),): (2, 2),
        ((5, 1),): (2, 2),
        ((3, 2), (5, 1)): (1, 1),
    }


def test_one_shot_builds_full_power_set():
    # with extension threshold 0 a single example stores all 2^4 - 1 subsets
    stream = one_shot_stream()
    p = EpstParams(branch_extension_threshold=0)
    tree = learn_stream(stream, p)[0]
    assert tree.node_count == 15
    assert all(nd == (1, 1) for nd in tree_counts(tree).values())
    assert ((7, 4), (11, 3), (14, 2), (17, 1)) in tree_counts(tree)


def test_history_window_and_interval_limits():
    # M = 32 bounds every delay and gap: the ch1 event, 40 steps old at both
    # g spikes, makes no node; the ch2 event at delay 25 enters as a single,
    # and with threshold 0 each window stores all its subsets, gaps of up to
    # 25 included
    stream = EventStream(
        (Event(0, 1), Event(15, 2), Event(35, 3), Event(40, 0), Event(41, 0)), 4
    )
    p = EpstParams(branch_extension_threshold=0)
    got = tree_counts(learn_stream(stream, p)[0])
    windows = [((5, 3), (25, 2)), ((1, 0), (6, 3), (26, 2))]  # at t = 40, 41
    assert got == {
        sub: (1, 1)
        for window in windows
        for k in range(1, len(window) + 1)
        for sub in combinations(window, k)
    }


def test_max_depth_respected():
    stream = EventStream(
        (Event(10, 1), Event(12, 2), Event(14, 3), Event(16, 4), Event(20, 0), Event(40, 0)),
        5,
    )
    p = EpstParams(branch_extension_threshold=0, max_subseq_len=2)
    tree = learn_stream(stream, p)[0]
    assert max(node.depth for node in tree.iter_nodes()) == 2
    assert max(len(items) for items in tree_counts(tree)) == 2


# ---------------------------------------------------------------------------
# oracle cross-check


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("tol", [0, 2, 5])
def test_counts_match_replay_oracle(seed, tol, monkeypatch):
    p = EpstParams(
        history_window=16,
        prediction_window=12,
        matching_interval=tol,
    )
    stream = random_stream(seed, 60, 4)
    # at tol > 0 paths hold same-channel items within 2*tol, which the
    # matcher's exact check settles
    checks = []

    def counted(*args):
        checks.append(args)
        return assignable(*args)

    monkeypatch.setattr(tree_module, "_assignable", counted)
    for g, tree in enumerate(learn_stream(stream, p)):
        assert tree_counts(tree) == replay_counts(stream, p, g)
        assert tree.node_count == len(tree_counts(tree))
    assert bool(checks) == (tol > 0)


@given(st.integers(0, 10 ** 6), st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_counts_match_replay_oracle_property(seed, et):
    p = EpstParams(
        history_window=12,
        prediction_window=8,
        max_subseq_len=3,
        branch_extension_threshold=et,
    )
    stream = random_stream(seed, 30, 3)
    tree = learn_stream(stream, p)[0]
    assert tree_counts(tree) == replay_counts(stream, p, 0)


# ---------------------------------------------------------------------------
# structure maintenance


def test_remove_node_updates_counts_and_index():
    tree = learn_stream(one_shot_stream(), EpstParams(branch_extension_threshold=0))[0]
    victim = tree.root.children[(7, 4)]
    removed = 1 + sum(1 for _ in _walk(victim))
    before = tree.node_count
    tree.remove_node(victim)
    assert tree.node_count == before - removed
    assert (7, 4) not in tree.root.children
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


def assert_pair_index(trees):
    """The forest's shared index equals a recount of its trees' level-1
    and level-2 nodes."""
    pairs, level1s = {}, {}
    for tree in trees:
        assert tree.index is trees[0].index
        for level1 in tree.root.children.values():
            level1s.setdefault(level1.item[1], {})[level1] = tree.g
            for node in level1.children.values():
                (d1, c1), (d2, c2) = node.path
                pairs.setdefault((c1, c2, d2 - d1), {})[node] = tree.g
    assert trees[0].index.pairs == pairs
    assert trees[0].index.level1 == level1s


def test_sort_key_kept_through_maintenance():
    p = EpstParams(history_window=16, max_subseq_len=3)
    stream = random_stream(14, 80, 4)
    trees = learn_stream(stream, p)
    tree = trees[0]
    assert_pair_index(trees)
    assert tree.index.pairs
    for node in tree.iter_nodes():
        node.sort_key()
    for e in stream.events[30:70:5]:
        record_false_positive(tree, window_of(stream, e.time, p.history_window))
    assert_pair_index(trees)
    inhibitory = [n for n in tree.iter_nodes() if n.is_inhibitory][::3]
    removed = []
    for _ in range(FALSE_NEGATIVE_LIMIT + 1):
        removed += inhibitory_maintenance(tree, inhibitory)
        assert_pair_index(trees)
    assert removed and len(removed) == len(inhibitory)
    assert prune_entropy(tree) > 0
    assert_pair_index(trees)

    def paths(node, prefix):
        for child in node.children.values():
            items = prefix + [child.item]
            yield child, items
            yield from paths(child, items)

    expected = dict(paths(tree.root, []))
    assert set(expected) == set(tree.iter_nodes())
    for node in tree.iter_nodes():
        # walking the path down from the root reaches the node itself
        down = tree.root
        for item in node.path:
            down = down.children[item]
        assert down is node
        key = node.sort_key()
        assert key is node.sort_key()
        # canonical by construction: the path is never re-sorted
        assert node.path == tuple(expected[node]) == tuple(sorted(node.path))
        assert key == sort_key(node.path)


def test_pair_index_follows_add_child_and_detach():
    trees = forest(2, EpstParams())
    tree, other = trees
    assert trees.index is tree.index is other.index
    pairs, level1 = tree.index.pairs, tree.index.level1
    root = tree.root
    a = tree._add_child(root, (3, 1))
    a4 = tree._add_child(root, (4, 1))
    b = tree._add_child(root, (5, 1))
    assert pairs == {}
    assert level1 == {1: {a: 0, a4: 0, b: 0}}
    b2 = tree._add_child(b, (7, 2))
    assert pairs == {(1, 2, 2): {b2: 0}}
    # the same (channel, channel, gap) at another delay, and in another tree
    a2 = tree._add_child(a, (5, 2))
    o = other._add_child(other.root, (1, 1))
    o2 = other._add_child(o, (3, 2))
    # a level-3 node is not entered
    tree._add_child(a2, (8, 0))
    assert pairs == {(1, 2, 2): {b2: 0, a2: 0, o2: 1}}
    assert level1 == {1: {a: 0, a4: 0, b: 0, o: 1}}
    a3 = tree._add_child(a, (3, 2))
    o0 = other._add_child(other.root, (2, 0))
    assert pairs == {(1, 2, 2): {b2: 0, a2: 0, o2: 1}, (1, 2, 0): {a3: 0}}
    assert level1 == {1: {a: 0, a4: 0, b: 0, o: 1}, 0: {o0: 1}}
    assert_pair_index(trees)
    tree.remove_node(a2)
    assert pairs == {(1, 2, 2): {b2: 0, o2: 1}, (1, 2, 0): {a3: 0}}
    # removing a level-1 node removes its level-2 children
    tree.remove_node(a)
    tree.remove_node(b)
    assert pairs == {(1, 2, 2): {o2: 1}}
    assert level1 == {1: {a4: 0, o: 1}, 0: {o0: 1}}
    other.remove_node(o)
    other.remove_node(o0)
    assert pairs == {}
    assert level1 == {1: {a4: 0}}
    assert_pair_index(trees)
    # a lone tree is a forest of one
    assert EpstTree(0, EpstParams()).index is not EpstTree(0, EpstParams()).index


@pytest.mark.parametrize("tol", [0, 2])
def test_step1_in_one_tree_of_a_forest(tol):
    # step 1 in each tree alone, though the trees share one index, counts
    # what step 1 in the whole forest counts
    p = EpstParams(
        history_window=12, max_subseq_len=3, branch_extension_threshold=0, matching_interval=tol
    )
    stream = random_stream(5, 50, 3)
    alone, together = learn_stream(stream, p), learn_stream(stream, p)
    for e in random_stream(6, 20, 3).events:
        window = window_of(stream, e.time + 30, p.history_window)
        for tree in alone:
            before = [tree_counts(other) for other in alone if other is not tree]
            tree.step1_denominators(e, window)
            assert [tree_counts(other) for other in alone if other is not tree] == before
        # one tolerance state per window, as learn_step builds it
        tolerance = tree_module.match_tolerance(p)
        count_denominators(together, e.channel, window, tolerance)
    assert [tree_counts(tree) for tree in alone] == [tree_counts(tree) for tree in together]
    assert [tree_counts(tree) for tree in alone] != [
        tree_counts(tree) for tree in learn_stream(stream, p)
    ]


def test_one_tolerance_state_serves_two_windows():
    # the state's ORs follow the occupancy they are read for: one state for
    # two windows at tol 2 counts what step 1 with a state per window counts
    p = EpstParams(
        history_window=12, max_subseq_len=3, branch_extension_threshold=0, matching_interval=2
    )
    stream = random_stream(5, 50, 3)
    reused, fresh = learn_stream(stream, p), learn_stream(stream, p)
    state = tree_module.match_tolerance(p)
    for e in stream.events[20:40:19]:
        window = window_of(stream, e.time, p.history_window)
        count_denominators(reused, e.channel, window, state)
        count_denominators(fresh, e.channel, window, tree_module.match_tolerance(p))
    assert [tree_counts(tree) for tree in reused] == [tree_counts(tree) for tree in fresh]
    assert [tree_counts(tree) for tree in reused] != [
        tree_counts(tree) for tree in learn_stream(stream, p)
    ]


def test_remove_node_refuses_a_node_not_in_the_tree():
    p = EpstParams(branch_extension_threshold=0)
    tree, other = learn_stream(one_shot_stream(), p)[0], learn_stream(one_shot_stream(), p)[0]
    foreign = other.root.children[(7, 4)]
    level1 = tree.root.children[(7, 4)]
    below = next(iter(level1.children.values()))
    tree.remove_node(level1)
    count, dump = tree.node_count, tree.dump()
    # a node of another tree, a removed node, and a node whose ancestor was removed
    for node in (foreign, level1, below):
        with pytest.raises(ValueError, match="not in this tree"):
            tree.remove_node(node)
        assert (tree.node_count, tree.dump()) == (count, dump)
    assert other.node_count == sum(1 for _ in other.iter_nodes())
    with pytest.raises(ValueError, match="virtual root"):
        tree.remove_node(other.root)


def test_dump_round_trip_format():
    stream = EventStream((Event(10, 1), Event(15, 0), Event(30, 1), Event(35, 0)), 2)
    p = EpstParams(history_window=16)
    tree = learn_stream(stream, p)[0]
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


@pytest.mark.parametrize(
    "variant, sampling, tol",
    [(name, None, 0) for name in VARIANTS]
    + [("epst_ip", SamplingConfig(2, 2, seed=1), 0), ("epst_ip", None, 2)],
)
def test_pair_index_after_a_whole_run(variant, sampling, tol, monkeypatch):
    # on this stream an unsampled run with inhibition destroys patterns
    stream = random_stream(0, 510, 2)
    params = EpstParams(history_window=8, max_subseq_len=3, matching_interval=tol)
    destroyed = []
    maintain = runner.inhibitory_maintenance

    def counting_maintenance(tree, hits):
        destroyed.extend(maintain(tree, hits))
        return destroyed

    monkeypatch.setattr(runner, "inhibitory_maintenance", counting_maintenance)
    run = runner.run_epst(stream, params, VARIANTS[variant], sampling)
    assert_pair_index(run.trees)
    assert run.trees[0].index.pairs
    assert bool(destroyed) == (VARIANTS[variant].inhibition and sampling is None)
