"""Inhibition and pruning tests, with the XOR episode worked out by hand."""

import pytest

from epst.acceptance import random_stream
from epst.events import Event, HistoryWindow
from epst.extensions import (
    VARIANTS,
    inhibitory_maintenance,
    prune_entropy,
    record_false_positive,
)
from epst.infer import entropy, predict_from_context
from epst.tree import EpstParams, EpstTree, learn_stream


def xor_params():
    return EpstParams(branch_extension_threshold=0, min_subseq_len=1)


def trained_xor_tree():
    tree = EpstTree(0, xor_params())
    tree.step2_numerators_and_extend(HistoryWindow(frozenset({(10, 1)})))
    tree.step2_numerators_and_extend(HistoryWindow(frozenset({(10, 2)})))
    return tree


# ---------------------------------------------------------------------------
# inhibitory patterns


def test_record_false_positive_skips_existing_excitatory():
    tree = trained_xor_tree()
    window = HistoryWindow(frozenset({(10, 1), (10, 2)}))
    # the two singles already exist as excitatory patterns; only the pair
    # is new, so exactly one inhibitory pattern is stored
    added = record_false_positive(tree, window)
    assert added == 1
    pair = tree.root.children[(10, 1)].children[(10, 2)]
    assert pair.is_inhibitory
    assert not tree.root.children[(10, 1)].is_inhibitory
    # recording the same window again adds nothing
    assert record_false_positive(tree, window) == 0


def test_xor_prediction_exact():
    tree = trained_xor_tree()
    record_false_positive(tree, HistoryWindow(frozenset({(10, 1), (10, 2)})))

    def cell(events):
        return predict_from_context([tree], events, 100).probability(0, 5)

    assert cell([(95, 1)]) == 1.0
    assert cell([(95, 2)]) == 1.0
    assert cell([(95, 1), (95, 2)]) == 0.0


def test_record_respects_min_subseq_len():
    params = EpstParams(branch_extension_threshold=0)  # min_subseq_len = 2
    tree = EpstTree(0, params)
    added = record_false_positive(tree, HistoryWindow(frozenset({(10, 1)})))
    assert added == 0
    assert tree.node_count == 0


def test_inhibitory_counts_frozen_during_learning():
    tree = trained_xor_tree()
    record_false_positive(tree, HistoryWindow(frozenset({(10, 1), (10, 2)})))
    pair = tree.root.children[(10, 1)].children[(10, 2)]
    window = HistoryWindow(frozenset({(10, 1), (10, 2)}))
    tree.step1_denominators(Event(50, 1), window)
    tree.step2_numerators_and_extend(window)
    assert (pair.numerator, pair.denominator) == (0, 0)
    assert pair.is_inhibitory


def test_maintenance_destroys_after_threshold():
    tree = trained_xor_tree()
    record_false_positive(tree, HistoryWindow(frozenset({(10, 1), (10, 2)})))
    pair = tree.root.children[(10, 1)].children[(10, 2)]
    # three false negatives tolerated, the fourth crosses the limit
    for _ in range(3):
        assert inhibitory_maintenance(tree, [pair]) == []
        assert pair.is_inhibitory
    removed = inhibitory_maintenance(tree, [pair])
    assert removed == [pair]
    # the bare inhibitory node is gone; its excitatory parent survives
    assert (10, 2) not in tree.root.children[(10, 1)].children
    assert tree.root.children[(10, 1)].numerator == 1


# ---------------------------------------------------------------------------
# pruning


def test_prune_entropy_hand_values():
    tree = EpstTree(0, EpstParams())
    a = tree._add_child(tree.root, (5, 1))
    a.numerator, a.denominator = 3, 4  # H ~ 0.5623 > 0: pruned
    b = tree._add_child(tree.root, (6, 2))
    b.numerator, b.denominator = 4, 4  # H = 0: kept
    removed = prune_entropy(tree)
    assert removed == 1
    assert (5, 1) not in tree.root.children
    assert (6, 2) in tree.root.children
    assert tree.node_count == 1


def test_prune_keeps_interior_with_surviving_descendant():
    tree = EpstTree(0, EpstParams())
    a = tree._add_child(tree.root, (5, 1))
    a.numerator, a.denominator = 3, 4  # unreliable on its own
    child = tree._add_child(a, (9, 2))
    child.numerator, child.denominator = 2, 2  # deterministic: survives
    assert prune_entropy(tree) == 0
    assert (5, 1) in tree.root.children
    assert a.numerator == 3 and a.denominator == 4


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_prune_entropy_postconditions(seed):
    p = EpstParams(history_window=16)
    stream = random_stream(seed, 120, 4)
    tree = learn_stream(stream, p)[0]
    before = {n.path: (n.numerator, n.denominator) for n in tree.iter_nodes()}
    removed = prune_entropy(tree)
    after = list(tree.iter_nodes())
    assert removed == len(before) - len(after)
    assert tree.node_count == len(after)
    for node in after:
        # surviving counts untouched
        assert before[node.path] == (node.numerator, node.denominator)
        # a surviving leaf must itself be deterministic
        if not node.children and node.denominator >= 1:
            assert entropy(node.numerator, node.denominator) == 0.0
    _assert_index_consistent(tree)


def _assert_index_consistent(tree):
    for node in [tree.root, *tree.iter_nodes()]:
        regrouped = {}
        for child in node.children.values():
            regrouped.setdefault(child.item[1], []).append(child)
        assert {c: set(map(id, v)) for c, v in node.by_channel.items()} == {
            c: set(map(id, v)) for c, v in regrouped.items()
        }


def test_variant_table():
    assert set(VARIANTS) == {"epst", "epst_i", "epst_p", "epst_ip"}
    assert not VARIANTS["epst"].inhibition and not VARIANTS["epst"].pruning
    assert VARIANTS["epst_i"].inhibition and not VARIANTS["epst_i"].pruning
    assert not VARIANTS["epst_p"].inhibition and VARIANTS["epst_p"].pruning
    assert VARIANTS["epst_ip"].inhibition and VARIANTS["epst_ip"].pruning
