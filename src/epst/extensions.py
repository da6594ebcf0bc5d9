"""Tree extensions: inhibitory (XOR) patterns and pruning.

Inhibitory patterns are created from false positives: subsequences of the
offending window that do not already exist as excitatory patterns are
stored with a zero probability contribution. They are destroyed when they
repeatedly coincide with actual spikes in the preferred channel (false
negatives). Pruning removes unreliable (high entropy) excitatory patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from .events import HistoryWindow, enumerate_subsequences
from .infer import entropy
from .tree import EpstTree, TreeNode

# a cell estimated at or above this is a confident prediction: without an
# event there, in-run resolution learns from it and count_false_positives
# counts it
FALSE_POSITIVE_THRESHOLD = 0.5
# an inhibitory pattern survives this many false negatives; the next one
# destroys it
FALSE_NEGATIVE_LIMIT = 3


@dataclass(frozen=True)
class Variant:
    """EPST variant selector: plain, inhibition, pruning, or both."""

    inhibition: bool
    pruning: bool


VARIANTS = {
    "epst": Variant(False, False),
    "epst_i": Variant(True, False),
    "epst_p": Variant(False, True),
    "epst_ip": Variant(True, True),
}


def _is_excitatory(node: TreeNode) -> bool:
    return not node.is_inhibitory and (node.numerator > 0 or node.denominator > 0)


def record_false_positive(tree: EpstTree, window: HistoryWindow) -> int:
    """Store every subsequence of the window (within the tree's length
    limits) that does not already exist as an excitatory pattern as an
    inhibitory node. Returns the number of patterns added. ValueError, with
    the tree unchanged, if the window reaches beyond the tree's M."""
    p = tree.params
    tree._bounded_entries(window)
    added = 0
    for sub in enumerate_subsequences(window, p.min_subseq_len, p.max_subseq_len):
        node = tree.root
        for item in sub:
            child = node.children.get(item)
            if child is None:
                child = tree._add_child(node, item)
            node = child
        if _is_excitatory(node) or node.is_inhibitory:
            continue
        node.inhibitory = 0
        added += 1
    return added


def _drop_inhibitory(tree: EpstTree, node: TreeNode) -> None:
    """Clear a node's inhibitory mark; remove the node if nothing below it
    survives, trimming bare ancestors from the bottom of its chain."""
    chain = tree._chain(node)
    node.inhibitory = None
    while len(chain) > 1:
        node = chain[-1]
        if node.children or _is_excitatory(node) or node.is_inhibitory:
            break
        chain.pop()
        tree._detach(chain[-1], node.item)


def inhibitory_maintenance(
    tree: EpstTree, matched_inhibitory: Iterable[TreeNode]
) -> List[TreeNode]:
    """Called on an actual g spike with the inhibitory patterns matched for
    it: each caused a false negative; count them and destroy patterns past
    FALSE_NEGATIVE_LIMIT. Returns the nodes removed."""
    removed = []
    for node in matched_inhibitory:
        if node.inhibitory is None:
            continue
        node.inhibitory += 1
        if node.inhibitory > FALSE_NEGATIVE_LIMIT:
            removed.append(node)
            _drop_inhibitory(tree, node)
    return removed


def prune_entropy(tree: EpstTree) -> int:
    """Remove excitatory nodes with a nonzero entropy, i.e. an estimate
    strictly between 0 and 1. Subtrees are removed atomically: a node with
    a surviving descendant stays as structure with its counts intact.
    Returns the number of nodes removed."""
    before = tree.node_count
    _prune_below(tree, tree.root)
    return before - tree.node_count


def _prune_below(tree: EpstTree, node: TreeNode) -> bool:
    """prune_entropy's walk: detach every child of `node` that does not
    survive, each once its own children are gone. Returns True if `node`
    survives. Module level, like `tree.match_occupancy`, so a call leaves no
    reference cycle."""
    survivors = False
    for key in sorted(node.children):
        if _prune_below(tree, node.children[key]):
            survivors = True
        else:
            tree._detach(node, key)
    if node.item is None or survivors or node.is_inhibitory:
        return True
    if node.denominator < 1:
        return False  # bare structure with nothing below it
    return entropy(node.numerator, node.denominator) == 0.0

