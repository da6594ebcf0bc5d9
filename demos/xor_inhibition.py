"""Exclusive-or with inhibitory patterns: pattern A alone predicts g,
pattern B alone predicts g, but A and B together must not.

Run: python3 demos/xor_inhibition.py
"""

from epst import EpstParams, EpstTree, predict_from_context, record_false_positive
from epst.events import HistoryWindow

params = EpstParams(branch_extension_threshold=0, min_subseq_len=1)
tree = EpstTree(0, params)

# one-shot training: A = spike on channel 1 ten steps back, B = channel 2
tree.step2_numerators_and_extend(HistoryWindow(frozenset({(10, 1)})))
tree.step2_numerators_and_extend(HistoryWindow(frozenset({(10, 2)})))

# one observed false positive on the joint window teaches the inhibitory
# pattern {A, B}; the excitatory singles are left untouched
added = record_false_positive(tree, HistoryWindow(frozenset({(10, 1), (10, 2)})))
print(f"inhibitory patterns stored: {added}")
print(tree.dump())


def p_of(events, label):
    p = predict_from_context([tree], events, 100).probability(0, 5)
    print(f"  {label:12s} -> p(g at +5) = {p}")


print("predictions:")
p_of([(95, 1)], "A only")
p_of([(95, 2)], "B only")
p_of([(95, 1), (95, 2)], "A and B")
