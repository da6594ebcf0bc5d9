"""Quickstart: learn a small repeating pattern online and inspect the
spike-triggered prediction grid.

Run: python3 demos/quickstart.py
"""

from epst import EpstParams, Event, EventStream, learn_stream, predict_window

# a 3-event pattern on channels 1, 2, 3 announcing a spike on channel 0,
# repeated three times
pattern = [(0, 1), (3, 2), (6, 3), (10, 0)]
events = []
for rep in range(3):
    base = 100 * rep + 10
    events.extend(Event(base + dt, c) for dt, c in pattern)
stream = EventStream(tuple(events), num_channels=4)

# online learning, one tree per channel: every spike updates denominators;
# a spike in a tree's preferred channel updates numerators and grows that tree
trees = learn_stream(stream, EpstParams())

print("tree for channel 0 after three presentations:")
print(trees[0].dump())

# trigger a prediction right after the third pattern, before its g-spike
t = 216  # the third (6, 3) event
matrix = predict_window(trees, stream, t)
row = matrix.estimates[0]
print(f"prediction for channel 0, triggered at t={t}:")
for n, p in enumerate(row):
    if p > 0:
        cand = matrix.chosen[(0, n)]
        print(
            f"  step +{n} (t={t + n}): p={p:.3f} "
            f"from pattern {cand.subsequence} "
            f"({cand.numerator}/{cand.denominator})"
        )
