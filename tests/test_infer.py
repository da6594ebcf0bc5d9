"""Prediction tests. The full multi-step matcher is cross-checked against a
naive oracle that rebuilds the history window at every step and matches
every stored pattern independently with the reference matcher."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epst import infer as infer_module, runner, tree as tree_module
from epst.acceptance import _injective_match, random_stream
from epst.events import Event, EventStream, HistoryWindow, window_of
from epst.extensions import VARIANTS, record_false_positive
from epst.infer import (
    Candidate,
    PredictionMatrix,
    _rank_key,
    candidate_from_node,
    context_events,
    entropy,
    estimate_probability,
    predict_from_context,
    predict_window,
    sampled_predict,
)
from epst.runner import SamplingConfig, run_epst
from epst.tree import EpstParams, EpstTree, TreeNode, match_tolerance, learn_stream, match_occupancy


# ---------------------------------------------------------------------------
# probability and entropy


def test_probability_values():
    assert estimate_probability(3, 4) == 0.75
    assert estimate_probability(0, 3) == 0.0
    assert estimate_probability(7, 5) == 1.0  # clamped
    assert estimate_probability(-2, 5) == 0.0  # clamped
    with pytest.raises(ValueError):
        estimate_probability(1, 0)


def test_entropy_values():
    assert entropy(1, 1) == 0.0
    assert entropy(0, 7) == 0.0
    assert abs(entropy(1, 2) - math.log(2)) < 1e-12
    # h(0.75) = -(0.75 ln 0.75 + 0.25 ln 0.25)
    expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert abs(entropy(3, 4) - expected) < 1e-12
    assert abs(entropy(3, 4) - 0.5623351446188083) < 1e-12
    assert entropy(1, 4) == entropy(3, 4)  # symmetric in p and 1-p


@given(st.integers(0, 50), st.integers(1, 50))
def test_entropy_bounds(num, den):
    h = entropy(num, den)
    assert 0.0 <= h <= math.log(2) + 1e-12


# ---------------------------------------------------------------------------
# representative selection


def test_select_lowest_entropy_wins():
    a = Candidate(((3, 0),), 1, 2)   # H = ln 2
    b = Candidate(((5, 1),), 9, 10)  # lower entropy
    assert min([a, b], key=Candidate.rank_key) is b


def test_select_tie_breaks():
    # equal entropy 0: longer subsequence wins
    short = Candidate(((3, 0),), 4, 4)
    long = Candidate(((3, 0), (5, 1)), 2, 2)
    assert min([short, long], key=Candidate.rank_key) is long
    # equal entropy and length: higher denominator wins
    weak = Candidate(((3, 0),), 2, 2)
    strong = Candidate(((4, 1),), 9, 9)
    assert min([weak, strong], key=Candidate.rank_key) is strong


def test_rank_key_matches_candidate_rank_key():
    p = EpstParams(history_window=12, max_subseq_len=3)
    stream = random_stream(31, 60, 3)
    rng = np.random.default_rng(3)
    inhibitory = 0
    for tree in learn_stream(stream, p):
        for e in stream.events[20:50:6]:
            record_false_positive(tree, window_of(stream, e.time, p.history_window))
        nodes = [n for n in tree.iter_nodes() if n.is_inhibitory or n.denominator >= 1]
        inhibitory += sum(n.is_inhibitory for n in nodes)
        picked = [nodes[i] for i in rng.permutation(len(nodes))]
        assert [_rank_key(n) for n in picked] == [
            candidate_from_node(n).rank_key() for n in picked
        ]
        assert sorted(picked, key=_rank_key) == sorted(
            picked, key=lambda n: candidate_from_node(n).rank_key()
        )
    assert inhibitory > 0


# ---------------------------------------------------------------------------
# occupancy steps and sparse rows


def interval_steps(d, age, m, mp, tol):
    """The steps n where an item with cumulative delay d matches an event of
    the given age: |n + age - d| <= tol, 1 <= n + age <= M, 0 <= n <= M'."""
    return {n for n in range(mp + 1) if abs(n + age - d) <= tol and 1 <= n + age <= m}


def occupancy(ages, lanes, m, mp):
    """The occupancy of channel 0 for events of the given ages, each in the
    lanes that hold its index, and the mask of every lane's steps: an event
    of age a sets bit r*B + M' + a of lane r, step n is bit r*B + M' - n,
    with lane stride B = M + M' + 1 (the `infer` module docstring)."""
    stride, occ = m + mp + 1, 0
    for r, idx in enumerate(lanes):
        for k in idx:
            occ |= 1 << r * stride + mp + ages[k]
    full = sum(((1 << mp + 1) - 1) << r * stride for r in range(len(lanes)))
    return {0: occ}, full


def lane_steps(mask, m, mp):
    """Lane -> the steps n whose bit r*B + M' - n is set in a step mask;
    every set bit must be one of a lane's M' + 1 step bits."""
    stride, lanes = m + mp + 1, {}
    while mask:
        low = mask & -mask
        mask ^= low
        lane, k = divmod(low.bit_length() - 1, stride)
        assert k <= mp
        lanes.setdefault(lane, set()).add(mp - k)
    return lanes


def item_steps(occ, full, d, m, mp, tol):
    """The lane steps where a one-item path at delay d on channel 0 matches."""
    node = TreeNode(((d, 0),))
    found = {}
    tolerance = match_tolerance(EpstParams(history_window=m, matching_interval=tol))
    match_occupancy({0: [node]}, full, occ, 0, tolerance, found, 0, 0)
    return lane_steps(found.get(node, 0), m, mp)


@pytest.mark.parametrize("tol", [0, 1, 2, 5])
@pytest.mark.parametrize("m,mp", [(16, 12), (10, 12), (32, 28)])
def test_occupancy_steps_match_interval_formula(m, mp, tol):
    # one event of each age 0..M against an item at each delay a tree can
    # store, 1..M
    for age in range(m + 1):
        occ, full = occupancy([age], [[0]], m, mp)
        for d in range(1, m + 1):
            want = interval_steps(d, age, m, mp, tol)
            assert item_steps(occ, full, d, m, mp, tol) == ({0: want} if want else {})


@pytest.mark.parametrize("tol", [0, 2])
@pytest.mark.parametrize("repeats", range(1, 7))
def test_occupancy_lanes_stay_apart(repeats, tol):
    # each lane matches its own events only: no bit of one lane's events
    # reaches another lane's steps under any shift
    m, mp = 16, 12
    rng = np.random.default_rng(10 * repeats + tol)
    ages = [int(a) for a in rng.integers(0, m + 1, size=6)]
    lanes = [[int(k) for k in rng.choice(6, size=3, replace=False)] for _ in range(repeats)]
    occ, full = occupancy(ages, lanes, m, mp)
    for d in range(1, m + 1):
        want = {}
        for r, idx in enumerate(lanes):
            steps = set().union(*(interval_steps(d, ages[k], m, mp, tol) for k in idx))
            if steps:
                want[r] = steps
        assert item_steps(occ, full, d, m, mp, tol) == want


def test_tree_delays_stay_within_history_window():
    # a shift by a cumulative delay past M would read another lane's events
    p = EpstParams(history_window=12, max_subseq_len=3)
    stream = random_stream(32, 80, 3)
    trees = learn_stream(stream, p)
    for tree in trees:
        for e in stream.events[20:70:5]:
            record_false_positive(tree, window_of(stream, e.time, p.history_window))
        assert max(n.cum_delay for n in tree.iter_nodes()) <= p.history_window
    # both steps that store items refuse a window reaching past M before
    # they change the tree: M is the one bound on a stored delay
    p = EpstParams(history_window=16, branch_extension_threshold=0, min_subseq_len=1)
    tree = EpstTree(0, p)
    tree.step2_numerators_and_extend(HistoryWindow({(5, 1), (16, 2)}))
    before = (tree.node_count, tree.root_count, tree.dump())
    for store, window, oldest in [
        (tree.step2_numerators_and_extend, HistoryWindow({(30, 1)}), 30),
        (tree.step2_numerators_and_extend, HistoryWindow({(5, 1), (17, 2)}), 17),
        (lambda w: record_false_positive(tree, w), HistoryWindow({(20, 1), (30, 2)}), 30),
    ]:
        with pytest.raises(ValueError, match=f"delay {oldest} exceeds history_window 16"):
            store(window)
        assert (tree.node_count, tree.root_count, tree.dump()) == before


def test_sparse_rows():
    matrix = PredictionMatrix(trigger_time=10, steps=3, cells=((1, 2, 0.5), (3, 2, 0.25)))
    assert matrix.probability(0, 1) == 0.0
    assert matrix.probability(2, 1) == 0.5
    assert 0 not in matrix.estimates
    # indexing a missing row stores a zero row, which adds no cell
    row = matrix.estimates[0]
    assert row == [0.0] * 4
    assert dict(matrix.estimates.items()) == {2: [0.0, 0.5, 0.0, 0.25], 0: [0.0] * 4}
    assert matrix.cells == ((1, 2, 0.5), (3, 2, 0.25))
    # and later readers of the rows see writes to it; the cells stay
    row[3] = 1.5
    assert max(max(r) for _, r in matrix.estimates.items()) == 1.5
    assert matrix.probability(0, 3) == 0.0
    copy = pickle.loads(pickle.dumps(matrix))
    assert copy == matrix
    assert copy.estimates[5] == [0.0] * 4


def test_predicted_rows_are_nonzero():
    p = EpstParams(history_window=16)
    stream = random_stream(9, 80, 4)
    trees = learn_stream(stream, p)
    stored = 0
    for e in stream.events[30::5]:
        matrix = predict_window(trees, stream, e.time)
        assert all(any(row) for row in matrix.estimates.values())
        assert {g for _, g, _ in matrix.cells} == set(matrix.estimates)
        stored += len(matrix.estimates)
    assert stored > 0


# ---------------------------------------------------------------------------
# full prediction vs naive per-step oracle


def window_entries(events, time, m):
    """The sorted entries of the history window at `time` of a (time,
    channel) context."""
    return sorted({(time - tk, c) for tk, c in events if 1 <= time - tk <= m})


def naive_matrix(trees, events, t):
    """Rebuild the window at t + n for every step independently and pick the
    representative by rank among matching eligible patterns. Returns the
    estimate rows with a nonzero cell and the representative of every
    nonzero cell, as `predict_from_context` reports them, and for each tree
    the per-step match mask of every inhibitory pattern that matches at
    some step."""
    estimates, chosen, inhibitory = {}, {}, {}
    for tree in trees:
        p = tree.params
        row = [0.0] * (p.prediction_window + 1)
        masks = {}
        for n in range(p.prediction_window + 1):
            entries = window_entries(events, t + n, p.history_window)
            best = None
            for node in tree.iter_nodes():
                if not node.is_inhibitory:
                    if node.depth < p.min_subseq_len or node.denominator < 1:
                        continue
                if not _injective_match(node.path, entries, p.matching_interval):
                    continue
                if node.is_inhibitory:
                    masks[node] = masks.get(node, 0) | 1 << n
                c = candidate_from_node(node)
                if best is None or c.rank_key() < best.rank_key():
                    best = c
            if best is not None:
                row[n] = best.probability
                if best.probability > 0.0:
                    chosen[(tree.g, n)] = best
        if any(row):
            estimates[tree.g] = row
        if masks:
            inhibitory[tree.g] = masks
    return estimates, chosen, inhibitory


def assert_matches_oracle(trees, events, t):
    matrix = predict_from_context(trees, events, t)
    estimates, chosen, inhibitory = naive_matrix(trees, events, t)
    assert matrix.estimates == estimates
    assert matrix.chosen == chosen
    hits = {g: dict(pairs) for g, pairs in matrix.inhibitory_hits.items()}
    assert hits == inhibitory
    # each matched inhibitory node is reported once
    assert all(len(hits[g]) == len(pairs) for g, pairs in matrix.inhibitory_hits.items())
    return matrix


def count_assignments(monkeypatch):
    """Record the calls of the walk's exact same-channel check."""
    calls = []
    check = tree_module._assignable

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(tree_module, "_assignable", counted)
    return calls


@pytest.mark.parametrize("seed,tol", [(5, 0), (6, 0), (7, 2), (8, 2), (9, 5), (10, 5)])
def test_prediction_matches_naive_oracle(seed, tol, monkeypatch):
    p = EpstParams(
        history_window=16,
        prediction_window=12,
        matching_interval=tol,
    )
    stream = random_stream(seed, 80, 4)
    trees = learn_stream(stream, p)
    calls = count_assignments(monkeypatch)
    for t in (stream.events[40].time, stream.events[60].time, stream.events[-1].time):
        assert_matches_oracle(trees, context_events(stream, t, p.history_window), t)
    # at tol > 0 the walk settles same-channel items within 2*tol exactly
    assert bool(calls) == (tol > 0)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_prediction_matches_naive_oracle_property(seed):
    p = EpstParams(
        history_window=12,
        prediction_window=8,
        max_subseq_len=3,
        min_subseq_len=1,
    )
    stream = random_stream(seed, 40, 3)
    trees = learn_stream(stream, p)
    t = stream.events[30].time
    assert_matches_oracle(trees, context_events(stream, t, p.history_window), t)


@pytest.mark.parametrize("tol", [0, 2, 5])
@pytest.mark.parametrize("extension_threshold", [1, 0, 2])
@pytest.mark.parametrize("min_len", [1, 2, 3])
def test_prediction_with_inhibitory_matches_naive_oracle(min_len, extension_threshold, tol):
    # the walk records only candidate nodes and skips leaves; inhibitory
    # patterns (zero counts, hung below bare structural nodes) must still
    # be found at every step they match, at the default extension threshold
    # (1), where every matched node grows children (0) and a sparser one (2)
    p = EpstParams(
        history_window=12,
        prediction_window=10,
        min_subseq_len=min_len,
        max_subseq_len=3,
        branch_extension_threshold=extension_threshold,
        matching_interval=tol,
    )
    stream = random_stream(20 + min_len, 60, 3)
    trees = learn_stream(stream, p)
    for tree in trees:
        for e in stream.events[20:50:6]:
            record_false_positive(tree, window_of(stream, e.time, p.history_window))
    assert all(any(n.is_inhibitory for n in tree.iter_nodes()) for tree in trees)
    hits = 0
    for e in stream.events[24:60:7]:
        t = e.time
        matrix = assert_matches_oracle(trees, context_events(stream, t, p.history_window), t)
        hits += len(matrix.inhibitory_hits)
    assert hits > 0


@pytest.mark.parametrize("tol", [0, 2])
@pytest.mark.parametrize("min_len", [1, 2, 3])
def test_dense_and_sparse_contexts_match_naive_oracle(min_len, tol):
    # a sparse context looks up its event pairs' keys; a dense one, whose
    # pairs outnumber the forest's pair keys, tries the index's own keys:
    # both must find what the oracle finds
    p = EpstParams(
        history_window=12,
        prediction_window=8,
        min_subseq_len=min_len,
        max_subseq_len=3,
        branch_extension_threshold=0,
        matching_interval=tol,
    )
    stream = random_stream(50 + min_len, 40, 3)
    trees = learn_stream(stream, p)
    for tree in trees:
        for e in stream.events[10:40:6]:
            record_false_positive(tree, window_of(stream, e.time, p.history_window))
    keys = len(trees[0].index.pairs)
    rng = np.random.default_rng(min_len + tol)
    t = 500
    dense = [(t - a, c) for a in range(p.history_window + 1) for c in range(3) if rng.random() < 0.7]
    sparse = [(t - 11, 1), (t - 4, 0), (t - 2, 2)]
    sizes = {len(events) * (len(events) - 1) // 2 for events in (dense, sparse)}
    assert min(sizes) < keys < max(sizes)
    inhibitory = 0
    for events in (dense, sparse):
        inhibitory += len(assert_matches_oracle(trees, events, t).inhibitory_hits)
    assert inhibitory


def test_duplicated_event_serves_one_item():
    # a duplicated (time, channel) event is one entry of every window, so it
    # cannot serve both items of ((4, 0), (6, 0)) at tol 1
    p = EpstParams(
        history_window=16,
        prediction_window=8,
        min_subseq_len=2,
        max_subseq_len=2,
        branch_extension_threshold=0,
        matching_interval=1,
    )
    tree = EpstTree(0, p)
    tree.step2_numerators_and_extend(HistoryWindow(((4, 0), (6, 0))))
    for events in ([(95, 0), (95, 0)], [(95, 0)]):
        assert assert_matches_oracle([tree], events, 100).cells == ()


def test_same_channel_items_within_two_tol(monkeypatch):
    # ((4, 0), (7, 0)) at tol 2: the items' intervals [2, 6] and [5, 9]
    # overlap, so the AND alone would let one event serve both; the exact
    # check must run, refuse that, and accept two events
    p = EpstParams(
        history_window=16,
        prediction_window=8,
        min_subseq_len=2,
        max_subseq_len=2,
        branch_extension_threshold=0,
        matching_interval=2,
    )
    tree = EpstTree(0, p)
    tree.step2_numerators_and_extend(HistoryWindow(((4, 0), (7, 0))))
    calls = count_assignments(monkeypatch)
    # ages 5 and 12 (a gap within 3 + 2*tol, so a pair lookup selects the
    # node): only the age-5 event is within tol of an item, of both at steps
    # 0..1, so no step has an injective assignment
    assert assert_matches_oracle([tree], [(88, 0), (95, 0)], 100).cells == ()
    assert calls
    calls.clear()
    # one event alone is too few for two items at every step
    assert assert_matches_oracle([tree], [(95, 0)], 100).cells == ()
    assert not calls
    # events of ages 5 and 6: the earlier item takes the younger
    matrix = assert_matches_oracle([tree], [(94, 0), (95, 0)], 100)
    assert matrix.chosen[(0, 0)].subsequence == ((4, 0), (7, 0))
    assert calls


def test_zero_probability_winner_stores_no_cell():
    # a bare structural node that later gained a denominator but no
    # numerator ranks first (entropy 0) and takes its cell, which stays 0
    p = EpstParams(history_window=16, prediction_window=4)
    tree = EpstTree(0, p)
    a = tree._add_child(tree.root, (3, 1))
    a.numerator = a.denominator = 2
    b = tree._add_child(a, (5, 2))
    b.numerator, b.denominator = 0, 2
    c = tree._add_child(a, (6, 2))
    c.numerator, c.denominator = 1, 2
    # b and c both match at step 0 only, and b outranks c there
    matrix = assert_matches_oracle([tree], [(14, 2), (15, 2), (17, 1)], 20)
    assert matrix.estimates == {} and matrix.chosen == {}


def test_context_event_later_than_t_is_an_error():
    tree = EpstTree(0, EpstParams(branch_extension_threshold=0, min_subseq_len=1))
    tree.step2_numerators_and_extend(HistoryWindow(frozenset({(10, 1)})))
    assert predict_from_context([tree], [(95, 1)], 100).cells == ((5, 0, 1.0),)
    # an event at t itself has age 0 and is context; one older than M is not
    assert predict_from_context([tree], [(100, 1)], 100).cells == ((10, 0, 1.0),)
    assert predict_from_context([tree], [(60, 1)], 100).cells == ()
    # age -30 must not be read as an old event
    with pytest.raises(ValueError, match=r"time 130 is later than t = 100"):
        predict_from_context([tree], [(130, 1)], 100)


def test_fresh_trees_predict_all_zero():
    trees = [EpstTree(g, EpstParams()) for g in range(3)]
    stream = EventStream((Event(5, 0), Event(9, 1)), 3)
    matrix = predict_window(trees, stream, 10)
    assert all(all(v == 0.0 for v in row) for row in matrix.estimates.values())
    assert matrix.chosen == {}


def test_context_events_bounds():
    stream = EventStream(
        (Event(2, 0), Event(5, 1, "dropped"), Event(10, 2), Event(12, 0)), 3
    )
    # inclusive at t and at t - M; dropped events hidden
    assert context_events(stream, 10, 8) == [(2, 0), (10, 2)]


def test_chosen_records_explain_cells():
    p = EpstParams(history_window=16)
    stream = random_stream(9, 80, 4)
    trees = learn_stream(stream, p)
    t = stream.events[-1].time
    matrix = predict_window(trees, stream, t)
    for (g, n), c in matrix.chosen.items():
        assert matrix.probability(g, n) == c.probability


def test_matrix_single_pattern_probability():
    p = EpstParams(history_window=16, prediction_window=4, min_subseq_len=1)
    stream = EventStream(
        (Event(10, 1), Event(15, 0), Event(30, 1), Event(35, 0), Event(48, 1)), 2
    )
    tree = learn_stream(stream, p)[0]
    matrix = predict_window([tree], stream, 50)
    assert matrix.steps == 4
    # the stored single (5,1) with counts (2,3) matches at 50 + n = 48 + 5
    assert matrix.probability(0, 3) == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# downsampled prediction


def test_oversized_sample_equals_full():
    p = EpstParams(history_window=16)
    stream = random_stream(11, 80, 4)
    trees = learn_stream(stream, p)
    t = stream.events[-1].time
    full = predict_window(trees, stream, t)
    k = len(context_events(stream, t, p.history_window))
    sampled = sampled_predict(trees, stream, t, k + 3, 5, seed=1)
    assert sampled.estimates == full.estimates
    assert sampled.chosen == full.chosen
    assert sampled.inhibitory_hits == full.inhibitory_hits


def test_sampling_deterministic_and_bounded():
    p = EpstParams(history_window=16)
    stream = random_stream(12, 80, 4)
    trees = learn_stream(stream, p)
    t = stream.events[-1].time
    a = sampled_predict(trees, stream, t, 3, 4, seed=42)
    b = sampled_predict(trees, stream, t, 3, 4, seed=42)
    assert a.estimates == b.estimates
    assert a.cells
    # a sampled context is a subset of the full one, so the pattern behind
    # every nonzero cell also matches the full context's window at t + n
    events = context_events(stream, t, p.history_window)
    for n, g, _ in a.cells:
        entries = window_entries(events, t + n, p.history_window)
        items = a.chosen[(g, n)].subsequence
        assert _injective_match(items, entries, p.matching_interval)


def test_sampled_equals_max_over_single_runs():
    p = EpstParams(history_window=16, min_subseq_len=1)
    stream = random_stream(13, 60, 3)
    trees = learn_stream(stream, p)
    t = stream.events[-1].time
    events = context_events(stream, t, p.history_window)
    repeats, k = 6, 4
    agg = sampled_predict(trees, stream, t, k, repeats, seed=99)
    # replay the identical sampling choices and recompute each matrix
    rng = np.random.default_rng(99)
    singles = []
    for _ in range(repeats):
        idx = rng.choice(len(events), size=k, replace=False)
        subset = [events[i] for i in sorted(idx)]
        singles.append(predict_from_context(trees, subset, t))
    # every cell, stored row or not
    for g in range(stream.num_channels):
        for n in range(agg.steps + 1):
            assert agg.probability(g, n) == max(m.probability(g, n) for m in singles)
    assert set(agg.chosen) == {(g, n) for n, g, _ in agg.cells}


def _sampled_reference(trees, stream, t, sample_size, repeats, seed):
    """`sampled_predict` as one prediction per repeat on the same rng draws,
    merged cell by cell: the maximum over repeats, a tie keeping the earlier
    repeat's Candidate, and each inhibitory node's step mask taken from the
    first repeat it matched in."""
    events = context_events(stream, t, trees[0].params.history_window)
    if sample_size >= len(events):
        return predict_from_context(trees, events, t)
    rng = np.random.default_rng(seed)
    best, agg_hits = {}, {}   # (n, channel) -> (p, winner)
    for _ in range(repeats):
        idx = rng.choice(len(events), size=sample_size, replace=False)
        matrix = predict_from_context(trees, [events[i] for i in sorted(idx)], t)
        for (n, g, p), winner in zip(matrix.cells, matrix.winners):
            if p > best.get((n, g), (0.0,))[0]:
                best[(n, g)] = (p, winner)
        for g, hits in matrix.inhibitory_hits.items():
            seen = agg_hits.setdefault(g, [])
            known = {node for node, _ in seen}
            seen.extend(h for h in hits if h[0] not in known)
    keys = sorted(best)
    return PredictionMatrix(
        t,
        trees[0].params.prediction_window,
        tuple((n, g, best[(n, g)][0]) for n, g in keys),
        tuple(best[key][1] for key in keys),
        agg_hits,
    )


def assert_same_prediction(got, want):
    assert dict(got.estimates) == dict(want.estimates)
    # the representative objects' values, not only the cells they explain
    assert got.chosen == want.chosen
    hits = {g: dict(pairs) for g, pairs in got.inhibitory_hits.items()}
    assert hits == {g: dict(pairs) for g, pairs in want.inhibitory_hits.items()}
    assert all(len(hits[g]) == len(pairs) for g, pairs in got.inhibitory_hits.items())


@pytest.mark.parametrize("tol", [0, 1, 2])
@pytest.mark.parametrize("min_len", [1, 2])
def test_sampled_matches_per_repeat_reference(min_len, tol):
    # up to six lanes of M' + 1 = 29 bits: step masks of up to 174 bits
    p = EpstParams(
        history_window=24,
        max_subseq_len=3,
        min_subseq_len=min_len,
        matching_interval=tol,
    )
    stream = random_stream(40 + 3 * min_len + tol, 90, 3)
    trees = learn_stream(stream, p)
    for tree in trees:
        for e in stream.events[20:70:5]:
            record_false_positive(tree, window_of(stream, e.time, p.history_window))
    assert all(any(n.is_inhibitory for n in tree.iter_nodes()) for tree in trees)
    hits = cells = 0
    for i, e in enumerate(stream.events[30:90:4]):
        t = e.time
        for repeats in range(1, 7):
            for k in (2, 4):
                seed = 100 * i + 10 * repeats + k
                got = sampled_predict(trees, stream, t, k, repeats, seed)
                assert_same_prediction(got, _sampled_reference(trees, stream, t, k, repeats, seed))
                hits += len(got.inhibitory_hits)
                cells += len(got.chosen)
    assert hits > 0 and cells > 0


def false_negative_counts(trees):
    return [
        (node.sort_key(), node.inhibitory)
        for tree in trees for node in tree.iter_nodes() if node.is_inhibitory
    ]


def test_sampled_run_matches_per_repeat_reference(monkeypatch):
    # inhibition learns from the sampled cells and hits: a wrong cell shows
    # in the trees, and a wrong hit mask in the false-negative counts
    stream = random_stream(44, 300, 4)
    params = EpstParams(history_window=24)
    sampling = SamplingConfig(4, 3, 5)
    got = run_epst(stream, params, VARIANTS["epst_ip"], sampling)
    monkeypatch.setattr(runner, "sampled_predict", _sampled_reference)
    want = run_epst(stream, params, VARIANTS["epst_ip"], sampling)
    counts = false_negative_counts(want.trees)
    assert sum(count for _, count in counts) > 0
    assert false_negative_counts(got.trees) == counts
    assert [tree.dump() for tree in got.trees] == [tree.dump() for tree in want.trees]
    assert [m.cells for m in got.matrices] == [m.cells for m in want.matrices]
    assert sum(len(m.cells) for m in got.matrices) > 0


# ---------------------------------------------------------------------------
# a prediction is its cells; the views are derived


def count_views(monkeypatch):
    """Count the Candidates and estimate views that `infer` builds."""
    built = dict.fromkeys(("Candidate", "_Rows"), 0)
    for name in built:
        base = getattr(infer_module, name)

        def init(self, *args, base=base, name=name):
            built[name] += 1
            base.__init__(self, *args)

        monkeypatch.setattr(infer_module, name, type(name, (base,), {"__init__": init}))
    return built


@pytest.mark.parametrize(
    "variant,sampling",
    [(variant, None) for variant in VARIANTS] + [("epst", SamplingConfig(2, 2))],
)
def test_run_builds_no_candidate_and_no_rows(variant, sampling, monkeypatch):
    stream = random_stream(61, 200, 3)
    params = EpstParams(history_window=16, prediction_window=8, branch_extension_threshold=0)
    with monkeypatch.context() as m:
        built = count_views(m)
        run = run_epst(stream, params, VARIANTS[variant], sampling)
        assert built == {"Candidate": 0, "_Rows": 0}
        assert sum(len(matrix.cells) for matrix in run.matrices) > 0
        # built on first read, then stored
        matrix = next(matrix for matrix in run.matrices if matrix.cells)
        assert matrix.chosen is matrix.chosen and matrix.estimates is matrix.estimates
        assert built == {"Candidate": len(matrix.cells), "_Rows": 1}


@pytest.mark.parametrize("tol", [0, 2])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_run_views_match_naive_oracle(variant, tol, monkeypatch):
    # the oracle runs at prediction time and the views are derived after
    # the run, when learning has changed the counts: the winners hold the
    # counts they had when they won
    stream = random_stream(62 + tol, 100, 3)
    params = EpstParams(
        history_window=10, prediction_window=6, max_subseq_len=3, matching_interval=tol
    )
    want = []
    predict = runner.predict_from_context

    def recording(trees, events, t):
        want.append(naive_matrix(trees, events, t)[:2])
        return predict(trees, events, t)

    monkeypatch.setattr(runner, "predict_from_context", recording)
    run = run_epst(stream, params, VARIANTS[variant])
    assert [(matrix.estimates, matrix.chosen) for matrix in run.matrices] == want
    assert sum(len(chosen) for _, chosen in want) > 20


def test_run_cells_and_winners_hold_no_tree_node():
    run = run_epst(random_stream(63, 200, 3), EpstParams(history_window=16), VARIANTS["epst_ip"])

    def leaves(value):
        if isinstance(value, tuple):
            for item in value:
                yield from leaves(item)
        else:
            yield value

    held = [(m.cells, m.winners) for m in run.matrices]
    assert {type(leaf) for leaf in leaves(tuple(held))} == {int, float}


def test_equal_lanes_without_overlap_keep_the_lower_lane(monkeypatch):
    # a (3, 1) and b (5, 2), both 1/2, each match at step 2 in its own lane:
    # no two masks overlap, so nothing is ranked, and the lower lane wins
    p = EpstParams(history_window=16, prediction_window=4, min_subseq_len=1)
    tree = EpstTree(0, p)
    a = tree._add_child(tree.root, (3, 1))
    b = tree._add_child(tree.root, (5, 2))
    a.numerator, a.denominator = 1, 2
    b.numerator, b.denominator = 2, 4
    ranked = []
    rank_key = infer_module._rank_key
    monkeypatch.setattr(infer_module, "_rank_key", lambda node: ranked.append(node) or rank_key(node))
    events = [(99, 1), (97, 2)]   # ages 1 and 3
    for lanes, winner in (([[0], [1]], a), ([[1], [0]], b)):
        matrix = predict_from_context([tree], events, 100, lanes)
        assert matrix.cells == ((2, 0, 0.5),)
        assert matrix.chosen == {(0, 2): candidate_from_node(winner)}
    assert ranked == []
    # one lane holding both: the two masks share step 2, so the tree is
    # ranked, and b's higher denominator wins
    matrix = predict_from_context([tree], events, 100)
    assert matrix.chosen == {(0, 2): candidate_from_node(b)}
    assert ranked


def test_sampling_argument_validation():
    trees = [EpstTree(0, EpstParams())]
    stream = EventStream((Event(5, 0),), 1)
    with pytest.raises(ValueError):
        sampled_predict(trees, stream, 10, 0, 3, seed=0)
    with pytest.raises(ValueError):
        sampled_predict(trees, stream, 10, 5, 0, seed=0)
