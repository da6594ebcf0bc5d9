"""Online driver tests: trigger bookkeeping, variants, determinism, and no
cyclic garbage."""

import gc

from epst import runner
from epst.acceptance import random_stream
from epst.datagen import (
    add_random_events,
    add_structured_interference,
    apply_dropout,
    gen_base,
)
from epst.evaluation import count_false_positives, score_epst
from epst.events import Event, EventStream, window_of
from epst.extensions import FALSE_POSITIVE_THRESHOLD, VARIANTS
from epst.runner import SamplingConfig, run_epst, run_vmm
from epst.tree import EpstParams


def test_one_trigger_per_event_time():
    stream = EventStream(
        (Event(5, 0), Event(5, 1), Event(9, 2), Event(14, 0)), 3
    )
    run = run_epst(stream, EpstParams())
    assert run.trigger_times == [5, 9, 14]
    assert len(run.matrices) == 3
    assert all(m.trigger_time == t for m, t in zip(run.matrices, run.trigger_times))


def test_dropped_events_never_trigger():
    base = gen_base(0, 120, 10)
    dropped = apply_dropout(base, 5, p=0.3, onset_time=0)
    run = run_epst(dropped, EpstParams())
    visible_times = sorted({e.time for e in dropped.visible()})
    assert run.trigger_times == visible_times


def test_learning_precedes_prediction():
    # a pattern seen once is already predicted during its second live
    # presentation: the presentation's own denominator pass has diluted
    # every stored pattern to 1/2 by the time the trigger fires, so the
    # correct cell carries exactly that estimate (not 0)
    stream = EventStream(
        (Event(10, 1), Event(13, 2), Event(17, 0), Event(110, 1), Event(113, 2)), 3
    )
    run = run_epst(
        stream,
        EpstParams(branch_extension_threshold=0, min_subseq_len=1),
    )
    idx = run.trigger_times.index(113)
    matrix = run.matrices[idx]
    assert matrix.probability(0, 4) == 0.5
    chosen = matrix.chosen[(0, 4)]
    assert (chosen.numerator, chosen.denominator) == (1, 2)


def test_run_is_deterministic():
    stream = random_stream(21, 150, 5)
    a = run_epst(stream, EpstParams(), VARIANTS["epst_ip"])
    b = run_epst(stream, EpstParams(), VARIANTS["epst_ip"])
    assert a.trigger_times == b.trigger_times
    assert [m.estimates for m in a.matrices] == [m.estimates for m in b.matrices]
    assert [t.dump() for t in a.trees] == [t.dump() for t in b.trees]


def test_plain_variant_never_stores_inhibitory():
    stream = random_stream(22, 150, 5)
    run = run_epst(stream, EpstParams(branch_extension_threshold=0))
    assert all(
        not node.is_inhibitory for tree in run.trees for node in tree.iter_nodes()
    )


def test_pruning_variant_bounds_tree_size():
    stream = random_stream(23, 600, 5)
    params = EpstParams(branch_extension_threshold=0)
    plain = run_epst(stream, params)
    pruned = run_epst(stream, params, VARIANTS["epst_p"])
    assert sum(t.node_count for t in pruned.trees) < sum(
        t.node_count for t in plain.trees
    )


def test_sampling_config_path():
    stream = random_stream(24, 120, 4)
    run = run_epst(stream, EpstParams(), sampling=SamplingConfig(6, 3, seed=1))
    again = run_epst(stream, EpstParams(), sampling=SamplingConfig(6, 3, seed=1))
    assert [m.estimates for m in run.matrices] == [m.estimates for m in again.matrices]


def test_run_vmm_counts_every_event():
    stream = random_stream(25, 80, 4)
    run = run_vmm(stream, "ppmc")
    assert len(run.events) == len(run.probabilities) == 80
    assert all(p is not None for p in run.probabilities[1:])


def test_run_leaves_no_reference_cycles(monkeypatch):
    """A run, its scoring and its tree dumps, once dropped, are freed by
    reference counting alone: with the collector off, a collection
    afterwards finds no unreachable object. A forest holds no cycle, since
    no node points back to its parent."""
    stream = random_stream(0, 510, 2)
    params = EpstParams(history_window=8, max_subseq_len=3)
    pruned, destroyed = [], []
    prune, maintain = runner.prune_entropy, runner.inhibitory_maintenance

    def counting_prune(tree):
        pruned.append(prune(tree))
        return pruned[-1]

    def counting_maintenance(tree, hits):
        removed = maintain(tree, hits)
        destroyed.extend(removed)
        return removed

    monkeypatch.setattr(runner, "prune_entropy", counting_prune)
    monkeypatch.setattr(runner, "inhibitory_maintenance", counting_maintenance)
    runs = [(variant, None) for variant in VARIANTS.values()]
    # sample 2 events of contexts that often hold more: the lane path runs
    runs.append((VARIANTS["epst_ip"], SamplingConfig(2, 2, seed=1)))
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for variant, sampling in runs:
            run = run_epst(stream, params, variant, sampling)
            score_epst(run, stream, "structured")
            count_false_positives(run, stream)
            for tree in run.trees:
                tree.dump()
            del run, tree
    finally:
        if enabled:
            gc.enable()
    assert gc.collect() == 0
    # pruning detached nodes and maintenance destroyed a pattern
    assert sum(pruned) > 0 and destroyed


# ---------------------------------------------------------------------------
# in-run false-positive resolution against the per-cell definition


def noisy_stream():
    """A short six-channel cyclic signal with every kind of label: an
    interference interval, a random-noise interval and a dropout tail."""
    stream = gen_base(3, 200, 6, cycle_length=20)
    stream = add_structured_interference(stream, 4, [(600, 1000)])
    stream = add_random_events(stream, 5, [(1200, 1700)])
    return apply_dropout(stream, 6, 0.2, onset_time=1900)


def test_false_positive_resolution_matches_per_cell(monkeypatch):
    """Every step between two event times is checked on every channel,
    through latest_estimate capped at the later time (the triggers that
    existed when the step was resolved); the record_false_positive calls
    must come in (step, channel) order with one window per step."""
    stream = noisy_stream()
    params = EpstParams(branch_extension_threshold=0)
    calls = []
    record = runner.record_false_positive

    def recording(tree, window):
        calls.append((tree.g, window))
        return record(tree, window)

    monkeypatch.setattr(runner, "record_false_positive", recording)
    run = run_epst(stream, params, VARIANTS["epst_ip"])

    visible = stream.visible()
    vis_cells = {(e.channel, e.time) for e in visible}
    expected = []
    prev = -1
    for t in run.trigger_times:
        present = {e.channel for e in visible if e.time == t}
        for step in range(prev + 1, t + 1):
            for g in range(stream.num_channels):
                if g in present and step == t or (g, step) in vis_cells:
                    continue
                if run.latest_estimate(g, step, t) >= FALSE_POSITIVE_THRESHOLD:
                    expected.append((g, step))
        prev = t
    assert len(expected) > 100
    assert [g for g, _ in calls] == [g for g, _ in expected]
    for (_, window), (_, step) in zip(calls, expected):
        assert window == window_of(stream, step, params.history_window)
    for (_, a), (_, b), (_, step_a), (_, step_b) in zip(
        calls, calls[1:], expected, expected[1:]
    ):
        assert (a is b) == (step_a == step_b)
