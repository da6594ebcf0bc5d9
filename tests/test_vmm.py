"""Baseline model tests with hand-worked count tables and blend values."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epst.events import Event, EventStream
from epst.runner import run_vmm
from epst.vmm import VmmModel


def test_run_vmm_orders_and_keeps_drops():
    stream = EventStream(
        (
            Event(3, 2),
            Event(5, 1, "dropped"),
            Event(7, 1),
            Event(7, 0),  # simultaneous: channel order
            Event(9, 2, "noise"),
        ),
        3,
    )
    run = run_vmm(stream, "ppmc")
    assert [(e.time, e.channel) for e in run.events] == [(3, 2), (5, 1), (7, 0), (7, 1), (9, 2)]
    # the dropped event is scored but never taught to the model
    assert run.events[1].label == "dropped"
    assert [e.channel for e in run.events if e.label != "dropped"] == [2, 0, 1, 2]
    model = VmmModel("ppmc", 3)
    for c in (2, 0):
        model.update(c)
    assert run.probabilities[3] == float(model.predict()[1])


def test_context_counts_hand_worked():
    # "banana"-style feed over symbols b=0, a=1, n=2
    model = VmmModel("ppmc", 3, max_order=2)
    for s in [0, 1, 2, 1, 2, 1]:
        model.update(s)
    assert model.counts[()] == {0: 1, 1: 3, 2: 2}
    assert model.counts[(0,)] == {1: 1}
    assert model.counts[(1,)] == {2: 2}
    assert model.counts[(2,)] == {1: 2}
    assert model.counts[(1, 2)] == {1: 2}
    assert model.counts[(2, 1)] == {2: 1}
    assert model.history == [2, 1]


def test_ppmc_blend_hand_worked():
    # feed 0,1,0,1 with order 1; predict after trailing 1:
    #   order 1: ctx (1) -> {0:1}, denom 2: adds 1/2 to symbol 0, escape 1/2
    #   order 0: {0:2, 1:2}, denom 6: adds (1/2)(2/6) to each, escape 1/6
    #   order -1: uniform 1/3 of the remaining 1/6
    model = VmmModel("ppmc", 3, max_order=1)
    for s in [0, 1, 0, 1]:
        model.update(s)
    dist = model.predict()
    assert dist[0] == pytest.approx(1 / 2 + 1 / 6 + 1 / 18)
    assert dist[1] == pytest.approx(1 / 6 + 1 / 18)
    assert dist[2] == pytest.approx(1 / 18)
    assert float(dist.sum()) == pytest.approx(1.0)


def test_pst_declines_below_min_frequency():
    model = VmmModel("pst", 3, max_order=1, min_frequency=3)
    for s in [0, 1, 0, 1]:
        model.update(s)
    # longest matched context (1) was seen once: no estimate
    assert model.predict() is None


def test_pst_smoothing_hand_worked():
    # after 0,1,0,1,0,1,0 the context (0) holds {1:3}; gamma = 1/6:
    # normalized distribution (1/6, 3 + 1/6, 1/6) / 3.5
    model = VmmModel("pst", 3, max_order=1, min_frequency=3)
    for s in [0, 1, 0, 1, 0, 1, 0]:
        model.update(s)
    dist = model.predict()
    assert dist[1] == pytest.approx(19 / 21)
    assert dist[0] == pytest.approx(1 / 21)
    assert dist[2] == pytest.approx(1 / 21)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        VmmModel("lz78", 3)


@given(st.lists(st.integers(0, 4), min_size=0, max_size=60), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_ppmc_distribution_sums_to_one(symbols, order):
    model = VmmModel("ppmc", 5, max_order=order)
    for s in symbols:
        model.update(s)
    dist = model.predict()
    assert abs(float(dist.sum()) - 1.0) < 1e-9
    assert np.all(dist > 0.0)


@given(st.lists(st.integers(0, 4), min_size=0, max_size=60))
@settings(max_examples=40, deadline=None)
def test_pst_distribution_sums_to_one_or_declines(symbols):
    model = VmmModel("pst", 5, max_order=3)
    for s in symbols:
        model.update(s)
    dist = model.predict()
    assert dist is None or abs(float(dist.sum()) - 1.0) < 1e-9


def test_ppmc_learns_a_cycle():
    cycle = [3, 1, 4, 1, 5, 2, 0, 3, 2, 1]
    model = VmmModel("ppmc", 6, max_order=8)
    for _ in range(5):
        for s in cycle:
            model.update(s)
    # after five repetitions the next symbol of the cycle dominates
    dist = model.predict()
    assert float(dist[cycle[0]]) > 0.8
    assert int(np.argmax(dist)) == cycle[0]


def test_run_vmm_probabilities_align_with_events():
    # alternating 0, 1, ...: the order-8 context before the 15th event is
    # the first to have been seen three times, the PST's minimum
    events = tuple(Event(5 * (k + 1), k % 2) for k in range(16))
    stream = EventStream(events, 2)
    run = run_vmm(stream, "pst")
    assert len(run.probabilities) == len(run.events) == 16
    # before enough evidence, the PST declines
    assert run.probabilities[0] is None
    # later probabilities are defined and in [0, 1]
    defined = [p for p in run.probabilities if p is not None]
    assert defined and all(0.0 <= p <= 1.0 for p in defined)


def test_run_vmm_skips_dropped_updates():
    base = [Event(5, 0), Event(10, 1), Event(15, 0)]
    with_drop = EventStream(
        tuple(base + [Event(20, 1, "dropped"), Event(25, 0)]), 2
    )
    without = EventStream(tuple(base + [Event(25, 0)]), 2)
    ra = run_vmm(with_drop, "ppmc")
    rb = run_vmm(without, "ppmc")
    # the dropped event is still scored but never consumed, so the
    # probability assigned to the following event matches the drop-free run
    assert ra.probabilities[-1] == rb.probabilities[-1]


def ppmc_reference(model):
    """PPM-C as a numpy blend over the whole alphabet: every matched
    context, longest first, adds its escape-weighted counts to the array,
    then the order -1 uniform adds the weight left over to every entry."""
    ctx = tuple(model.history)
    out = np.zeros(model.num_channels)
    weight = 1.0
    for k in range(len(ctx), -1, -1):
        table = model.counts.get(ctx[len(ctx) - k:])
        if not table:
            continue
        denom = sum(table.values()) + len(table)
        for sym, cnt in table.items():
            out[sym] += weight * cnt / denom
        weight *= len(table) / denom
    out += weight / model.num_channels
    return out


@given(
    st.sampled_from(["ppmc", "pst"]),
    st.lists(st.integers(0, 4), min_size=0, max_size=60),
    st.integers(1, 5),
)
@settings(max_examples=150, deadline=None)
def test_probability_is_the_predicted_entry(kind, symbols, order):
    model = VmmModel(kind, 5, max_order=order)
    for s in symbols:
        model.update(s)
        dist = model.predict()
        if kind == "ppmc":
            assert dist.tolist() == ppmc_reference(model).tolist()  # bit for bit
        for symbol in range(5):
            p = model.probability(symbol)
            if dist is None:
                assert p is None
            else:
                assert type(p) is float and p == float(dist[symbol])
