"""Scoring tests built on hand-constructed prediction grids, so every
expected probability is a short exact calculation."""

import itertools
import math

import numpy as np
import pytest

from epst import evaluation
from epst.datagen import apply_jitter
from epst.events import Event, EventStream
from epst.evaluation import (
    ErrorTrace,
    _window_probability,
    aggregate_runs,
    bin_errors,
    count_false_positives,
    false_positive_csv,
    next_event_probability,
    score_epst,
    score_structured,
    score_vmm,
    sum_counts,
)
from epst.extensions import FALSE_POSITIVE_THRESHOLD, VARIANTS
from epst.infer import PredictionMatrix
from epst.runner import EpstRunResult, VmmRunResult, run_epst, run_vmm
from epst.scenarios import ALGORITHMS, VMM_ALGOS, ScenarioScript
from epst.tree import EpstParams

from test_runner import noisy_stream


def rows_matrix(trigger_time, steps, estimates):
    """The PredictionMatrix whose grid holds `estimates`, channel -> its row
    of M' + 1 probabilities."""
    cells = sorted((n, c, p) for c, row in estimates.items() for n, p in enumerate(row) if p)
    return PredictionMatrix(trigger_time, steps, tuple(cells))


def make_run(cells, trigger=10, steps=28, num_channels=2):
    """EpstRunResult with one trigger whose grid holds `cells`:
    {(channel, absolute step): probability}."""
    estimates = {c: [0.0] * (steps + 1) for c in range(num_channels)}
    for (c, step), p in cells.items():
        estimates[c][step - trigger] = p
    matrix = rows_matrix(trigger, steps, estimates)
    return EpstRunResult([trigger], [matrix], [])


# ---------------------------------------------------------------------------
# binning


def test_bin_errors_hand_case():
    trace = bin_errors([(10, 1.0), (20, 0.0), (300, 0.5)], 250, 600)
    assert trace.bins == [(0, 0.5, 2), (250, 0.5, 1), (500, 0.0, 0)]


def test_mean_over_weights_by_samples():
    trace = ErrorTrace(250, [(0, 0.5, 2), (250, 1.0, 2), (500, 0.0, 0)])
    assert trace.mean_over(0, 500) == 0.75
    assert trace.mean_over(0, 250) == 0.5
    assert trace.mean_over(500, 750) == 0.0  # empty bins contribute nothing


def test_trace_csv_format():
    trace = ErrorTrace(250, [(0, 0.5, 2), (250, 0.125, 1)])
    assert trace.to_csv() == (
        "bin_start,mean_error,samples\n0,0.5,2\n250,0.125,1\n"
    )


def test_aggregate_runs_weighted():
    a = ErrorTrace(250, [(0, 0.5, 2)])
    b = ErrorTrace(250, [(0, 1.0, 6)])
    agg = aggregate_runs([a, b])
    assert agg.bins == [(0, 0.875, 8)]
    with pytest.raises(ValueError):
        aggregate_runs([a, ErrorTrace(100, [(0, 0.5, 1)])])
    with pytest.raises(ValueError):
        aggregate_runs([])


# ---------------------------------------------------------------------------
# the next-event probability mapping


def fake_estimate(cells):
    return lambda c, step, before: cells.get((c, step), 0.0)


def test_next_event_probability_hand_case():
    cells = {(0, 5): 0.4, (1, 6): 0.6}
    est = fake_estimate(cells)
    # plain ratio over (4, 6]
    assert next_event_probability(est, 2, 0, 4, 6, 99) == pytest.approx(0.4)
    # masking removes the competing cell
    assert next_event_probability(est, 2, 0, 4, 6, 99, masks={(1, 6)}) == 1.0
    # an allowed set keeps only listed cells
    assert next_event_probability(est, 2, 0, 4, 6, 99, allowed={(0, 5)}) == 1.0
    # empty window: probability 0
    assert next_event_probability(est, 2, 0, 6, 8, 99) == 0.0
    # bounds are (lo, hi]: the cell at step 4 is outside (4, 6]
    assert next_event_probability(fake_estimate({(0, 4): 1.0}), 2, 0, 4, 6, 99) == 0.0
    assert next_event_probability(fake_estimate({(0, 6): 1.0}), 2, 0, 4, 6, 99) == 1.0


def test_next_event_probability_channel_sum_is_one():
    rng = np.random.default_rng(0)
    cells = {
        (c, s): float(rng.random())
        for c in range(4)
        for s in range(10, 20)
        if rng.random() < 0.5
    }
    est = fake_estimate(cells)
    total = sum(
        next_event_probability(est, 4, c, 10, 20, 99) for c in range(4)
    )
    assert total == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# latest_estimate semantics


def test_latest_estimate():
    run = make_run({(0, 13): 0.7})
    m2 = rows_matrix(20, 28, {0: [0.0, 0.2] + [0.0] * 27})
    run.trigger_times.append(20)
    run.matrices.append(m2)

    assert run.latest_estimate(0, 13, 100) == 0.7   # from the trigger at 10
    assert run.latest_estimate(0, 21, 100) == 0.2   # from the trigger at 20
    # before_time excludes the trigger at 20, falling back to 10 (n = 11)
    assert run.latest_estimate(0, 21, 20) == 0.0
    assert run.latest_estimate(0, 5, 100) == 0.0    # before any trigger
    assert run.latest_estimate(0, 60, 100) == 0.0   # beyond the grid


# ---------------------------------------------------------------------------
# scenario scorers on a hand-built grid


def structured_fixture():
    stream = EventStream(
        (
            Event(12, 0, "signal"),
            Event(14, 1, "interference"),
            Event(15, 0, "signal"),
            Event(18, 1, "interference"),
        ),
        2,
    )
    run = make_run({(0, 15): 0.5, (0, 17): 0.5, (1, 14): 0.25, (1, 18): 0.25})
    return run, stream


def test_score_structured_hand_case():
    run, stream = structured_fixture()
    traces = score_structured(run, stream)
    # signal event at 15: the interference cell (1,14) is masked, leaving
    # only its own mass -> probability 1, error 0
    assert traces["signal"].bins == [(0, 0.0, 1)]
    # interference event at 18 (t_prev = burst start 14): signal cells
    # masked; (0,17) still competes, p = 0.25 / (0.25 + 0.5) = 1/3
    assert traces["interference"].bins == [(0, pytest.approx(2 / 3), 1)]
    assert traces["combined"].bins == [(0, pytest.approx(1 / 3), 2)]


def test_interference_bursts_split_on_gaps():
    # two bursts more than 100 steps apart; each burst's first event only
    # initializes t_prev, so exactly two of the four events are scored
    events = [
        Event(14, 1, "interference"),
        Event(18, 1, "interference"),
        Event(300, 1, "interference"),
        Event(305, 1, "interference"),
    ]
    stream = EventStream(tuple(events), 2)
    run = make_run({})
    traces = score_structured(run, stream)
    assert sum(n for _, _, n in traces["interference"].bins) == 2


def test_score_random_noise_ignores_noise_cells():
    stream = EventStream(
        (Event(12, 0, "signal"), Event(13, 1, "noise"), Event(15, 0, "signal")), 2
    )
    # a confident junk prediction sits exactly on the noise event
    run = make_run({(0, 15): 0.5, (1, 13): 0.9})
    trace = score_epst(run, stream, "random_noise")
    assert trace.bins == [(0, 0.0, 1)]
    # the pad applies to the jitter modes only
    assert score_epst(run, stream, "random_noise", pad=3).bins == trace.bins


def test_score_jitter_pad_window():
    stream = EventStream((Event(12, 0), Event(15, 0)), 2)
    # the prediction landed 2 steps late; pad 2 stretches the window and
    # the allowed cells far enough to credit it
    run = make_run({(0, 17): 0.5})
    assert score_epst(run, stream, "jitter", pad=2).bins == [(0, 0.0, 1)]
    assert score_epst(run, stream, "jitter", pad=0).bins == [(0, 1.0, 1)]


def test_score_dropout_scores_dropped_events():
    stream = EventStream(
        (Event(12, 0, "signal"), Event(15, 0, "dropped"), Event(20, 0, "signal")), 2
    )
    run = make_run({(0, 15): 0.5, (0, 20): 0.5})
    trace = score_epst(run, stream, "jitter_dropout")
    # both the dropped event and the following signal event score perfectly
    assert trace.bins == [(0, 0.0, 2)]


def test_score_epst_mode_dispatch():
    run, stream = structured_fixture()
    with pytest.raises(ValueError):
        score_epst(run, stream, "banana")


# ---------------------------------------------------------------------------
# VMM scoring


def test_score_vmm_hand_case():
    events = (
        Event(10, 0, "signal"),
        Event(20, 1, "noise"),
        Event(30, 1, "interference"),
    )
    run = VmmRunResult(events, [0.75, 0.5, None])
    structured = score_vmm(run, "structured")
    assert structured.bins == [(0, pytest.approx(0.625), 2)]  # 0.25 and 1.0
    noise_mode = score_vmm(run, "random_noise")
    assert noise_mode.bins == [(0, 0.25, 1)]
    with pytest.raises(ValueError):
        score_vmm(run, "banana")


# ---------------------------------------------------------------------------
# false positives


def test_count_false_positives_hand_case():
    stream = EventStream((Event(5, 0, "signal"), Event(260, 1, "signal")), 2)
    # confident predictions at (1, 12) and, exactly at the threshold, at
    # (1, 20): no true event there -> two counts in bin 0; a cell just below
    # the threshold and the true cells themselves never count
    run = make_run(
        {(1, 12): 0.9, (1, 20): 0.5, (0, 30): math.nextafter(0.5, 0.0), (0, 5): 0.9},
        trigger=5,
    )
    counts = count_false_positives(run, stream)
    assert counts == [(0, 2), (250, 0)]


def test_sum_counts_hand_case():
    # a bin one run lacks keeps the others' count, a shared bin adds up,
    # and the sums come in bin order
    runs = [[(250, 1), (500, 2)], [(0, 3), (250, 4)], [(750, 0)]]
    assert sum_counts(runs) == [(0, 3), (250, 5), (500, 2), (750, 0)]
    assert sum_counts([]) == []


def test_false_positive_csv_format():
    assert false_positive_csv([(0, 3), (250, 0)], "epst_i") == (
        "bin_start,count,algorithm\n0,3,epst_i\n250,0,epst_i\n"
    )


# ---------------------------------------------------------------------------
# the per-trigger cell walk against the per-cell reference

SCORING_MODES = ("structured", "random_noise", "jitter", "jitter_dropout")
LABELS = ("signal", "interference", "noise", "dropped")


def random_case(seed, num_channels=3, steps=6):
    """A run of eight triggers with sparse random grids over steps 0..6 (so
    some grids end before the next trigger, others overlap it; one row may
    be missing) and a stream of every label over the same steps."""
    rng = np.random.default_rng(seed)
    times = sorted(int(t) for t in rng.choice(60, size=8, replace=False))
    matrices = []
    for t in times:
        estimates = {}
        for c in range(num_channels):
            if rng.random() < 0.1:
                continue
            row = rng.random(steps + 1) * (rng.random(steps + 1) < 0.4)
            estimates[c] = [float(v) for v in row]
        matrices.append(rows_matrix(t, steps, estimates))
    run = EpstRunResult(times, matrices, [])
    events = sorted(
        (int(rng.integers(0, 70)), int(rng.integers(0, num_channels)), LABELS[int(rng.integers(4))])
        for _ in range(30)
    )
    stream = EventStream(tuple(Event(*e) for e in events), num_channels)
    return run, stream


def per_cell_cells(run, num_channels, lo, hi):
    return [
        (step, c, v)
        for step in range(lo + 1, hi + 1)
        for c in range(num_channels)
        if (v := run.latest_estimate(c, step, math.inf))
    ]


def per_cell_probability(run, *args, **kwargs):
    return next_event_probability(run.latest_estimate, *args, **kwargs)


def per_cell_false_positives(run, stream, bin_width=250):
    true_cells = {
        (e.channel, e.time) for e in stream.events if e.label in ("signal", "interference", "dropped")
    }
    span = stream.events[-1].time
    counts = {start: 0 for start in range(0, span + 1, bin_width)}
    for step in range(span + 1):
        for c in range(stream.num_channels):
            p = run.latest_estimate(c, step, step + 0.5)
            if (c, step) not in true_cells and p >= FALSE_POSITIVE_THRESHOLD:
                counts[(step // bin_width) * bin_width] += 1
    return sorted(counts.items())


def assert_scoring_matches_per_cell(run, stream, monkeypatch, bin_width=250):
    for mode in SCORING_MODES:
        for pad in (0, 4):
            fast = score_epst(run, stream, mode, bin_width, pad)
            with monkeypatch.context() as m:
                m.setattr(evaluation, "_window_probability", per_cell_probability)
                slow = score_epst(run, stream, mode, bin_width, pad)
            assert fast == slow, (mode, pad)


@pytest.mark.parametrize("seed", range(6))
def test_cell_walk_matches_per_cell_on_hand_built_runs(seed, monkeypatch):
    run, stream = random_case(seed)
    for lo in range(-1, 72, 3):
        for hi in range(lo, 75, 4):
            assert list(run.cells_between(lo, hi)) == per_cell_cells(run, 3, lo, hi)

    rng = np.random.default_rng(100 + seed)
    cells = [(c, s) for c in range(3) for s in range(75)]
    for _ in range(200):
        t_lo = int(rng.integers(-1, 65))
        t_hi = t_lo + int(rng.integers(1, 12))
        # at or before t_hi, so the last steps of the window are before-capped
        before = t_hi - int(rng.integers(0, 5)) - 0.5 * int(rng.integers(2))
        masks = {cells[i] for i in rng.choice(len(cells), size=20)}
        allowed = None
        if rng.random() < 0.5:
            allowed = {cells[i] for i in rng.choice(len(cells), size=60)}
        args = (3, int(rng.integers(3)), t_lo, t_hi, before, masks, allowed)
        assert _window_probability(run, *args) == per_cell_probability(run, *args)

    assert_scoring_matches_per_cell(run, stream, monkeypatch, bin_width=10)
    assert count_false_positives(run, stream, bin_width=10) == per_cell_false_positives(
        run, stream, bin_width=10
    )


def test_cell_walk_matches_per_cell_on_a_real_run(monkeypatch):
    stream = noisy_stream()
    run = run_epst(stream, EpstParams(branch_extension_threshold=0), VARIANTS["epst_ip"])
    span = stream.events[-1].time
    assert list(run.cells_between(-1, span)) == per_cell_cells(run, stream.num_channels, -1, span)
    assert_scoring_matches_per_cell(run, stream, monkeypatch)
    counts = count_false_positives(run, stream)
    assert sum(n for _, n in counts) > 100
    assert counts == per_cell_false_positives(run, stream)


def test_before_capped_tail_looks_up_only_the_rows_of_its_trigger(monkeypatch):
    """Ten channels, but each trigger holds rows for three of them: the
    pad + 1 before-capped steps of a pad-shifted window, with every cell
    counted, look up at most those three channels each, and the window's
    probability still matches the per-cell definition."""
    pad, rows, num_channels = 4, 3, 10
    rng = np.random.default_rng(7)
    times = list(range(10, 130, 8))
    matrices = []
    for t in times:
        channels = rng.choice(num_channels, size=rows, replace=False)
        estimates = {int(c): [float(v) for v in rng.random(13)] for c in channels}
        matrices.append(rows_matrix(t, 12, estimates))
    run = EpstRunResult(times, matrices, [])

    lookups = [0]
    latest_estimate = EpstRunResult.latest_estimate

    def counted(self, *args):
        lookups[0] += 1
        return latest_estimate(self, *args)

    for t_prev, t in zip(times, times[1:]):
        args = (num_channels, int(rng.integers(num_channels)), t_prev + pad, t + pad, t)
        with monkeypatch.context() as m:
            m.setattr(EpstRunResult, "latest_estimate", counted)
            lookups[0] = 0
            p = _window_probability(run, *args)
        assert 0 < lookups[0] <= (pad + 1) * rows
        assert p == per_cell_probability(run, *args)

    events = tuple(Event(t, int(rng.integers(num_channels))) for t in times)
    assert_scoring_matches_per_cell(run, EventStream(events, num_channels), monkeypatch, 10)


# ---------------------------------------------------------------------------
# one run scored by a scenario's rule


# every algorithm once, the scoring modes taken in turn
@pytest.mark.parametrize("algo, mode", zip(ALGORITHMS, itertools.cycle(SCORING_MODES)))
def test_scenario_score_is_the_hand_composition(algo, mode):
    """ScenarioScript.score runs the named algorithm and scores it with the
    scenario's mode, bin width and pad, as the two calls would by hand.
    The stream is jittered so that the pad changes the jitter scores."""
    stream = apply_jitter(noisy_stream(), 7, 50, 2)
    scenario = ScenarioScript("hand", scoring_mode=mode, bin_width=100, scoring_pad=2)
    params = EpstParams()
    trace, run = scenario.score(algo, stream, params)
    if algo in VMM_ALGOS:
        assert run is None
        want = score_vmm(run_vmm(stream, algo), mode, 100)
    else:
        hand = run_epst(stream, params, VARIANTS[algo])
        assert [t.dump() for t in run.trees] == [t.dump() for t in hand.trees]
        want = score_epst(hand, stream, mode, 100, 2)
    assert (trace.bin_width, trace.bins) == (want.bin_width, want.bins)
