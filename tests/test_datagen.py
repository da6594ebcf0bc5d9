"""Benchmark generator tests: periodicity, noise envelopes, determinism."""

import pytest

from epst.datagen import (
    add_random_events,
    add_structured_interference,
    apply_dropout,
    apply_jitter,
    gen_base,
)


def test_base_is_periodic():
    stream = gen_base(seed=1, total_events=240, num_channels=10)
    evs = stream.events
    assert len(evs) == 240
    period = evs[60].time - evs[0].time
    for k in range(len(evs) - 60):
        assert evs[k + 60].channel == evs[k].channel
        assert evs[k + 60].time - evs[k].time == period
    delays = [evs[0].time] + [b.time - a.time for a, b in zip(evs, evs[1:])]
    assert all(8 <= d <= 14 for d in delays)
    assert all(e.label == "signal" for e in evs)


def test_base_determinism():
    assert gen_base(2, 120, 10) == gen_base(2, 120, 10)
    assert gen_base(2, 120, 10) != gen_base(3, 120, 10)


def test_base_requires_full_cycle():
    with pytest.raises(ValueError):
        gen_base(0, 30, 10)


def test_interference_intervals_and_repetition():
    base = gen_base(0, 300, 10)
    stream = add_structured_interference(base, 42, [(500, 800), (1500, 1800)])
    added = [e for e in stream.events if e.label == "interference"]
    assert added
    assert all(500 < e.time < 800 or 1500 < e.time < 1800 for e in added)
    first = [(e.time - 500, e.channel) for e in added if e.time < 800]
    second = [(e.time - 1500, e.channel) for e in added if e.time > 1500]
    # the same pattern seed replays the identical relative pattern
    assert first == second
    # signal events untouched
    assert [e for e in stream.events if e.label == "signal"] == list(base.events)


def test_interference_different_seeds_differ():
    base = gen_base(0, 300, 10)
    a = add_structured_interference(base, 1, [(500, 800)])
    b = add_structured_interference(base, 2, [(500, 800)])
    assert a != b


def test_random_events_rate_and_bounds():
    base = gen_base(0, 300, 10)
    stream = add_random_events(base, 7, [(1000, 1500), (2000, 2250)])
    noise = [e for e in stream.events if e.label == "noise"]
    in_first = [e for e in noise if 1000 <= e.time < 1500]
    in_second = [e for e in noise if 2000 <= e.time < 2250]
    assert len(in_first) == 50  # 100 per 1000 steps
    assert len(in_second) == 25
    assert len(noise) == 75
    assert all(0 <= e.channel < 10 for e in noise)


def test_jitter_bounds_and_onset():
    base = gen_base(4, 400, 10)
    jit = apply_jitter(base, 9, onset=100, jitter_max=4)
    orig = {id(e): e for e in base.events}
    # compare by original index via channel+label multisets per region
    before = sorted((e.time, e.channel) for e in base.events[:100])
    after_j = sorted((e.time, e.channel) for e in jit.events)
    # the first 100 original events are untouched
    for te in before:
        assert te in after_j
    # every event moved by at most 4
    orig_sorted = sorted((e.time, e.channel) for e in base.events)
    matched = _greedy_match(orig_sorted, after_j)
    assert matched


def _greedy_match(orig, jittered):
    """Channel-wise multiset check: same channels, every time within 4."""
    from collections import defaultdict

    o, j = defaultdict(list), defaultdict(list)
    for t, c in orig:
        o[c].append(t)
    for t, c in jittered:
        j[c].append(t)
    if {c: len(v) for c, v in o.items()} != {c: len(v) for c, v in j.items()}:
        return False
    for c in o:
        for a, b in zip(sorted(o[c]), sorted(j[c])):
            if abs(a - b) > 4:
                return False
    return True


def test_jitter_leaves_noise_alone():
    base = add_random_events(gen_base(0, 200, 10), 3, [(200, 1200)])
    jit = apply_jitter(base, 5, onset=0)
    assert sorted(
        (e.time, e.channel) for e in base.events if e.label == "noise"
    ) == sorted((e.time, e.channel) for e in jit.events if e.label == "noise")


def test_dropout_relabels_only():
    base = gen_base(1, 500, 10)
    dropped = apply_dropout(base, 11, p=0.2, onset_time=2000)
    assert len(dropped.events) == len(base.events)
    for a, b in zip(base.events, dropped.events):
        assert (a.time, a.channel) == (b.time, b.channel)
        if b.label == "dropped":
            assert b.time >= 2000
    n_after = sum(1 for e in base.events if e.time >= 2000)
    n_dropped = sum(1 for e in dropped.events if e.label == "dropped")
    # binomial(n, 0.2) stays well inside [0.1, 0.3] at this n
    assert 0.1 * n_after < n_dropped < 0.3 * n_after
    assert dropped.visible() == tuple(
        e for e in dropped.events if e.label != "dropped"
    )


def test_dropout_extremes_and_validation():
    base = gen_base(1, 100, 10)
    assert apply_dropout(base, 0, p=0.0) == base
    all_gone = apply_dropout(base, 0, p=1.0)
    assert all(e.label == "dropped" for e in all_gone.events)
    assert all_gone.visible() == ()
    with pytest.raises(ValueError):
        apply_dropout(base, 0, p=1.5)


def test_generators_are_pure():
    base = gen_base(5, 200, 10)
    ops = lambda s: apply_dropout(
        apply_jitter(add_random_events(s, 1, [(100, 600)]), 2, onset=50), 3, 0.2, 500
    )
    assert ops(base) == ops(base)
