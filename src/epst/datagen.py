"""Synthetic benchmark generation: a seeded cyclic base signal plus four
noise transformations (structured interference, random additive events,
time jitter, dropout). Every event carries a provenance label so the
scoring rules can tell signal, interference, noise, and dropped events
apart. All generators are pure functions of their seeds and parameters.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from .events import (
    Event,
    EventStream,
    LABEL_DROPPED,
    LABEL_INTERFERENCE,
    LABEL_NOISE,
    LABEL_SIGNAL,
)

NUM_CHANNELS = 30
CYCLE_LENGTH = 60
INTERFERENCE_CYCLE_LENGTH = 20
DELAY_LO = 8
DELAY_HI = 14
NOISE_EVENTS_PER_1000_STEPS = 100
JITTER_MAX = 4
DROPOUT_P = 0.2

Interval = Tuple[int, int]


def _cycle(rng: np.random.Generator, length: int, num_channels: int):
    channels = rng.integers(0, num_channels, size=length)
    delays = rng.integers(DELAY_LO, DELAY_HI + 1, size=length)
    return channels, delays


def gen_base(
    seed: int,
    total_events: int,
    num_channels: int = NUM_CHANNELS,
    cycle_length: int = CYCLE_LENGTH,
) -> EventStream:
    """Cyclic base signal: one `cycle_length`-event cycle drawn per seed
    (channels uniform, inter-event delays uniform in [8, 14]), repeated
    verbatim until `total_events`."""
    if total_events < cycle_length:
        raise ValueError(f"total_events must be >= {cycle_length}")
    rng = np.random.default_rng(seed)
    channels, delays = _cycle(rng, cycle_length, num_channels)
    events = []
    t = 0
    for k in range(total_events):
        t += int(delays[k % cycle_length])
        events.append(Event(t, int(channels[k % cycle_length]), LABEL_SIGNAL))
    return EventStream(tuple(events), num_channels)


def _merge(stream: EventStream, extra: Iterable[Event]) -> EventStream:
    merged = sorted(
        list(stream.events) + list(extra), key=lambda e: (e.time, e.channel, e.label)
    )
    return EventStream(tuple(merged), stream.num_channels)


def add_structured_interference(
    stream: EventStream,
    pattern_seed: int,
    intervals: Sequence[Interval],
) -> EventStream:
    """Overlay an independently generated cyclic pattern inside each
    interval. The same pattern_seed reproduces the same overlay pattern in
    every interval."""
    rng = np.random.default_rng(pattern_seed)
    channels, delays = _cycle(rng, INTERFERENCE_CYCLE_LENGTH, stream.num_channels)
    extra = []
    for start, end in intervals:
        t = start
        k = 0
        while True:
            t += int(delays[k % len(delays)])
            if t >= end:
                break
            extra.append(Event(t, int(channels[k % len(channels)]), LABEL_INTERFERENCE))
            k += 1
    return _merge(stream, extra)


def add_random_events(
    stream: EventStream, seed: int, intervals: Sequence[Interval]
) -> EventStream:
    """Uniform additive noise: 100 events per 1000 time steps in each
    interval, uniform over time and all channels."""
    rng = np.random.default_rng(seed)
    extra = []
    for start, end in intervals:
        count = round(NOISE_EVENTS_PER_1000_STEPS * (end - start) / 1000)
        times = rng.integers(start, end, size=count)
        channels = rng.integers(0, stream.num_channels, size=count)
        extra.extend(
            Event(int(t), int(c), LABEL_NOISE) for t, c in zip(times, channels)
        )
    return _merge(stream, extra)


def apply_jitter(
    stream: EventStream, seed: int, onset: int, jitter_max: int = JITTER_MAX
) -> EventStream:
    """Offset the time of every signal/interference event with index >=
    `onset` by a uniform integer in [-jitter_max, jitter_max]; times are
    clamped at 0 and the stream re-sorted (order changes are the point)."""
    rng = np.random.default_rng(seed)
    out = []
    for idx, e in enumerate(stream.events):
        if idx >= onset and e.label in (LABEL_SIGNAL, LABEL_INTERFERENCE):
            t = max(0, e.time + int(rng.integers(-jitter_max, jitter_max + 1)))
            out.append(Event(t, e.channel, e.label))
        else:
            out.append(e)
    out.sort(key=lambda e: (e.time, e.channel, e.label))
    return EventStream(tuple(out), stream.num_channels)


def apply_dropout(
    stream: EventStream, seed: int, p: float = DROPOUT_P, onset_time: int = 0
) -> EventStream:
    """Relabel each event with time >= onset_time as dropped with
    probability p. Dropped events stay in the stream for scoring but are
    hidden from the algorithms."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = np.random.default_rng(seed)
    out = []
    for e in stream.events:
        if e.time >= onset_time and rng.random() < p:
            out.append(Event(e.time, e.channel, LABEL_DROPPED))
        else:
            out.append(e)
    return EventStream(tuple(out), stream.num_channels)
