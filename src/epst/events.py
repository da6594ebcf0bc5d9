"""Event model: timestamped multi-channel events, history windows, and
subsequence decomposition.

Time is discrete (one integer step). A history window at reference time t
holds (delay, channel) pairs for events in [t - M, t); the event at t
itself is excluded. The tree that learns from a window bounds it by its
own M, so M bounds every stored delay and every gap between consecutive
items. Subsequences are ordered subsets of a window with non-decreasing
delays; two simultaneous items are ordered by channel.
"""

from __future__ import annotations

import bisect
import codecs
import io
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Dict, List, Tuple

LABEL_SIGNAL = "signal"
LABEL_INTERFERENCE = "interference"
LABEL_NOISE = "noise"
LABEL_DROPPED = "dropped"

_LABELS = (LABEL_SIGNAL, LABEL_INTERFERENCE, LABEL_NOISE, LABEL_DROPPED)


@dataclass(frozen=True)
class Event:
    """One discrete event: (time, channel) plus a provenance label.

    Dropped events stay in the stream for scoring but are hidden from
    the algorithms.
    """

    time: int
    channel: int
    label: str = LABEL_SIGNAL

    def __post_init__(self):
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if self.channel < 0:
            raise ValueError(f"channel must be >= 0, got {self.channel}")
        if self.label not in _LABELS:
            raise ValueError(f"unknown label {self.label!r}")


@dataclass(frozen=True)
class EventStream:
    """Time-sorted sequence of events over `num_channels` channels.

    Ties in time are legal (simultaneous events across channels).
    """

    events: Tuple[Event, ...]
    num_channels: int

    def __post_init__(self):
        evs = tuple(self.events)
        object.__setattr__(self, "events", evs)
        for a, b in zip(evs, evs[1:]):
            if b.time < a.time:
                raise ValueError("events must be sorted by non-decreasing time")
        for e in evs:
            if e.channel >= self.num_channels:
                raise ValueError(
                    f"channel {e.channel} out of range [0, {self.num_channels})"
                )

    def __len__(self):
        return len(self.events)

    @cached_property
    def _visible_index(self) -> Tuple[Tuple[Event, ...], Tuple[int, ...]]:
        visible = tuple(e for e in self.events if e.label != LABEL_DROPPED)
        return visible, tuple(e.time for e in visible)

    def visible(self) -> Tuple[Event, ...]:
        """Events the algorithms are allowed to see (drops hidden), in time
        order. Built once, on first use."""
        return self._visible_index[0]

    def visible_between(self, lo: int, hi: int) -> Tuple[Event, ...]:
        """Visible events with lo <= time < hi, in stream order."""
        visible, times = self._visible_index
        return visible[bisect.bisect_left(times, lo):bisect.bisect_left(times, hi)]

    def shifted(self, delta: int) -> "EventStream":
        if delta < 0:
            raise ValueError("shift must be >= 0")
        return EventStream(
            tuple(Event(e.time + delta, e.channel, e.label) for e in self.events),
            self.num_channels,
        )


# A window entry and a subsequence item are both (delay, channel) pairs.
Item = Tuple[int, int]


@dataclass(frozen=True)
class HistoryWindow:
    """Relative view of the recent past: the distinct (delay, channel)
    pairs with delay >= 1, given in any order and stored in canonical
    order, so that consumers need not sort them; the last is the oldest."""

    entries: Tuple[Item, ...]

    def __post_init__(self):
        entries = tuple(sorted(set(self.entries)))
        object.__setattr__(self, "entries", entries)
        if entries and entries[0][0] < 1:
            raise ValueError(f"delay {entries[0][0]} is below 1")

    @cached_property
    def occupancy(self) -> Dict[int, int]:
        """Channel -> bitmask of its delays (bit wd for the entry (wd,
        channel)), as the tree's matcher reads it. Built on first use."""
        occ: Dict[int, int] = {}
        for wd, wc in self.entries:
            occ[wc] = occ.get(wc, 0) | 1 << wd
        return occ


# a subsequence is a non-empty tuple of items in canonical order
Subsequence = Tuple[Item, ...]


def sort_key(items: Subsequence) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Canonical order: lexicographic on (delay list, channel list), a
    non-empty subsequence transposed."""
    return tuple(zip(*items))


def window_of(stream: EventStream, t: int, m: int) -> HistoryWindow:
    """History window at reference time t: events with time in [t-M, t),
    dropped events excluded."""
    if t < 0:
        raise ValueError("reference time must be >= 0")
    entries = {(t - e.time, e.channel) for e in stream.visible_between(t - m, t)}
    return HistoryWindow(entries)


def enumerate_subsequences(
    window: HistoryWindow, min_len: int, max_len: int
) -> List[Subsequence]:
    """Every subset of the window with min_len <= size <= max_len, in
    canonical order."""
    if not (1 <= min_len <= max_len):
        raise ValueError("need 1 <= min_len <= max_len")
    entries = window.entries
    out = []
    for k in range(min_len, min(max_len, len(entries)) + 1):
        out.extend(combinations(entries, k))
    out.sort(key=sort_key)
    return out


def read_text(path) -> str:
    """A UTF-8 text file's contents, less one leading byte-order mark. A
    byte that does not decode raises ValueError naming the file and the
    1-based line that holds it."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: not valid UTF-8") from None


def read_stream(path, num_channels: int) -> EventStream:
    """Event stream file: one `time,channel[,label]` per line, UTF-8. A bad
    line raises ValueError naming the file and its 1-based line number."""
    events: List[Event] = []
    # newline=None splits lines as a file opened in text mode does
    for lineno, raw in enumerate(io.StringIO(read_text(path), newline=None), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            event = _parse_event(line, num_channels)
            if events and event.time < events[-1].time:
                raise ValueError(
                    f"time {event.time} is earlier than the previous event's {events[-1].time}"
                )
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        events.append(event)
    return EventStream(tuple(events), num_channels)


def _parse_event(line: str, num_channels: int) -> Event:
    parts = line.split(",")
    if len(parts) not in (2, 3):
        raise ValueError(f"expected time,channel[,label], got {line!r}")
    try:
        time, channel = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"time and channel must be integers, got {line!r}") from None
    label = parts[2].strip() if len(parts) == 3 else LABEL_SIGNAL
    event = Event(time, channel, label)
    if channel >= num_channels:
        raise ValueError(f"channel {channel} out of range [0, {num_channels})")
    return event
