"""Event model tests: windows, subsequence enumeration, and the reference
tolerance matcher (`epst.acceptance._injective_match`), each checked
against small independent oracles."""

import codecs
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from epst.acceptance import _injective_match
from epst.events import (
    Event,
    EventStream,
    HistoryWindow,
    enumerate_subsequences,
    read_stream,
    sort_key,
    window_of,
)
from epst.infer import context_events


def make_stream(pairs, num_channels=8):
    return EventStream(tuple(Event(t, c) for t, c in pairs), num_channels)


# ---------------------------------------------------------------------------
# windows


def window_oracle(stream, t, m):
    """Brute force: every event with t - m <= time < t, as (delay, channel)."""
    out = set()
    for e in stream.events:
        if t - m <= e.time < t and e.label != "dropped":
            out.add((t - e.time, e.channel))
    return out


def test_window_is_half_open():
    stream = make_stream([(0, 1), (5, 2), (10, 3), (15, 4)])
    w = window_of(stream, 10, 10)
    # the event at t itself is excluded, the one at t - m included
    assert w.entries == ((5, 2), (10, 1))


def test_window_entries_are_canonical_and_distinct():
    w = HistoryWindow([(5, 2), (3, 1), (5, 2), (3, 0)])
    assert w.entries == ((3, 0), (3, 1), (5, 2))
    # the event at the reference time itself is never in its window
    with pytest.raises(ValueError):
        HistoryWindow([(3, 1), (0, 2)])


def test_window_excludes_dropped():
    stream = EventStream(
        (Event(2, 1), Event(5, 2, "dropped"), Event(8, 3)), 8
    )
    assert window_of(stream, 10, 10).entries == ((2, 3), (8, 1))


def context_oracle(stream, t, m):
    """Brute force: every visible event with t - m <= time <= t, as
    (time, channel), in stream order, duplicates kept."""
    return [
        (e.time, e.channel)
        for e in stream.events
        if t - m <= e.time <= t and e.label != "dropped"
    ]


@given(
    st.lists(
        st.tuples(
            st.integers(0, 60),
            st.integers(0, 4),
            st.sampled_from(("signal", "noise", "dropped")),
        ),
        min_size=0,
        max_size=20,
    ),
    st.integers(0, 5),
    st.integers(0, 70),
    st.integers(0, 40),
)
@example([(3, 1, "signal"), (5, 2, "dropped"), (8, 1, "noise")], 2, 8, 5)
def test_window_matches_oracle(triples, duplicates, t, m):
    # repeat some events so the stream holds duplicate (time, channel) pairs
    triples = sorted(triples + triples[:duplicates], key=lambda tr: tr[0])
    stream = EventStream(tuple(Event(*tr) for tr in triples), 5)
    assert window_of(stream, t, m).entries == tuple(sorted(window_oracle(stream, t, m)))
    assert context_events(stream, t, m) == context_oracle(stream, t, m)


@given(
    st.lists(
        st.tuples(st.integers(0, 60), st.integers(0, 4)), min_size=0, max_size=15
    ),
    st.integers(10, 70),
    st.integers(0, 100),
)
def test_window_time_shift_invariance(pairs, t, delta):
    pairs.sort()
    stream = make_stream(pairs, 5)
    assert window_of(stream, t, 10).entries == window_of(stream.shifted(delta), t + delta, 10).entries


# ---------------------------------------------------------------------------
# subsequence enumeration


def enumerate_oracle(entries, min_len, max_len):
    """Independent enumeration: the power set's members of each length."""
    out = set()
    for k in range(min_len, max_len + 1):
        out.update(itertools.combinations(sorted(entries), k))
    return out


def test_enumerate_small_window_exact():
    w = HistoryWindow(frozenset({(3, 0), (5, 1), (9, 0)}))
    subs = enumerate_subsequences(w, 1, 3)
    got = set(subs)
    assert got == enumerate_oracle(w.entries, 1, 3)
    assert len(got) == 7  # 3 singles + 3 pairs + 1 triple


def test_enumerate_canonical_order():
    w = HistoryWindow(frozenset({(2, 1), (2, 0), (4, 1)}))
    subs = enumerate_subsequences(w, 1, 2)
    keys = [sort_key(s) for s in subs]
    assert keys == sorted(keys)


@given(
    st.sets(st.tuples(st.integers(1, 12), st.integers(0, 3)), max_size=7),
    st.integers(1, 3),
    st.integers(1, 4),
)
def test_enumerate_matches_oracle(entries, min_len, extra):
    max_len = min_len + extra - 1
    w = HistoryWindow(frozenset(entries))
    got = set(enumerate_subsequences(w, min_len, max_len))
    assert got == enumerate_oracle(entries, min_len, max_len)


# ---------------------------------------------------------------------------
# tolerance matching


def match_oracle(items, entries, tol):
    """Injective assignment via explicit permutation search."""
    entries = list(entries)
    if len(items) > len(entries):
        return False
    for perm in itertools.permutations(range(len(entries)), len(items)):
        ok = all(
            entries[j][1] == items[i][1]
            and abs(entries[j][0] - items[i][0]) <= tol
            for i, j in enumerate(perm)
        )
        if ok:
            return True
    return False


def test_match_exact_subset():
    entries = [(3, 0), (7, 1), (11, 2)]
    assert _injective_match(((3, 0), (11, 2)), entries, 0)
    assert not _injective_match(((4, 0),), entries, 0)
    assert _injective_match(((4, 0),), entries, 1)


def test_match_requires_injectivity():
    # one window event cannot satisfy two items even when both are in range
    assert not _injective_match(((4, 0), (6, 0)), [(5, 0)], 2)
    assert _injective_match(((4, 0), (6, 0)), [(4, 0), (6, 0)], 2)


def test_match_backtracking_case():
    # with tol 2, item (6,0) may take either entry; taking (4,0) first
    # would strand item (4,0), which only (4,0) can satisfy
    assert _injective_match(((6, 0), (4, 0)), [(4, 0), (7, 0)], 2)


@given(
    st.sets(st.tuples(st.integers(1, 10), st.integers(0, 2)), max_size=6),
    st.lists(st.tuples(st.integers(1, 10), st.integers(0, 2)), min_size=1, max_size=4),
    st.integers(0, 3),
)
@settings(max_examples=200)
def test_match_agrees_with_permutation_oracle(entries, raw_items, tol):
    items = tuple(sorted(set(raw_items)))
    window = HistoryWindow(entries).entries
    assert _injective_match(items, window, tol) == match_oracle(items, entries, tol)


# ---------------------------------------------------------------------------
# stream files


def test_stream_round_trip(tmp_path):
    stream = EventStream(
        (Event(1, 0), Event(4, 2, "noise"), Event(9, 1, "dropped")), 4
    )
    path = tmp_path / "events.csv"
    path.write_text("".join(f"{e.time},{e.channel},{e.label}\n" for e in stream.events))
    back = read_stream(path, 4)
    assert back == stream


def test_stream_reader_defaults_and_comments(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("# header\n3,1\n\n7,0,noise\n")
    stream = read_stream(path, 2)
    assert stream.events == (Event(3, 1), Event(7, 0, "noise"))


def test_stream_reader_skips_byte_order_mark(tmp_path):
    # some editors save UTF-8 with a leading byte-order mark
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(b"3,1\n5,0\n")
    marked.write_bytes(codecs.BOM_UTF8 + b"3,1\n5,0\n")
    assert read_stream(marked, 2) == read_stream(plain, 2)
    # a bad byte's line is counted past the mark
    marked.write_bytes(codecs.BOM_UTF8 + b"3,1\n5,\xff\n")
    with pytest.raises(ValueError) as info:
        read_stream(marked, 2)
    assert str(info.value) == f"{marked}:2: not valid UTF-8"


@pytest.mark.parametrize(
    "bad_line, message",
    [
        (b"7", "expected time,channel[,label]"),
        (b"7,1,noise,extra", "expected time,channel[,label]"),
        (b"7,x", "must be integers"),
        (b"7.5,1", "must be integers"),
        (b"-3,1", "event time must be >= 0"),
        (b"7,-1", "channel must be >= 0"),
        (b"7,2", "channel 2 out of range [0, 2)"),
        (b"7,1,banana", "unknown label 'banana'"),
        (b"2,1", "earlier than the previous event's 3"),
        (b"2,\xff", "not valid UTF-8"),
    ],
)
def test_stream_reader_errors_name_file_and_line(tmp_path, bad_line, message):
    path = tmp_path / "events.csv"
    path.write_bytes(b"# header\n3,1\n\n" + bad_line + b"\n9,0\n")
    with pytest.raises(ValueError) as info:
        read_stream(path, 2)
    assert str(info.value).startswith(f"{path}:4: ")
    assert message in str(info.value)


def test_stream_rejects_unsorted():
    with pytest.raises(ValueError):
        EventStream((Event(5, 0), Event(3, 1)), 2)
