"""Spans around the package's calls, recorded from outside the package.

While installed, a `Tracer` replaces module and class attributes of `epst`
with timing wrappers, as each function's caller looks it up, and `remove`
puts the originals back. Every call of a spanned function becomes one span:
name, start, end, parent span, pass id, and a count measured from its
result. `EpstRunResult.latest_estimate`, called hundreds of thousands of
times per pass, is tallied instead: its calls and time are added up per
parent span. Spans stay in memory, in flat arrays, until the tracer is
dropped.

A layer's time is its self time: the span's duration minus the time of the
spans and tallied calls made inside it.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from epst import extensions, runner
from epst.runner import EpstRunResult
from epst.tree import EpstTree


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.value = array("q")
        self.start = array("d")
        self.end = array("d")
        # (parent span, name id) -> [calls, seconds]
        self.tallies: Dict[Tuple[int, int], List] = {}
        self.current_pass = -1
        self._stack = [-1]
        self._wrapped: List[Tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.pass_id.append(self.current_pass)
        self.value.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str,
             measure: Optional[Callable[[object], int]] = None) -> None:
        original = vars(owner)[attr]
        name_id = self._id(name)
        open_, close, value = self._open, self._close, self.value

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                close(idx)
            if measure is not None:
                value[idx] = measure(result)
            return result

        self._wrapped.append((owner, attr, original))
        setattr(owner, attr, spanned)

    def tally(self, owner, attr: str, name: str) -> None:
        original = vars(owner)[attr]
        name_id = self._id(name)
        stack, tallies = self._stack, self.tallies

        @functools.wraps(original)
        def tallied(*args, **kwargs):
            t0 = perf_counter()
            result = original(*args, **kwargs)
            dt = perf_counter() - t0
            acc = tallies.get((stack[-1], name_id))
            if acc is None:
                tallies[(stack[-1], name_id)] = [1, dt]
            else:
                acc[0] += 1
                acc[1] += dt
            return result

        self._wrapped.append((owner, attr, original))
        setattr(owner, attr, tallied)

    def remove(self) -> None:
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)


# (owner, attribute, span name, count taken from the result); the owner is
# the namespace the caller looks the function up in
SPANNED = (
    (runner, "predict_from_context", "infer.predict", lambda m: len(m.chosen)),
    (runner, "sampled_predict", "infer.sampled", None),
    (EpstTree, "step1_denominators", "tree.step1", None),
    (EpstTree, "step2_numerators_and_extend", "tree.step2", None),
    (runner, "record_false_positive", "extensions.record_fp", int),
    (runner, "inhibitory_maintenance", "extensions.maintenance", len),
    (runner, "prune_entropy", "extensions.prune", int),
    (extensions, "enumerate_subsequences", "events.enumerate", len),
)
TALLIED = ((EpstRunResult, "latest_estimate", "latest_estimate"),)


def targets() -> Dict[Tuple[object, str], object]:
    """The current value of every attribute the tracer replaces."""
    return {
        (owner, attr): vars(owner)[attr]
        for owner, attr, *_ in SPANNED + TALLIED
    }


@contextmanager
def installed(tracer: Tracer):
    """Trace the package with `tracer` for the duration of the block."""
    try:
        for owner, attr, name, measure in SPANNED:
            tracer.wrap(owner, attr, name, measure)
        for owner, attr, name in TALLIED:
            tracer.tally(owner, attr, name)
        yield tracer
    finally:
        tracer.remove()


class _Layer:
    __slots__ = ("self_s", "calls", "value", "durations")

    def __init__(self):
        self.self_s = 0.0
        self.calls = 0
        self.value = 0
        self.durations: List[float] = []


def _percentile_ms(durations: List[float], q: int) -> float:
    if len(durations) < 2:
        return 1000.0 * durations[0] if durations else 0.0
    return 1000.0 * statistics.quantiles(durations, n=100)[q - 1]


def pass_layers(tracer: Tracer, first: int = 0) -> Dict[int, Dict[str, float]]:
    """Per-layer metrics of every traced pass whose spans start at index
    `first` or later, keyed by pass id."""
    n = len(tracer.name)
    covered = [0.0] * n
    for i in range(first, n):
        p = tracer.parent[i]
        if p >= 0:
            covered[p] += tracer.end[i] - tracer.start[i]
    lookups: Dict[Tuple[int, str], List] = defaultdict(lambda: [0, 0.0])
    for (p, _), (calls, secs) in tracer.tallies.items():
        if p < first:
            continue
        covered[p] += secs
        acc = lookups[(tracer.pass_id[p], tracer.names[tracer.name[p]])]
        acc[0] += calls
        acc[1] += secs

    layers: Dict[int, Dict[str, _Layer]] = defaultdict(lambda: defaultdict(_Layer))
    for i in range(first, n):
        duration = tracer.end[i] - tracer.start[i]
        layer = layers[tracer.pass_id[i]][tracer.names[tracer.name[i]]]
        layer.self_s += duration - covered[i]
        layer.calls += 1
        layer.value += tracer.value[i]
        layer.durations.append(duration)

    out = {}
    for pass_id, by_name in layers.items():
        def get(name):
            return by_name.get(name, _Layer())

        def lookup(parent):
            return lookups.get((pass_id, parent), (0, 0.0))

        predict, sampled = get("infer.predict"), get("infer.sampled")
        score_lookups, fp_lookups = lookup("evaluation.score"), lookup("evaluation.fp_count")
        out[pass_id] = {
            "runner.self_s": get("runner.run_epst").self_s,
            "runner.latest_estimate_calls": lookup("runner.run_epst")[0],
            "runner.latest_estimate_s": lookup("runner.run_epst")[1],
            "tree.step1_s": get("tree.step1").self_s,
            "tree.step1_calls": get("tree.step1").calls,
            "tree.step2_s": get("tree.step2").self_s,
            "infer.predict_s": predict.self_s,
            "infer.predict_calls": predict.calls,
            "infer.predict_ms_p50": _percentile_ms(predict.durations, 50),
            "infer.predict_ms_p99": _percentile_ms(predict.durations, 99),
            "infer.chosen_cells_per_trigger": predict.value / predict.calls if predict.calls else 0.0,
            "infer.sampled_s": sampled.self_s,
            "infer.sampled_ms_p50": _percentile_ms(sampled.durations, 50),
            "infer.sampled_ms_p99": _percentile_ms(sampled.durations, 99),
            "extensions.record_fp_s": get("extensions.record_fp").self_s,
            "extensions.record_fp_calls": get("extensions.record_fp").calls,
            "extensions.inhibitory_added": get("extensions.record_fp").value,
            "extensions.inhibitory_removed": get("extensions.maintenance").value,
            "extensions.prune_s": get("extensions.prune").self_s,
            "extensions.prune_removed": get("extensions.prune").value,
            "events.enumerate_s": get("events.enumerate").self_s,
            "events.subsequences_enumerated": get("events.enumerate").value,
            "evaluation.score_s": get("evaluation.score").self_s,
            "evaluation.score_lookups": score_lookups[0],
            "evaluation.fp_count_s": get("evaluation.fp_count").self_s,
            "evaluation.fp_lookups": fp_lookups[0],
            "evaluation.lookup_s": score_lookups[1] + fp_lookups[1],
            "vmm.ppmc_s": get("vmm.ppmc").self_s,
            "vmm.pst_s": get("vmm.pst").self_s,
        }
    return out


# counters that must repeat exactly on every traced pass of one stream
COUNTERS = (
    "runner.latest_estimate_calls",
    "tree.step1_calls",
    "infer.predict_calls",
    "extensions.record_fp_calls",
    "extensions.inhibitory_added",
    "extensions.inhibitory_removed",
    "extensions.prune_removed",
    "events.subsequences_enumerated",
    "evaluation.score_lookups",
    "evaluation.fp_lookups",
)
