"""Output checks for every pass.

A stream whose sub-seed has reference digests in `reference.json` (the
streams of the default seed, 0) must reproduce every output exactly: the
EPST error-trace CSV, the false-positive CSV, the baselines' trace CSVs and
the final `EpstTree.dump()` of every tree. Any other stream must satisfy
invariants instead. A stream seen before in the same run must repeat its
outputs and its work counters exactly, traced or not.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from epst.events import LABEL_INTERFERENCE, LABEL_SIGNAL, EventStream
from epst.runner import EpstRunResult

from workloads import PassResult, digests

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# evaluation.score_structured starts a new interference burst after this gap
BURST_GAP = 100


def load_reference() -> Dict[str, Dict[str, Dict[str, str]]]:
    """workload -> sub-seed -> output name -> sha256 of the output."""
    if not REFERENCE_PATH.is_file():
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def tree_counters(run: EpstRunResult) -> Dict[str, int]:
    return {
        "tree.nodes": sum(tree.node_count for tree in run.trees),
        "tree.inhibitory_nodes": sum(
            node.is_inhibitory for tree in run.trees for node in tree.iter_nodes()
        ),
    }


def _advancing(events) -> int:
    """Events scored by evaluation._score_stream: each one later than the
    event before it; the first event only starts the sequence."""
    return sum(a.time < b.time for a, b in zip(events, events[1:]))


def scored_events(stream: EventStream, mode: str) -> int:
    """How many events the scoring rule of `mode` scores, counted
    independently of `evaluation`."""
    signal = [e for e in stream.events if e.label == LABEL_SIGNAL]
    total = _advancing(signal)
    if mode == "structured":
        burst: List = []
        for e in (e for e in stream.events if e.label == LABEL_INTERFERENCE):
            if burst and e.time - burst[-1].time > BURST_GAP:
                total += _advancing(burst)
                burst = []
            burst.append(e)
        total += _advancing(burst)
    elif mode != "random_noise":
        raise ValueError(f"no scored-event count for scoring mode {mode!r}")
    return total


def invariant_problems(result: PassResult, mode: str) -> List[str]:
    problems = []
    for matrix in result.run.matrices:
        for channel, row in matrix.estimates.items():
            if min(row) < 0.0 or max(row) > 1.0:
                problems.append(
                    f"estimate outside [0, 1] at trigger {matrix.trigger_time}, channel {channel}"
                )
    for tree in result.run.trees:
        walked = sum(1 for _ in tree.iter_nodes())
        if walked != tree.node_count:
            problems.append(f"tree {tree.g}: node_count {tree.node_count}, iter_nodes {walked}")
    expected = scored_events(result.stream, mode)
    if result.samples != expected:
        problems.append(f"trace holds {result.samples} samples, {expected} events scored")
    return problems


class Checker:
    """Checks the passes of one workload within one run."""

    def __init__(self, workload: str, reference: Dict[str, Dict[str, Dict[str, str]]]):
        self.reference = reference.get(workload, {})
        self.seen: Dict[int, tuple] = {}   # sub-seed -> (digests, counters)

    def check(self, result: PassResult, mode: str, counters: Dict[str, float]) -> List[str]:
        """Every problem found with this pass; empty when it is correct."""
        problems = []
        got = digests(result.outputs)
        expected = self.reference.get(str(result.sub_seed))
        if expected is not None:
            for name in sorted(set(expected) | set(got)):
                if got.get(name) != expected.get(name):
                    problems.append(f"{name} differs from its reference digest")
        else:
            problems.extend(invariant_problems(result, mode))
        problems.extend(self.repeat_problems(result.sub_seed, got, counters))
        return problems

    def repeat_problems(self, sub_seed: int, got: Dict[str, str],
                        counters: Dict[str, float]) -> List[str]:
        """Compare with earlier passes of the same stream; counters that
        only traced passes have are compared once a traced pass was seen."""
        if sub_seed not in self.seen:
            self.seen[sub_seed] = (got, dict(counters))
            return []
        first, known = self.seen[sub_seed]
        problems = [
            f"{name} differs from an earlier pass of the stream"
            for name in sorted(set(first) | set(got))
            if first.get(name) != got.get(name)
        ]
        for name, value in counters.items():
            if name not in known:
                known[name] = value
            elif known[name] != value:
                problems.append(f"{name} is {value}, was {known[name]} on an earlier pass")
        return problems
