"""The benchmark's workloads: how each builds its streams from a seed and
what one pass runs.

A run with seed s covers a cycle of `cycle` streams; stream i is built from
the sub-seed s * SUBSEED_STRIDE + i, so runs with different seeds share no
stream. Results that are a pure function of the input (error, false
positives) are averaged over the whole cycle, because single streams differ
widely: on `structured_same` the false-positive count of one stream varies
with a coefficient of variation of about 0.5 across seeds.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from epst import datagen, evaluation, runner
from epst.events import LABEL_DROPPED, EventStream
from epst.extensions import VARIANTS
from epst.runner import SamplingConfig
from epst.scenarios import ScenarioScript, load_scenario
from epst.tree import EpstParams

SUBSEED_STRIDE = 1000
# the dense overlays use seeds sub_seed * 1000 + 901, + 902, ...; the
# scenario's own noise uses + 777 and its interference patterns + 1, + 2
DENSE_OVERLAY_SEED_OFFSET = 900


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    variant: str
    cycle: int                      # streams per run
    baselines: Tuple[str, ...] = ()
    sampling: Optional[Tuple[int, int]] = None   # (sample_size, repeats)
    extra_noise: int = 0            # add_random_events overlays of the noise intervals


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # the paper's headline regime; the only one that runs the VMM baselines
        Workload("sparse_structured", "structured_same", "epst", cycle=16,
                 baselines=("ppmc", "pst")),
        # the only one that runs inhibition, pruning and runner's in-run lookups
        Workload("inhibition_et0", "structured_et0", "epst_ip", cycle=6),
        # downsampled prediction on dense windows; scoring is nearly free here
        Workload("dense_sampled", "random_noise", "epst", cycle=1,
                 sampling=(8, 4), extra_noise=2),
    )
}


def sub_seeds(workload: Workload, seed: int) -> List[int]:
    return [seed * SUBSEED_STRIDE + i for i in range(workload.cycle)]


def build_stream(workload: Workload, scenario: ScenarioScript, sub_seed: int) -> EventStream:
    """The scenario's stream, plus `extra_noise` more copies of its random
    noise overlay, each from its own seed."""
    stream = scenario.build_stream(sub_seed)
    for k in range(1, workload.extra_noise + 1):
        stream = datagen.add_random_events(
            stream,
            sub_seed * 1000 + DENSE_OVERLAY_SEED_OFFSET + k,
            scenario.noise_intervals,
        )
    return stream


@dataclass
class Setup:
    workload: Workload
    scenario: ScenarioScript
    params: EpstParams
    streams: List[Tuple[int, EventStream]]    # (sub-seed, stream)
    build_s: List[float]                      # wall seconds per stream build


def prepare(workload: Workload, seed: int) -> Setup:
    scenario = load_scenario(workload.scenario)
    params = EpstParams(**scenario.epst_overrides)
    streams, build_s = [], []
    for sub_seed in sub_seeds(workload, seed):
        t0 = time.perf_counter()
        streams.append((sub_seed, build_stream(workload, scenario, sub_seed)))
        build_s.append(time.perf_counter() - t0)
    return Setup(workload, scenario, params, streams, build_s)


class NoTracer:
    """Stand-in for `tracing.Tracer` on untraced passes."""

    _span = contextlib.nullcontext()

    def span(self, name):
        return self._span


@dataclass
class PassResult:
    sub_seed: int
    pass_s: float        # runs, baselines, scoring and false-positive counting
    epst_s: float        # run_epst alone
    events: int          # visible events fed to run_epst
    stream: EventStream
    run: runner.EpstRunResult
    trace: evaluation.ErrorTrace
    fp_cells: int
    outputs: Dict[str, str]   # every output the check digests

    @property
    def error_sum(self) -> float:
        return sum(mean * n for _, mean, n in self.trace.bins)

    @property
    def samples(self) -> int:
        return sum(n for _, _, n in self.trace.bins)


def run_pass(setup: Setup, index: int, tracer=NoTracer()) -> PassResult:
    """One pass over stream `index` of the cycle. Only the calls into the
    package are timed; rendering the outputs for the check is not."""
    w, sc = setup.workload, setup.scenario
    sub_seed, stream = setup.streams[index]
    variant = VARIANTS[w.variant]
    sampling = None if w.sampling is None else SamplingConfig(*w.sampling, seed=sub_seed)
    vmm_traces = {}
    gc.collect()
    with tracer.span("pass"):
        t0 = time.perf_counter()
        with tracer.span("runner.run_epst"):
            run = runner.run_epst(stream, setup.params, variant, sampling)
        t1 = time.perf_counter()
        for kind in w.baselines:
            with tracer.span("vmm." + kind):
                vmm_traces[kind] = evaluation.score_vmm(
                    runner.run_vmm(stream, kind), sc.scoring_mode, sc.bin_width
                )
        with tracer.span("evaluation.score"):
            trace = evaluation.score_epst(run, stream, sc.scoring_mode, sc.bin_width, sc.scoring_pad)
        with tracer.span("evaluation.fp_count"):
            fp = evaluation.count_false_positives(run, stream, bin_width=sc.bin_width)
        t2 = time.perf_counter()

    outputs = {
        "trace": trace.to_csv(),
        "fp": evaluation.false_positive_csv(fp, w.variant),
        "trees": "".join(tree.dump() for tree in run.trees),
    }
    for kind, vmm_trace in vmm_traces.items():
        outputs["vmm_" + kind] = vmm_trace.to_csv()
    return PassResult(
        sub_seed=sub_seed,
        pass_s=t2 - t0,
        epst_s=t1 - t0,
        events=sum(1 for e in stream.events if e.label != LABEL_DROPPED),
        stream=stream,
        run=run,
        trace=trace,
        fp_cells=sum(n for _, n in fp),
        outputs=outputs,
    )


def digests(outputs: Dict[str, str]) -> Dict[str, str]:
    return {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in sorted(outputs.items())
    }
