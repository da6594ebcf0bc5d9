#!/usr/bin/env python3
"""Benchmark of the epst package.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout: it imports the package from
`src/` and fails when that is missing. Each workload runs in a fresh child
process, one at a time, so that its peak RSS is its own; it repeats passes
over the streams of its seed for --seconds (a closed loop, one pass at a
time) and checks the outputs of every pass. Set-up time is the median of
SETUP_PROBES more fresh processes that import the package and build the
run's streams. Without --workload every workload runs in turn.

With --trace 0 the metrics are end to end; with --trace 1 they come from a
traced run, which alternates traced and untraced passes over the first
stream of the seed. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
RUN_LIMIT_S = 170          # a run must end within 180 s
TRACE_MIN_PASSES = 3       # traced, untraced, traced

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "error_mean": "1",
}
# printed beside the end-to-end metrics but not reported: a pure function of
# the seed's streams that varies too much between seeds to be bounded
SHOWN_UNITS = {"fp_cells": "cells"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(("_per_trigger", "_cells")):
        return "cells"
    return "count"


def _import_package():
    """Put the checkout's src/ first on the path and make sure the package
    imported is the one in it."""
    sys.path.insert(0, str(SRC))
    import epst

    if SRC.resolve() not in Path(epst.__file__).resolve().parents:
        raise SystemExit(f"error: imported epst from {epst.__file__}, not from {SRC}")


# -- child processes ---------------------------------------------------------


def setup_probe(workload: str, seed: int) -> int:
    t0 = time.perf_counter()
    _import_package()
    import workloads

    workloads.prepare(workloads.WORKLOADS[workload], seed)
    print(repr(time.perf_counter() - t0))
    return 0


def _report(workload: str, attempt: int, problems) -> None:
    for problem in problems:
        print(f"{workload} pass {attempt}: {problem}", file=sys.stderr)


def _another_pass(workload: str, attempted: int, minimum: int, elapsed: float,
                  costs, seconds: float) -> bool:
    """The closed loop's stop rule: at least `minimum` passes, then another
    only if a typical pass still ends within `seconds`; never one that could
    run past the time limit of the run."""
    if costs and elapsed + 2 * max(costs) > RUN_LIMIT_S:
        print(f"{workload}: stopped after {attempted} passes to end in time", file=sys.stderr)
        return False
    return attempted < minimum or elapsed + statistics.median(costs) <= seconds


def untraced_loop(setup, checker, seconds: float):
    from checks import tree_counters
    from workloads import run_pass

    w = setup.workload
    mode = setup.scenario.scoring_mode
    start = time.perf_counter()
    costs, pass_s, events_per_s, per_stream = [], [], [], {}
    attempted = failed = 0
    while _another_pass(w.name, attempted, w.cycle, time.perf_counter() - start, costs, seconds):
        t0 = time.perf_counter()
        attempted += 1
        try:
            result = run_pass(setup, (attempted - 1) % w.cycle)
            problems = checker.check(result, mode, tree_counters(result.run))
        except Exception:
            result, problems = None, [traceback.format_exc()]
        if problems:
            failed += 1
            _report(w.name, attempted, problems)
        if result is not None:
            pass_s.append(result.pass_s)
            events_per_s.append(result.events / result.epst_s)
            per_stream.setdefault(result.sub_seed, (result.error_sum, result.samples, result.fp_cells))
        del result
        costs.append(time.perf_counter() - t0)

    metrics = {}
    if pass_s:
        metrics = {
            "pass_s": min(pass_s),
            "events_per_s": max(events_per_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error_mean": sum(e for e, _, _ in per_stream.values())
            / max(1, sum(n for _, n, _ in per_stream.values())),
            "fp_cells": statistics.mean(f for _, _, f in per_stream.values()),
        }
    return attempted, failed, metrics


def traced_loop(setup, checker, seconds: float):
    import tracing
    from checks import tree_counters
    from workloads import run_pass

    w = setup.workload
    mode = setup.scenario.scoring_mode
    originals = tracing.targets()
    tracer = tracing.Tracer()
    start = time.perf_counter()
    costs, traced_s, untraced_s, layers = [], [], [], []
    attempted = failed = 0
    while _another_pass(w.name, attempted, TRACE_MIN_PASSES, time.perf_counter() - start,
                        costs, seconds):
        t0 = time.perf_counter()
        attempted += 1
        traced = attempted % 2 == 1
        try:
            if traced:
                tracer.current_pass = attempted
                first = len(tracer.name)
                with tracing.installed(tracer):
                    result = run_pass(setup, 0, tracer)
                layer = tracing.pass_layers(tracer, first)[attempted]
                counters = {name: layer[name] for name in tracing.COUNTERS}
            else:
                result = run_pass(setup, 0)
                counters = {}
            counters.update(tree_counters(result.run))
            problems = checker.check(result, mode, counters)
            restored = tracing.targets()
            problems += [
                f"{owner.__name__}.{attr} was not restored after tracing"
                for (owner, attr), value in originals.items()
                if restored[(owner, attr)] is not value
            ]
        except Exception:
            result, problems = None, [traceback.format_exc()]
        if problems:
            failed += 1
            _report(w.name, attempted, problems)
        if result is not None and traced:
            traced_s.append(result.pass_s)
            layers.append({**layer, **counters, "evaluation.fp_cells": result.fp_cells})
        elif result is not None:
            untraced_s.append(result.pass_s)
        del result
        costs.append(time.perf_counter() - t0)

    metrics = {}
    if layers and untraced_s:
        metrics = {name: statistics.median(d[name] for d in layers) for name in layers[0]}
        metrics["scenarios.build_s"] = statistics.median(setup.build_s)
        metrics["trace.overhead_frac"] = min(traced_s) / min(untraced_s) - 1.0
    return attempted, failed, metrics


def worker(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _import_package()
    import checks
    import workloads

    setup = workloads.prepare(workloads.WORKLOADS[workload], seed)
    checker = checks.Checker(workload, checks.load_reference())
    loop = traced_loop if trace else untraced_loop
    attempted, failed, metrics = loop(setup, checker, seconds)
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def write_reference() -> int:
    """Record the output digests of every stream of the default seed."""
    _import_package()
    import checks
    import workloads

    reference = {}
    for name, w in workloads.WORKLOADS.items():
        setup = workloads.prepare(w, 0)
        reference[name] = {}
        for index, (sub_seed, _) in enumerate(setup.streams):
            result = workloads.run_pass(setup, index)
            problems = checks.invariant_problems(result, setup.scenario.scoring_mode)
            if problems:
                _report(name, index + 1, problems)
                return 1
            reference[name][str(sub_seed)] = workloads.digests(result.outputs)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


# -- parent ------------------------------------------------------------------


def _child(args, deadline: float) -> str:
    """Run this script with `args` in a fresh process; its standard output."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {' '.join(args)} exited with {proc.returncode}")
    return lines[-1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    setup_s = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup_s.append(float(_child(["--role", "setup", *common], deadline)))
    out = json.loads(_child(
        ["--role", "worker", *common, "--seconds", str(seconds), "--trace", str(int(trace))],
        deadline,
    ))
    if setup_s and out["metrics"]:
        out["metrics"]["setup_s"] = statistics.median(setup_s)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload; all of them when omitted")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record the output digests of the default seed and exit")
    ap.add_argument("--role", choices=("setup", "worker"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "epst" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'epst'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.role == "setup":
        return setup_probe(args.workload, args.seed)
    if args.role == "worker":
        return worker(args.workload, args.seed, args.seconds, bool(args.trace))

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if not results[name]["metrics"]:
            print(f"error: {name}: no pass completed", file=sys.stderr)
            return 1

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, out in results.items():
        summary["attempted"] += out["attempted"]
        summary["failed"] += out["failed"]
        for metric, value in sorted(out["metrics"].items()):
            if metric in SHOWN_UNITS:
                print(f"{name:18s} {metric:34s} {value:>16.6f} {SHOWN_UNITS[metric]} (not reported)")
                continue
            unit = END_TO_END_UNITS.get(metric) or layer_unit(metric)
            key = metric if len(names) == 1 else f"{name}.{metric}"
            summary["metrics"][key] = {"value": value, "unit": unit}
            print(f"{name:18s} {metric:34s} {value:>16.6f} {unit}")
        print(f"{name:18s} {'failed_frac':34s} {out['failed'] / out['attempted']:>16.6f} "
              f"({out['failed']} of {out['attempted']} passes)")
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
