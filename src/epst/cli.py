"""Command line experiment runner.

`epst-bench run` drives one benchmark scenario for a set of algorithms and
seeds, writing aggregated error-trace CSVs, false-positive CSVs and their
chart (for EPST variants when the effective branch extension threshold is
0, as in `structured_et0`), an SVG overlay chart, and optionally the final
tree snapshots. Its settings come from two places only: the flags,
and the scenario (built-in or `--scenario-file`), whose `[epst]` section
sets the tree parameters that `--epst.<field>` flags override.
`epst-bench verify` executes the acceptance checks and prints a pass/fail
table.

Exit codes: 0 success, 1 failed check or run error, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from . import acceptance
from .evaluation import (
    ErrorTrace,
    aggregate_runs,
    count_false_positives,
    false_positive_csv,
    sum_counts,
)
from .scenarios import ALGORITHMS, SCENARIO_IDS, ScenarioScript, load_scenario, load_scenario_file
from .scenarios import SCENARIO_ID_RULE, is_scenario_id
from .svg import fp_chart, trace_chart
from .tree import EpstParams

DEFAULT_ALGOS = ("epst", "ppmc", "pst")
DEFAULT_SEEDS = 25

USAGE_ERROR = 2


@dataclasses.dataclass
class ExperimentConfig:
    scenario: ScenarioScript
    algorithms: Tuple[str, ...]
    seeds: int
    out_dir: str
    dump_tree: bool = False
    param_overrides: Dict[str, int] = dataclasses.field(default_factory=dict)
    workers: int = 1
    # the scenario's [epst] values with param_overrides on top; built here
    # so a bad tree parameter is a usage error before any job starts
    params: EpstParams = dataclasses.field(init=False)

    def __post_init__(self):
        # artifact file names embed the id; a scenario file checks it when
        # loaded, a ScenarioScript built in code is checked here
        sid = self.scenario.scenario_id
        if not is_scenario_id(sid):
            raise ValueError(f"scenario id must be {SCENARIO_ID_RULE}, got {sid!r}")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if not self.algorithms:
            raise ValueError("no algorithms given")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms: {', '.join(unknown)}")
        # a repeated algorithm would run every job and write every file twice
        repeated = sorted({a for a in self.algorithms if self.algorithms.count(a) > 1})
        if repeated:
            raise ValueError(f"repeated algorithms: {', '.join(repeated)}")
        # more worker processes than cores only add start-up cost and memory
        self.workers = max(1, min(self.workers, os.cpu_count() or 1))
        self.params = EpstParams(**{**self.scenario.epst_overrides, **self.param_overrides})


def _run_one(config: ExperimentConfig, algo: str, seed: int):
    """One (algorithm, seed) run; returns picklable scoring artifacts: the
    trace, and for an EPST variant the false-positive counts and the tree
    dump where an artifact is written from them (else None)."""
    scenario = config.scenario
    stream = scenario.build_stream(seed)
    trace, run = scenario.score(algo, stream, config.params)
    fp = dump = None
    if run is not None:
        # one-shot learning (extension threshold 0) is the regime whose
        # false positives are analysed, whatever the scenario is called
        if config.params.branch_extension_threshold == 0:
            fp = count_false_positives(run, stream, bin_width=scenario.bin_width)
        # the dump written is the last seed's
        if config.dump_tree and seed == config.seeds - 1:
            dump = "".join(tree.dump() for tree in run.trees)
    return trace, fp, dump


def run_experiment(config: ExperimentConfig) -> List[str]:
    """Execute the experiment and write artifacts; returns written paths."""
    os.makedirs(config.out_dir, exist_ok=True)
    sid = config.scenario.scenario_id
    jobs = [(algo, seed) for algo in config.algorithms for seed in range(config.seeds)]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(
                pool.map(_run_one, *zip(*[(config, a, s) for a, s in jobs]))
            )
    else:
        results = [_run_one(config, a, s) for a, s in jobs]

    written: List[str] = []

    def write(name: str, text: str) -> None:
        path = os.path.join(config.out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(path)

    traces: Dict[str, ErrorTrace] = {}
    fp_counts: Dict[str, List[Tuple[int, int]]] = {}
    for algo in config.algorithms:
        algo_results = [r for (a, _), r in zip(jobs, results) if a == algo]
        traces[algo] = aggregate_runs([t for t, _, _ in algo_results])
        write(f"trace_{sid}_{algo}.csv", traces[algo].to_csv())
        fps = [fp for _, fp, _ in algo_results if fp is not None]
        if fps:
            fp_counts[algo] = sum_counts(fps)
            write(f"fp_{sid}_{algo}.csv", false_positive_csv(fp_counts[algo], algo))
        dump = algo_results[-1][2]
        if dump is not None:
            write(f"tree_{sid}_{algo}.txt", dump)

    write(f"chart_{sid}.svg", trace_chart(sorted(traces.items()), f"{sid}: mean error over time"))
    if fp_counts:
        write(f"chart_{sid}_fp.svg", fp_chart(sorted(fp_counts.items()), f"{sid}: false positives"))
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epst-bench",
        description="Run event-stream prediction benchmarks or verify the "
        "package's acceptance checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one benchmark scenario")
    runp.add_argument("--scenario", help=f"one of {', '.join(SCENARIO_IDS)}")
    runp.add_argument(
        "--scenario-file", help="path to a scenario config file instead of a built-in id"
    )
    runp.add_argument(
        "--algos",
        default=",".join(DEFAULT_ALGOS),
        help=f"comma separated, non-empty and distinct subset of {', '.join(ALGORITHMS)} "
        f"(default %(default)s)",
    )
    runp.add_argument("--seeds", type=int, default=DEFAULT_SEEDS, help="default %(default)s")
    runp.add_argument("--out", default="out", help="default %(default)s")
    runp.add_argument("--dump-tree", action="store_true")
    runp.add_argument("--workers", type=int, default=1)
    tree = runp.add_argument_group(
        "tree parameters",
        "each overrides the scenario's [epst] value; the default applies where neither sets one",
    )
    for field in dataclasses.fields(EpstParams):
        tree.add_argument(
            f"--epst.{field.name}", type=int, metavar="N", help=f"default {field.default}"
        )

    sub.add_parser("verify", help="run the acceptance checks")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "verify":
        results = acceptance.run_all()
        for result in results:
            print(result.line())
        failed = sum(not r.passed for r in results)
        print(f"{len(results) - failed}/{len(results)} checks passed")
        return 0 if failed == 0 else 1

    if args.scenario_file:
        try:
            scenario = load_scenario_file(args.scenario_file)
        except (OSError, ValueError, configparser.Error) as exc:
            print(f"bad scenario file: {exc}", file=sys.stderr)
            return USAGE_ERROR
    elif args.scenario:
        try:
            scenario = load_scenario(args.scenario)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return USAGE_ERROR
    else:
        print("one of --scenario or --scenario-file is required", file=sys.stderr)
        return USAGE_ERROR

    overrides = {
        f.name: value
        for f in dataclasses.fields(EpstParams)
        if (value := getattr(args, f"epst.{f.name}")) is not None
    }
    try:
        config = ExperimentConfig(
            scenario=scenario,
            algorithms=tuple(a.strip() for a in args.algos.split(",") if a.strip()),
            seeds=args.seeds,
            out_dir=args.out,
            dump_tree=args.dump_tree,
            param_overrides=overrides,
            workers=args.workers,
        )
    except (ValueError, TypeError) as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR

    try:
        written = run_experiment(config)
    except OSError as exc:
        print(f"cannot write artifacts: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
