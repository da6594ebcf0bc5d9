"""Self-tests of the benchmark: tracing puts back everything it replaced and
changes no output, the checks catch a wrong output, and the benchmark
refuses to run without the package source.

    python3 -m pytest perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOAD = "sparse_structured"


@pytest.fixture(scope="module")
def setup():
    return workloads.prepare(workloads.WORKLOADS[WORKLOAD], 0)


@pytest.fixture(scope="module")
def plain(setup):
    return workloads.run_pass(setup, 0)


def test_tracing_restores_every_attribute():
    before = tracing.targets()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            during = tracing.targets()
            assert all(during[key] is not value for key, value in before.items())
            raise RuntimeError("fails while traced")
    after = tracing.targets()
    assert all(after[key] is value for key, value in before.items())


def test_traced_pass_is_byte_identical(setup, plain):
    tracer = tracing.Tracer()
    tracer.current_pass = 7
    with tracing.installed(tracer):
        traced = workloads.run_pass(setup, 0, tracer)
    assert traced.outputs == plain.outputs

    layers = tracing.pass_layers(tracer)[7]
    assert layers["infer.predict_calls"] == len(plain.run.matrices)
    assert layers["evaluation.score_lookups"] > 0
    assert layers["runner.latest_estimate_calls"] == 0
    assert layers["extensions.record_fp_calls"] == 0
    children = ("infer.predict_s", "tree.step1_s", "tree.step2_s", "runner.latest_estimate_s")
    assert max(children, key=layers.get) == "infer.predict_s"


def test_default_seed_matches_reference(setup, plain):
    checker = checks.Checker(WORKLOAD, checks.load_reference())
    mode = setup.scenario.scoring_mode
    assert checker.check(plain, mode, checks.tree_counters(plain.run)) == []
    assert checks.invariant_problems(plain, mode) == []


def test_checks_flag_wrong_outputs(setup, plain):
    mode = setup.scenario.scoring_mode
    wrong = workloads.PassResult(**{**vars(plain), "outputs": {**plain.outputs, "trees": ""}})
    checker = checks.Checker(WORKLOAD, checks.load_reference())
    assert checker.check(wrong, mode, {}) == ["trees differs from its reference digest"]

    checker = checks.Checker(WORKLOAD, {})
    counters = checks.tree_counters(plain.run)
    assert checker.check(plain, mode, counters) == []
    assert checker.check(wrong, mode, counters) == ["trees differs from an earlier pass of the stream"]
    assert checker.check(plain, mode, {**counters, "tree.nodes": 1}) == [
        f"tree.nodes is 1, was {counters['tree.nodes']} on an earlier pass"
    ]

    row = plain.run.matrices[0].estimates[0]
    saved, row[0] = row[0], 1.5
    try:
        assert checks.invariant_problems(plain, mode)
    finally:
        row[0] = saved


def test_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOAD,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
