"""Command line and scenario loader tests."""

import os

import pytest

from epst import cli
from epst.cli import ExperimentConfig, main, run_experiment
from epst.scenarios import SCENARIO_IDS, load_scenario, load_scenario_file

TINY_SCENARIO = """\
[scenario]
id = tiny
num_channels = 10
total_events = 120
bin_width = 250

[scoring]
mode = structured
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_SCENARIO)
    return str(path)


# ---------------------------------------------------------------------------
# scenario loading


def test_builtin_scenarios_load():
    for sid in SCENARIO_IDS:
        script = load_scenario(sid)
        assert script.scenario_id == sid
        stream = script.build_stream(0)
        assert len(stream) >= script.total_events
        # same seed reproduces the identical stream
        assert script.build_stream(0) == stream
        assert script.build_stream(1) != stream


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        load_scenario("nope")


def test_scenario_file_round_trip(tiny_cfg):
    script = load_scenario_file(tiny_cfg)
    assert script.scenario_id == "tiny"
    assert script.total_events == 120
    assert script.scoring_mode == "structured"
    assert script.interference_intervals == []


def test_scenario_interference_offsets_validated(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        TINY_SCENARIO + "\n[interference]\nintervals = 100-200\npattern_seed_offsets = 1,2\n"
    )
    with pytest.raises(ValueError):
        load_scenario_file(bad)


def test_scenario_missing_required_key_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_SCENARIO + "\n[noise]\n")
    with pytest.raises(KeyError, match="intervals"):
        load_scenario_file(bad)


# ---------------------------------------------------------------------------
# experiment runner


def test_run_experiment_writes_artifacts(tmp_path, tiny_cfg):
    config = ExperimentConfig(
        scenario=load_scenario_file(tiny_cfg),
        algorithms=("epst", "ppmc"),
        seeds=1,
        out_dir=str(tmp_path / "out"),
    )
    written = run_experiment(config)
    names = sorted(os.path.basename(p) for p in written)
    assert names == [
        "chart_tiny.svg",
        "trace_tiny_epst.csv",
        "trace_tiny_ppmc.csv",
    ]
    for p in written:
        assert os.path.exists(p)
    trace = open([p for p in written if p.endswith("epst.csv")][0]).read()
    assert trace.splitlines()[0] == "bin_start,mean_error,samples"
    svg = open([p for p in written if p.endswith(".svg")][0]).read()
    assert svg.startswith("<svg") and "epst" in svg and "ppmc" in svg


def test_run_experiment_reproducible(tmp_path, tiny_cfg):
    outs = []
    for sub in ("a", "b"):
        config = ExperimentConfig(
            scenario=load_scenario_file(tiny_cfg),
            algorithms=("epst",),
            seeds=2,
            out_dir=str(tmp_path / sub),
        )
        paths = run_experiment(config)
        outs.append({os.path.basename(p): open(p).read() for p in paths})
    assert outs[0] == outs[1]


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="the core cap would make both runs serial"
)
def test_worker_pool_writes_the_serial_artifacts(tmp_path, tiny_cfg):
    outs = []
    for workers in (2, 1):
        config = ExperimentConfig(
            scenario=load_scenario_file(tiny_cfg),
            algorithms=("epst", "epst_ip", "ppmc"),
            seeds=2,
            out_dir=str(tmp_path / f"workers{workers}"),
            dump_tree=True,
            workers=workers,
        )
        assert config.workers == workers
        paths = run_experiment(config)
        outs.append({os.path.basename(p): open(p, "rb").read() for p in paths})
    assert outs[0] == outs[1]


def test_config_validation(tiny_cfg):
    script = load_scenario_file(tiny_cfg)
    with pytest.raises(ValueError):
        ExperimentConfig(script, ("epst",), 0, "out")
    with pytest.raises(ValueError):
        ExperimentConfig(script, ("magic",), 1, "out")


def test_workers_capped_at_cpu_count(tiny_cfg):
    script = load_scenario_file(tiny_cfg)
    cores = os.cpu_count() or 1
    assert ExperimentConfig(script, ("epst",), 1, "out", workers=10**6).workers == cores
    assert ExperimentConfig(script, ("epst",), 1, "out", workers=0).workers == 1
    assert ExperimentConfig(script, ("epst",), 1, "out").workers == 1


# ---------------------------------------------------------------------------
# entry point exit codes


def run_main(args):
    return main(args)


def test_main_run_smoke(tmp_path, tiny_cfg, capsys):
    code = run_main(
        [
            "run",
            "--scenario-file",
            tiny_cfg,
            "--algos",
            "epst",
            "--seeds",
            "1",
            "--out",
            str(tmp_path / "out"),
            "--dump-tree",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "trace_tiny_epst.csv" in out
    dump = open(str(tmp_path / "out" / "tree_tiny_epst.txt")).read()
    assert dump.startswith("tree g=0 ")


def test_main_usage_errors(tmp_path, tiny_cfg):
    assert run_main(["run", "--scenario", "nope", "--out", str(tmp_path)]) == 2
    assert run_main(["run", "--out", str(tmp_path)]) == 2
    assert (
        run_main(
            ["run", "--scenario-file", tiny_cfg, "--out", str(tmp_path),
             "--epst.bogus", "3"]
        )
        == 2
    )
    assert (
        run_main(
            ["run", "--scenario-file", tiny_cfg, "--algos", "magic",
             "--out", str(tmp_path)]
        )
        == 2
    )


@pytest.mark.parametrize(
    "algos, problem", [(",", "no algorithms given"), ("epst,epst", "repeated algorithms: epst")]
)
def test_main_empty_or_repeated_algorithm_list_is_usage_error(
    tmp_path, tiny_cfg, capsys, algos, problem
):
    out = tmp_path / "out"
    code = run_main(
        ["run", "--scenario-file", tiny_cfg, "--algos", algos, "--seeds", "1",
         "--out", str(out)]
    )
    assert code == 2
    assert problem in capsys.readouterr().err
    assert not out.exists()  # no job ran


@pytest.mark.parametrize(
    "name, extra",
    [
        ("min_subseq_len", ["--epst.min_subseq_len", "5"]),
        ("history_windw", ["--config", "[epst]\nhistory_windw = 16\n"]),
    ],
)
def test_main_bad_tree_parameter_is_usage_error(tmp_path, tiny_cfg, capsys, name, extra):
    if extra[0] == "--config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(extra[1])
        extra = ["--config", str(cfg)]
    out = tmp_path / "out"
    code = run_main(
        ["run", "--scenario-file", tiny_cfg, "--algos", "epst", "--seeds", "1",
         "--out", str(out), "--workers", "2"] + extra
    )
    assert code == 2
    assert name in capsys.readouterr().err
    assert not out.exists()  # no job ran


@pytest.mark.parametrize("source", ["flag", "config"])
def test_main_non_integer_tree_parameter_is_usage_error(tmp_path, tiny_cfg, capsys, source):
    cfg = tmp_path / "run.cfg"
    if source == "flag":
        extra, where = ["--epst.history_window", "abc"], "--epst.history_window"
    else:
        cfg.write_text("[epst]\nhistory_window = abc\n")
        extra, where = ["--config", str(cfg)], str(cfg)
    out = tmp_path / "out"
    code = run_main(
        ["run", "--scenario-file", tiny_cfg, "--algos", "epst", "--seeds", "1",
         "--out", str(out)] + extra
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "history_window" in err and where in err and "'abc'" in err
    assert not out.exists()  # no job ran


@pytest.mark.parametrize(
    "text, where, problem",
    [
        (TINY_SCENARIO.replace("num_channels = 10", "num_channels = abc"),
         "[scenario] num_channels", "expected an integer, got 'abc'"),
        (TINY_SCENARIO + "\n[epst]\nhistory_window = abc\n",
         "[epst] history_window", "expected an integer, got 'abc'"),
        (TINY_SCENARIO + "\n[noise]\nintervals = 100-abc\n",
         "[noise] intervals", "expected comma-separated LO-HI intervals, got '100-abc'"),
    ],
)
def test_main_bad_scenario_value_is_usage_error(tmp_path, capsys, text, where, problem):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    code = run_main(
        ["run", "--scenario-file", str(path), "--algos", "epst", "--seeds", "1",
         "--out", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err == f"bad scenario file: {path}: {where}: {problem}\n"
    assert not out.exists()  # no job ran


def test_main_param_override_changes_output(tmp_path, tiny_cfg):
    base, wide = {}, {}
    for label, extra in (("base", []), ("wide", ["--epst.matching_interval=3"])):
        out = str(tmp_path / label)
        code = run_main(
            ["run", "--scenario-file", tiny_cfg, "--algos", "epst",
             "--seeds", "1", "--out", out] + extra
        )
        assert code == 0
        (base if label == "base" else wide)["trace"] = open(
            os.path.join(out, "trace_tiny_epst.csv")
        ).read()
    assert base["trace"] != wide["trace"]


def test_main_config_file(tmp_path, tiny_cfg):
    cfg = tmp_path / "run.cfg"
    out_dir = tmp_path / "cfg_out"
    cfg.write_text(f"[run]\nalgos = epst\nseeds = 1\nout = {out_dir}\n")
    code = run_main(["run", "--scenario-file", tiny_cfg, "--config", str(cfg)])
    assert code == 0
    assert os.path.exists(str(out_dir / "trace_tiny_epst.csv"))


def test_main_flag_beats_config_file_beats_default(tmp_path, tiny_cfg, monkeypatch):
    # a flag applies even when it equals its default; a file value applies
    # only when the flag is absent
    configs = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: configs.append(config) or [])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[run]\nalgos = ppmc\nseeds = 1\nout = from_cfg\n")
    base = ["run", "--scenario-file", tiny_cfg]
    assert run_main(base + ["--config", str(cfg), "--seeds", "25", "--out", "out"]) == 0
    assert run_main(base + ["--config", str(cfg), "--algos", "epst"]) == 0
    assert run_main(base) == 0
    got = [(c.algorithms, c.seeds, c.out_dir, c.dump_tree) for c in configs]
    assert got == [
        (("ppmc",), 25, "out", False),
        (("epst",), 1, "from_cfg", False),
        (("epst", "ppmc", "pst"), 25, "out", False),
    ]
