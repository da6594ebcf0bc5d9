"""Command line and scenario loader tests."""

import codecs
import dataclasses
import os
from importlib import resources

import pytest

from epst import acceptance, cli
from epst.cli import ExperimentConfig, main, run_experiment
from epst.scenarios import SCENARIO_IDS, ScenarioScript, load_scenario, load_scenario_file
from epst.tree import EpstParams

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


def test_scenario_file_byte_order_mark_is_skipped(tmp_path, tiny_cfg):
    # some editors save UTF-8 with a leading byte-order mark
    path = tmp_path / "bom.cfg"
    path.write_bytes(codecs.BOM_UTF8 + TINY_SCENARIO.encode())
    assert load_scenario_file(path) == load_scenario_file(tiny_cfg)


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
    with pytest.raises(ValueError, match="intervals"):
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


@pytest.mark.parametrize("sid", ["a/b", "a\\b", ""])
def test_config_rejects_a_scenario_id_no_file_name_can_hold(tmp_path, sid):
    # a ScenarioScript built in code, not loaded from a file
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="scenario id must be a non-empty name"):
        ExperimentConfig(ScenarioScript(sid, total_events=60), ("epst",), 1, str(out))
    assert not out.exists()  # no job ran


@pytest.mark.parametrize(
    "scenario, fp_files",
    [
        # a renamed copy of structured_et0.cfg: extension threshold 0
        (["--scenario-file", "my_et0.cfg"], ["chart_my_et0_fp.svg", "fp_my_et0_epst_i.csv"]),
        (["--scenario", "structured_same"], []),
    ],
)
def test_false_positive_artifacts_follow_the_extension_threshold(
    tmp_path, monkeypatch, capsys, scenario, fp_files
):
    text = resources.files("epst.scenario_configs").joinpath("structured_et0.cfg").read_text()
    (tmp_path / "my_et0.cfg").write_text(text.replace("id = structured_et0", "id = my_et0"))
    monkeypatch.chdir(tmp_path)
    code = run_main(["run", *scenario, "--algos", "epst_i", "--seeds", "1", "--out", "out"])
    assert code == 0
    assert sorted(n for n in os.listdir("out") if "fp" in n) == fp_files


def test_workers_capped_at_cpu_count(tiny_cfg):
    script = load_scenario_file(tiny_cfg)
    cores = os.cpu_count() or 1
    assert ExperimentConfig(script, ("epst",), 1, "out", workers=10**6).workers == cores
    assert ExperimentConfig(script, ("epst",), 1, "out", workers=0).workers == 1
    assert ExperimentConfig(script, ("epst",), 1, "out").workers == 1


# ---------------------------------------------------------------------------
# entry point exit codes


def run_main(args):
    """`main`'s exit code, also where argparse exits on a usage error."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


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
        ("history_windw", ["--epst.history_windw", "16"]),
        # M (--epst.history_window) alone bounds delays and gaps
        ("max_spike_interval", ["--epst.max_spike_interval", "16"]),
        # a pattern counted once predicts
        ("frequency_threshold", ["--epst.frequency_threshold", "2"]),
    ],
)
def test_main_bad_tree_parameter_is_usage_error(tmp_path, tiny_cfg, capsys, name, extra):
    out = tmp_path / "out"
    code = run_main(
        ["run", "--scenario-file", tiny_cfg, "--algos", "epst", "--seeds", "1",
         "--out", str(out), "--workers", "2"] + extra
    )
    assert code == 2
    assert name in capsys.readouterr().err
    assert not out.exists()  # no job ran


@pytest.mark.parametrize(
    "extra",
    [["--epst.history_window", "abc"], ["--epst.history_window=abc"]],
    ids=["flag", "equals"],
)
def test_main_non_integer_tree_parameter_is_usage_error(tmp_path, tiny_cfg, capsys, extra):
    out = tmp_path / "out"
    code = run_main(
        ["run", "--scenario-file", tiny_cfg, "--algos", "epst", "--seeds", "1",
         "--out", str(out)] + extra
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "--epst.history_window" in err and "'abc'" in err
    assert not out.exists()  # no job ran


@pytest.mark.parametrize(
    "text, where, problem",
    [
        (TINY_SCENARIO.replace("num_channels = 10", "num_channels = abc"),
         "[scenario] num_channels", "expected an integer, got 'abc'"),
        (TINY_SCENARIO + "\n[epst]\nhistory_window = abc\n",
         "[epst] history_window", "expected an integer, got 'abc'"),
        (TINY_SCENARIO + "\n[epst]\nhistory_windw = 16\n",
         "[epst] history_windw", "unknown key; known: " + ", ".join(
             f.name for f in dataclasses.fields(EpstParams))),
        (TINY_SCENARIO + "\n[epst]\nmax_spike_interval = 16\n",
         "[epst] max_spike_interval", "unknown key; known: history_window, prediction_window, "
         "min_subseq_len, max_subseq_len, branch_extension_threshold, matching_interval"),
        (TINY_SCENARIO + "\n[epst]\nfrequency_threshold = 2\n",
         "[epst] frequency_threshold", "unknown key; known: history_window, prediction_window, "
         "min_subseq_len, max_subseq_len, branch_extension_threshold, matching_interval"),
        (TINY_SCENARIO + "\n[epst]\nmin_subseq_len = 9\n",
         "[epst] min_subseq_len", "must be <= max_subseq_len"),
        (TINY_SCENARIO + "\n[noise]\nintervals = 100-abc\n",
         "[noise] intervals", "expected comma-separated LO-HI intervals, got '100-abc'"),
        (TINY_SCENARIO.replace("mode = structured", "mode = banana"),
         "[scoring] mode",
         "expected one of structured, random_noise, jitter, jitter_dropout, got 'banana'"),
        (TINY_SCENARIO.replace("[scenario]", "[scenari]"), "[scenario]", "missing section"),
        (TINY_SCENARIO.replace("id = tiny\n", ""), "[scenario] id", "missing"),
        # artifact file names embed the id
        (TINY_SCENARIO.replace("id = tiny", "id = a/b"), "[scenario] id",
         "must be a non-empty name with no path separator, got 'a/b'"),
        (TINY_SCENARIO.replace("id = tiny", "id = a\\b"), "[scenario] id",
         "must be a non-empty name with no path separator, got 'a\\\\b'"),
        (TINY_SCENARIO.replace("id = tiny", "id ="), "[scenario] id",
         "must be a non-empty name with no path separator, got ''"),
        (TINY_SCENARIO + "\n[noise]\n", "[noise] intervals", "missing"),
        (TINY_SCENARIO + "\n[interference]\nintervals = 100-200\npattern_seed_offsets = 1,2\n",
         "[interference] pattern_seed_offsets", "expected 1, one per interval, got 2"),
        (TINY_SCENARIO.replace("total_events = 120", "total_events = 10"),
         "[scenario] total_events", "must be >= 60, got '10'"),
        (TINY_SCENARIO.replace("num_channels = 10", "num_channels = 0"),
         "[scenario] num_channels", "must be >= 1, got '0'"),
        (TINY_SCENARIO.replace("num_channels = 10", "num_channels = -3"),
         "[scenario] num_channels", "must be >= 1, got '-3'"),
        (TINY_SCENARIO.replace("bin_width = 250", "bin_width = 0"),
         "[scenario] bin_width", "must be >= 1, got '0'"),
        (TINY_SCENARIO + "\n[dropout]\np = 1.5\nonset_time = 100\n",
         "[dropout] p", "must be in [0, 1], got '1.5'"),
        (TINY_SCENARIO + "\n[jitter]\nonset_event = 50\nmax = -2\n",
         "[jitter] max", "must be >= 0, got '-2'"),
        (TINY_SCENARIO + "\n[noise]\nintervals = 900-100\n",
         "[noise] intervals", "must be LO-HI intervals with LO < HI, got '900-100'"),
        (TINY_SCENARIO + "\n[interference]\nintervals = 900-100\npattern_seed_offsets = 1\n",
         "[interference] intervals", "must be LO-HI intervals with LO < HI, got '900-100'"),
        # a section without the key that switches it on would do nothing
        (TINY_SCENARIO + "\n[jitter]\nmax = 4\n", "[jitter] onset_event", "missing"),
        (TINY_SCENARIO + "\n[dropout]\np = 0.2\n", "[dropout] onset_time", "missing"),
        (TINY_SCENARIO + "\n[dropout]\nonset_time = 100\n", "[dropout] p", "missing"),
        (TINY_SCENARIO + "\n[jitter]\nonset_event = -1\n",
         "[jitter] onset_event", "must be >= 0, got '-1'"),
        (TINY_SCENARIO + "\n[dropout]\np = 0.2\nonset_time = -5\n",
         "[dropout] onset_time", "must be >= 0, got '-5'"),
        (TINY_SCENARIO + "pad = -3\n", "[scoring] pad", "must be >= 0, got '-3'"),
        # a misspelt key or section would silently leave its value at the default
        (TINY_SCENARIO.replace("total_events", "total_event"), "[scenario] total_event",
         "unknown key; known: id, num_channels, total_events, bin_width"),
        (TINY_SCENARIO.replace("bin_width", "bin_widht"), "[scenario] bin_widht",
         "unknown key; known: id, num_channels, total_events, bin_width"),
        (TINY_SCENARIO + "pda = 3\n", "[scoring] pda", "unknown key; known: mode, pad"),
        (TINY_SCENARIO + "\n[jitter]\nonset_event = 50\nmaximum = 2\n", "[jitter] maximum",
         "unknown key; known: onset_event, max"),
        (TINY_SCENARIO + "\n[bogus]\nx = 1\n", "[bogus]", "unknown section; known: "
         "scenario, interference, noise, jitter, dropout, scoring, epst"),
        # configparser would copy [DEFAULT] keys into every section
        ("[DEFAULT]\nbin_width = 100\n\n[scenario]\nid = tiny\ntotal_events = 120\n",
         "[DEFAULT]", "unknown section; known: "
         "scenario, interference, noise, jitter, dropout, scoring, epst"),
        ("[DEFAULT]\nbin_width = 100\n\n" + TINY_SCENARIO, "[DEFAULT]", "unknown section; "
         "known: scenario, interference, noise, jitter, dropout, scoring, epst"),
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


def test_main_scenario_file_not_utf8_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"[scenario]\nid = bad\n\xff\n")
    out = tmp_path / "out"
    code = run_main(["run", "--scenario-file", str(path), "--seeds", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"bad scenario file: {path}:3: not valid UTF-8\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "entry, where",
    [("history_windw = 16", "[epst] history_windw: unknown key"),
     ("prediction_window = -1", "[epst] prediction_window: must be >= 0")],
)
def test_load_scenario_file_checks_tree_parameters(tmp_path, entry, where):
    # a library caller gets the error at load time, not when it builds EpstParams
    path = tmp_path / "bad.cfg"
    path.write_text(TINY_SCENARIO + f"\n[epst]\n{entry}\n")
    with pytest.raises(ValueError) as info:
        load_scenario_file(path)
    assert str(info.value).startswith(f"{path}: {where}")


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


def test_main_flag_beats_default(tiny_cfg, monkeypatch):
    configs = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: configs.append(config) or [])
    base = ["run", "--scenario-file", tiny_cfg]
    assert run_main(base + ["--algos", "ppmc", "--seeds", "1", "--out", "o", "--dump-tree"]) == 0
    assert run_main(base) == 0
    got = [(c.algorithms, c.seeds, c.out_dir, c.dump_tree) for c in configs]
    assert got == [
        (("ppmc",), 1, "o", True),
        (("epst", "ppmc", "pst"), 25, "out", False),
    ]


@pytest.mark.parametrize("field", dataclasses.fields(EpstParams), ids=lambda f: f.name)
def test_main_tree_parameter_flag_beats_scenario_value(tmp_path, monkeypatch, capsys, field):
    # default + 1 in the file, default + 2 on the flag: both stay valid for
    # every field, min_subseq_len <= max_subseq_len included
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_SCENARIO + f"\n[epst]\n{field.name} = {field.default + 1}\n")
    configs = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: configs.append(config) or [])
    base = ["run", "--scenario-file", str(path)]
    assert run_main(base) == 0
    assert run_main(base + [f"--epst.{field.name}", str(field.default + 2)]) == 0
    got = [getattr(c.params, field.name) for c in configs]
    assert got == [field.default + 1, field.default + 2]
    capsys.readouterr()
    assert run_main(["run", "--help"]) == 0
    assert f"--epst.{field.name} N" in capsys.readouterr().out


@pytest.mark.parametrize(
    "second, code, lines",
    [
        (True, 0, ["[PASS] one: fine", "[PASS] two: fine", "2/2 checks passed"]),
        (False, 1, ["[PASS] one: fine", "[FAIL] two: fine", "1/2 checks passed"]),
    ],
    ids=["all_pass", "one_fails"],
)
def test_main_verify_exit_code(monkeypatch, capsys, second, code, lines):
    checks = (("one", lambda: (True, "fine")), ("two", lambda: (second, "fine")))
    monkeypatch.setattr(acceptance, "CHECKS", checks)
    assert run_main(["verify"]) == code
    assert capsys.readouterr().out.splitlines() == lines


def test_main_verify_has_one_mode():
    assert run_main(["verify", "--quick"]) == 2
