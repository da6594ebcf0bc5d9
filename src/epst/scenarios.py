"""Scenario scripts: declarative descriptions of one benchmark run (base
signal plus noise injections plus the scoring rule), loaded from config
files checked into the package. Stream construction is a pure function of
(scenario, seed)."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from importlib import resources
from typing import Dict, List, Optional, Tuple

from . import datagen
from .evaluation import SCORED_LABELS, ErrorTrace, score_epst, score_vmm
from .events import EventStream
from .extensions import VARIANTS
from .runner import EpstRunResult, run_epst, run_vmm
from .tree import EpstParams

Interval = Tuple[int, int]

VMM_ALGOS = ("ppmc", "pst")
# every algorithm a scenario can score: the EPST variants, then the baselines
ALGORITHMS = tuple(VARIANTS) + VMM_ALGOS

SCENARIO_IDS = (
    "structured_same",
    "structured_diff",
    "structured_et0",
    "random_noise",
    "jitter",
    "jitter_dropout",
)

# seed mixing offsets so every noise op gets its own substream
_SEED_PATTERN = 1000
_SEED_NOISE = 777
_SEED_JITTER = 555
_SEED_DROPOUT = 333


@dataclass
class ScenarioScript:
    scenario_id: str
    num_channels: int = datagen.NUM_CHANNELS
    total_events: int = 1000
    bin_width: int = 250
    interference_intervals: List[Interval] = field(default_factory=list)
    interference_pattern_offsets: List[int] = field(default_factory=list)
    noise_intervals: List[Interval] = field(default_factory=list)
    jitter_onset_event: Optional[int] = None
    jitter_max: int = datagen.JITTER_MAX
    dropout_p: float = 0.0
    dropout_onset_time: Optional[int] = None
    scoring_mode: str = "structured"
    scoring_pad: int = 0
    epst_overrides: dict = field(default_factory=dict)

    def build_stream(self, seed: int) -> EventStream:
        stream = datagen.gen_base(seed, self.total_events, self.num_channels)
        for interval, offset in zip(
            self.interference_intervals, self.interference_pattern_offsets
        ):
            stream = datagen.add_structured_interference(
                stream, seed * _SEED_PATTERN + offset, [interval]
            )
        if self.noise_intervals:
            stream = datagen.add_random_events(
                stream, seed * _SEED_PATTERN + _SEED_NOISE, self.noise_intervals
            )
        if self.jitter_onset_event is not None:
            stream = datagen.apply_jitter(
                stream,
                seed * _SEED_PATTERN + _SEED_JITTER,
                self.jitter_onset_event,
                self.jitter_max,
            )
        if self.dropout_onset_time is not None:
            stream = datagen.apply_dropout(
                stream,
                seed * _SEED_PATTERN + _SEED_DROPOUT,
                self.dropout_p,
                self.dropout_onset_time,
            )
        return stream

    def score(
        self, algo: str, stream: EventStream, params: EpstParams
    ) -> Tuple[ErrorTrace, Optional[EpstRunResult]]:
        """One algorithm of ALGORITHMS run over `stream` and scored by this
        scenario's rule: the error trace, and the EPST run (None for a VMM
        baseline). `params` sets the trees of an EPST variant."""
        if algo in VMM_ALGOS:
            trace = score_vmm(run_vmm(stream, algo), self.scoring_mode, self.bin_width)
            return trace, None
        run = run_epst(stream, params, VARIANTS[algo])
        return score_epst(run, stream, self.scoring_mode, self.bin_width, self.scoring_pad), run


_INTERVALS = "comma-separated LO-HI intervals"
# the sections a scenario file may hold; a section's keys are the ones
# _parse_scenario reads from it
_SECTIONS = ("scenario", "interference", "noise", "jitter", "dropout", "scoring", "epst")


def _parse_ints(raw: str) -> List[int]:
    return [int(x) for x in raw.split(",")]


def _parse_intervals(raw: str) -> List[Interval]:
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        lo, hi = part.split("-")
        out.append((int(lo), int(hi)))
    return out


def _scoring_mode(raw: str) -> str:
    if raw not in SCORED_LABELS:
        raise ValueError
    return raw


def load_scenario_file(path) -> ScenarioScript:
    with open(path, encoding="utf-8") as fh:
        return _parse_scenario(fh.read(), str(path))


def _parse_scenario(text: str, source: str) -> ScenarioScript:
    """A scenario config's text; every error is a ValueError that names
    `source`, the section and, where there is one, the key."""
    # no section can be named "", so [DEFAULT] is a section like any other
    # (and unknown), not keys that configparser copies into every section
    cp = configparser.ConfigParser(default_section="")
    cp.read_string(text, source)
    # the keys value() was asked for, per section: every section present
    # asks for all of its keys, so any other key is unknown
    known: Dict[str, List[str]] = {}

    def value(section, key, fallback=None, parse=int, expected="an integer", required=False):
        """The entry parsed by `parse`; `fallback` when it is absent, unless
        it is required."""
        known.setdefault(section, []).append(key)
        raw = cp[section].get(key)
        if raw is None:
            if required:
                raise ValueError(f"{source}: [{section}] {key}: missing")
            return fallback
        try:
            return parse(raw)
        except ValueError:
            raise ValueError(
                f"{source}: [{section}] {key}: expected {expected}, got {raw!r}"
            ) from None

    if not cp.has_section("scenario"):
        raise ValueError(f"{source}: [scenario]: missing section")
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ValueError(
                f"{source}: [{section}]: unknown section; known: {', '.join(_SECTIONS)}"
            )
    script = ScenarioScript(
        scenario_id=value("scenario", "id", parse=str, required=True),
        num_channels=value("scenario", "num_channels", datagen.NUM_CHANNELS),
        total_events=value("scenario", "total_events", 1000),
        bin_width=value("scenario", "bin_width", 250),
    )
    if cp.has_section("interference"):
        script.interference_intervals = value(
            "interference", "intervals", parse=_parse_intervals, expected=_INTERVALS, required=True
        )
        script.interference_pattern_offsets = value(
            "interference", "pattern_seed_offsets", parse=_parse_ints,
            expected="comma-separated integers", required=True,
        )
        intervals = len(script.interference_intervals)
        offsets = len(script.interference_pattern_offsets)
        if intervals != offsets:
            raise ValueError(
                f"{source}: [interference] pattern_seed_offsets: expected {intervals}, "
                f"one per interval, got {offsets}"
            )
    if cp.has_section("noise"):
        script.noise_intervals = value(
            "noise", "intervals", parse=_parse_intervals, expected=_INTERVALS, required=True
        )
    if cp.has_section("jitter"):
        script.jitter_onset_event = value("jitter", "onset_event", required=True)
        script.jitter_max = value("jitter", "max", datagen.JITTER_MAX)
    if cp.has_section("dropout"):
        script.dropout_p = value("dropout", "p", parse=float, expected="a number", required=True)
        script.dropout_onset_time = value("dropout", "onset_time", required=True)
    if cp.has_section("scoring"):
        script.scoring_mode = value(
            "scoring", "mode", "structured", parse=_scoring_mode,
            expected=f"one of {', '.join(SCORED_LABELS)}",
        )
        script.scoring_pad = value("scoring", "pad", 0)
    if cp.has_section("epst"):
        overrides = {f.name: value("epst", f.name) for f in fields(EpstParams)}
        script.epst_overrides = {k: v for k, v in overrides.items() if v is not None}
    for section in cp.sections():
        for key in cp[section]:
            if key not in known[section]:
                raise ValueError(
                    f"{source}: [{section}] {key}: unknown key; "
                    f"known: {', '.join(known[section])}"
                )
    # every default lies in its range, so a value out of range is one the file
    # set; the onsets are None only without their section
    ordered, cycle = "LO-HI intervals with LO < HI", datagen.CYCLE_LENGTH
    for section, key, held, rule in (
        ("scenario", "num_channels", script.num_channels >= 1, ">= 1"),
        # the base signal needs at least one whole cycle
        ("scenario", "total_events", script.total_events >= cycle, f">= {cycle}"),
        ("scenario", "bin_width", script.bin_width >= 1, ">= 1"),
        ("interference", "intervals", all(lo < hi for lo, hi in script.interference_intervals),
         ordered),
        ("noise", "intervals", all(lo < hi for lo, hi in script.noise_intervals), ordered),
        ("jitter", "onset_event", (script.jitter_onset_event or 0) >= 0, ">= 0"),
        ("jitter", "max", script.jitter_max >= 0, ">= 0"),
        ("dropout", "p", 0.0 <= script.dropout_p <= 1.0, "in [0, 1]"),
        ("dropout", "onset_time", (script.dropout_onset_time or 0) >= 0, ">= 0"),
        ("scoring", "pad", script.scoring_pad >= 0, ">= 0"),
    ):
        if not held:
            raw = cp[section][key]
            raise ValueError(f"{source}: [{section}] {key}: must be {rule}, got {raw!r}")
    try:
        EpstParams(**script.epst_overrides)
    except ValueError as exc:
        # every EpstParams message starts with the parameter's name
        key, _, reason = str(exc).partition(" ")
        raise ValueError(f"{source}: [epst] {key}: {reason}") from None
    return script


def load_scenario(scenario_id: str) -> ScenarioScript:
    if scenario_id not in SCENARIO_IDS:
        raise KeyError(f"unknown scenario {scenario_id!r}; known: {SCENARIO_IDS}")
    text = (
        resources.files("epst.scenario_configs")
        .joinpath(f"{scenario_id}.cfg")
        .read_text(encoding="utf-8")
    )
    return _parse_scenario(text, f"{scenario_id}.cfg")
