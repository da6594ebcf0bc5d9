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
from .evaluation import DEFAULT_BIN_WIDTH, SCORED_LABELS, ErrorTrace, score_epst, score_vmm
from .events import EventStream, read_text
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
    bin_width: int = DEFAULT_BIN_WIDTH
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


class _OutOfRange(ValueError):
    """A value that parses but lies outside its key's range, stated by the
    message."""


def _at_least(low: int):
    """A parser of integers >= low."""
    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise _OutOfRange(f">= {low}")
        return value
    return parse


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
    if any(lo >= hi for lo, hi in out):
        raise _OutOfRange("LO-HI intervals with LO < HI")
    return out


def _probability(raw: str) -> float:
    p = float(raw)
    if not 0.0 <= p <= 1.0:
        raise _OutOfRange("in [0, 1]")
    return p


SCENARIO_ID_RULE = "a non-empty name with no path separator"


def is_scenario_id(name: str) -> bool:
    """Whether `name` can be a scenario id, which artifact file names embed."""
    return bool(name) and "/" not in name and "\\" not in name


def _name(raw: str) -> str:
    if not is_scenario_id(raw):
        raise _OutOfRange(SCENARIO_ID_RULE)
    return raw


def _scoring_mode(raw: str) -> str:
    if raw not in SCORED_LABELS:
        raise ValueError
    return raw


def load_scenario_file(path) -> ScenarioScript:
    return _parse_scenario(read_text(path), str(path))


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
    # ScenarioScript's arguments: a key the file leaves out keeps its default
    script: Dict[str, object] = {}
    overrides: Dict[str, int] = {}

    def value(section, key, name=None, parse=int, expected="an integer", required=False,
              into=script):
        """Store the entry, parsed and range-checked by `parse`, in `into`
        under `name` (default: the key). An absent entry stores nothing; it
        is an error only if it is required and its section is present."""
        if not cp.has_section(section):
            return
        known.setdefault(section, []).append(key)
        raw = cp[section].get(key)
        if raw is None:
            if required:
                raise ValueError(f"{source}: [{section}] {key}: missing")
            return
        try:
            into[name or key] = parse(raw)
            return
        except _OutOfRange as exc:
            problem = f"must be {exc}"
        except ValueError:
            problem = f"expected {expected}"
        raise ValueError(f"{source}: [{section}] {key}: {problem}, got {raw!r}")

    if not cp.has_section("scenario"):
        raise ValueError(f"{source}: [scenario]: missing section")
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ValueError(
                f"{source}: [{section}]: unknown section; known: {', '.join(_SECTIONS)}"
            )
    value("scenario", "id", "scenario_id", _name, required=True)
    value("scenario", "num_channels", parse=_at_least(1))
    # the base signal needs at least one whole cycle
    value("scenario", "total_events", parse=_at_least(datagen.CYCLE_LENGTH))
    value("scenario", "bin_width", parse=_at_least(1))
    value("interference", "intervals", "interference_intervals", _parse_intervals, _INTERVALS,
          required=True)
    value("interference", "pattern_seed_offsets", "interference_pattern_offsets", _parse_ints,
          "comma-separated integers", required=True)
    intervals = len(script.get("interference_intervals", ()))
    offsets = len(script.get("interference_pattern_offsets", ()))
    if intervals != offsets:
        raise ValueError(
            f"{source}: [interference] pattern_seed_offsets: expected {intervals}, "
            f"one per interval, got {offsets}"
        )
    value("noise", "intervals", "noise_intervals", _parse_intervals, _INTERVALS, required=True)
    value("jitter", "onset_event", "jitter_onset_event", _at_least(0), required=True)
    value("jitter", "max", "jitter_max", _at_least(0))
    value("dropout", "p", "dropout_p", _probability, "a number", required=True)
    value("dropout", "onset_time", "dropout_onset_time", _at_least(0), required=True)
    value("scoring", "mode", "scoring_mode", _scoring_mode,
          f"one of {', '.join(SCORED_LABELS)}")
    value("scoring", "pad", "scoring_pad", _at_least(0))
    for f in fields(EpstParams):
        value("epst", f.name, into=overrides)
    for section in cp.sections():
        for key in cp[section]:
            if key not in known[section]:
                raise ValueError(
                    f"{source}: [{section}] {key}: unknown key; "
                    f"known: {', '.join(known[section])}"
                )
    try:
        EpstParams(**overrides)
    except ValueError as exc:
        # every EpstParams message starts with the parameter's name
        key, _, reason = str(exc).partition(" ")
        raise ValueError(f"{source}: [epst] {key}: {reason}") from None
    return ScenarioScript(**script, epst_overrides=overrides)


def load_scenario(scenario_id: str) -> ScenarioScript:
    if scenario_id not in SCENARIO_IDS:
        raise KeyError(f"unknown scenario {scenario_id!r}; known: {SCENARIO_IDS}")
    text = (
        resources.files("epst.scenario_configs")
        .joinpath(f"{scenario_id}.cfg")
        .read_text(encoding="utf-8")
    )
    return _parse_scenario(text, f"{scenario_id}.cfg")
