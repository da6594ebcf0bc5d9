"""Event-based prediction suffix trees for online multi-channel event
stream prediction, with order-based VMM baselines and a synthetic noisy
benchmark suite.

The names below are the ones the README, the demos and the command line
use; everything else is reached through its module (`epst.events`,
`epst.infer`, `epst.evaluation`, ...)."""

from .evaluation import score_epst, score_vmm
from .events import Event, EventStream
from .extensions import VARIANTS, record_false_positive
from .infer import predict_from_context, predict_window
from .runner import run_epst, run_vmm
from .scenarios import SCENARIO_IDS, load_scenario, load_scenario_file
from .tree import EpstParams, EpstTree, learn_stream

__version__ = "0.1.0"

__all__ = [
    "Event",
    "EventStream",
    "EpstParams",
    "EpstTree",
    "learn_stream",
    "predict_window",
    "predict_from_context",
    "record_false_positive",
    "VARIANTS",
    "run_epst",
    "run_vmm",
    "score_epst",
    "score_vmm",
    "SCENARIO_IDS",
    "load_scenario",
    "load_scenario_file",
]
