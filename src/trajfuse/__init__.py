"""Confidence-weighted fusion of multimodal trajectory predictions.

Fuses the most-likely trajectories of several pre-trained motion
predictors into a single output with a variance-based confidence, and
evaluates both overall and long-tail (Top-K%) ADE/FDE, including
cross-model overlap of the hardest samples.

Importing the package imports none of its modules.  Each public name is
imported from its home module on first access (PEP 562), so a command
pays only for the modules it runs: ``trajfuse --help`` loads none but
``cli`` and ``errors``, and no dump command loads ``synth`` or numpy.
The constants the command-line parser needs live here, and ``fusion``,
``metrics`` and ``synth`` import them from here, so that building the
parser imports nothing else.
"""

from __future__ import annotations

__version__ = "0.1.0"

STRATEGIES = ("weighted", "simple", "threshold")

DEFAULT_TAU = 0.75

DEFAULT_K_LIST = (1, 2, 3, 4, 5, 10)

DEFAULT_OVERLAP_K = 10.0

PINNED_PRIMARY = "const_turn_rate"

# The home module of each public name not defined above.
_HOMES = {
    **dict.fromkeys(("Trajectory", "Mode", "ModelOutput", "Sample",
                     "select_most_likely", "ade", "fde"), "core"),
    **dict.fromkeys(("TrajfuseError", "InvalidInput", "HorizonMismatch", "NumericalError",
                     "ParseError", "ZeroConfidenceWarning"), "errors"),
    **dict.fromkeys(("Weights", "CovarianceSummary", "FusedPrediction",
                     "fuse_weighted", "fuse_simple", "fuse_threshold", "flag_low_confidence"),
                    "fusion"),
    **dict.fromkeys(("ErrorLedger", "TopKResult", "OverlapReport", "ensemble_method_id",
                     "build_ledger", "top_k_error", "overlap_report", "summary_table"),
                    "metrics"),
    **dict.fromkeys(("ScenarioConfig", "PredictorSpec", "Scenario", "ExperimentResult",
                     "run_predictor",
                     "synth_experiment", "pinned_config", "pinned_predictors"), "synth"),
}

__all__ = ["STRATEGIES", "DEFAULT_TAU", "DEFAULT_K_LIST", "DEFAULT_OVERLAP_K", *_HOMES,
           "__version__"]


def __getattr__(name: str):
    # Any other name, a submodule's included, raises AttributeError, so
    # that ``from trajfuse import io`` falls through to importing it.
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
