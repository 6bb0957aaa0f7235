"""Confidence-weighted fusion of multimodal trajectory predictions.

Fuses the most-likely trajectories of several pre-trained motion
predictors into a single output with a variance-based confidence, and
evaluates both overall and long-tail (Top-K%) ADE/FDE, including
cross-model overlap of the hardest samples.
"""

from .core import (
    Mode,
    ModelOutput,
    Sample,
    Trajectory,
    ade,
    fde,
    select_most_likely,
)
from .errors import (
    HorizonMismatch,
    InvalidInput,
    NumericalError,
    ParseError,
    TrajfuseError,
    ZeroConfidence,
    ZeroConfidenceWarning,
)
from .fusion import (
    DEFAULT_TAU,
    STRATEGIES,
    CovarianceSummary,
    FusedPrediction,
    Weights,
    ensemble_confidence,
    ensemble_covariance,
    flag_low_confidence,
    fuse_simple,
    fuse_threshold,
    fuse_weighted,
    normalize_confidences,
    uniform_weights,
    weighted_average,
)
from .metrics import (
    DEFAULT_K_LIST,
    DEFAULT_OVERLAP_K,
    ErrorLedger,
    OverlapReport,
    TopKResult,
    build_ledger,
    ensemble_method_id,
    overlap_report,
    summary_table,
    top_k_error,
)
from .synth import (
    ExperimentResult,
    PredictorSpec,
    Scenario,
    ScenarioConfig,
    maneuver_trajectory,
    pinned_config,
    pinned_predictors,
    run_predictor,
    synth_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "Trajectory", "Mode", "ModelOutput", "Sample",
    "select_most_likely", "ade", "fde",
    "TrajfuseError", "InvalidInput", "HorizonMismatch", "ZeroConfidence",
    "NumericalError", "ParseError", "ZeroConfidenceWarning",
    "STRATEGIES", "DEFAULT_TAU", "Weights", "CovarianceSummary", "FusedPrediction",
    "normalize_confidences", "uniform_weights", "weighted_average",
    "ensemble_covariance", "ensemble_confidence",
    "fuse_weighted", "fuse_simple", "fuse_threshold", "flag_low_confidence",
    "DEFAULT_K_LIST", "DEFAULT_OVERLAP_K", "ErrorLedger", "TopKResult",
    "OverlapReport", "ensemble_method_id", "build_ledger", "top_k_error",
    "overlap_report", "summary_table",
    "ScenarioConfig", "PredictorSpec", "Scenario", "ExperimentResult",
    "maneuver_trajectory", "run_predictor",
    "synth_experiment", "pinned_config", "pinned_predictors",
    "__version__",
]
