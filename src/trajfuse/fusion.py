"""Ensemble strategies over each member's most-likely trajectory.

The weighted strategy normalizes the members' mode confidences to sum to
one, takes the per-timestep convex combination of their trajectories,
and summarizes their disagreement as a 2x2 position covariance whose
determinant maps to a bounded ensemble confidence 1/(1+det).  The simple
strategy is the same pipeline with uniform weights; the threshold
strategy passes a trusted primary model through verbatim when its own
confidence clears a bar and defers to the weighted strategy otherwise.

Everything here is pure and stateless.  ``decide`` is the one strategy
dispatch; it stops short of the covariance, which ``Decision.records``
measures.  ``decide(...).records()`` is the only way a fused record is
built: ``fuse_weighted``, ``fuse_simple`` and ``fuse_threshold`` are
that call for one strategy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

from .core import MostLikely, Sample, Trajectory, select_most_likely
from .errors import (
    HorizonMismatch,
    InvalidInput,
    NumericalError,
    ZeroConfidence,
    ZeroConfidenceWarning,
)

__all__ = [
    "STRATEGIES",
    "DEFAULT_TAU",
    "Weights",
    "CovarianceSummary",
    "FusedPrediction",
    "normalize_confidences",
    "uniform_weights",
    "weighted_average",
    "aggregate_covariance_over_horizon",
    "ensemble_covariance",
    "ensemble_confidence",
    "fuse_weighted",
    "fuse_simple",
    "fuse_threshold",
    "Decision",
    "decide",
    "flag_low_confidence",
]

STRATEGIES = ("weighted", "simple", "threshold")

DEFAULT_TAU = 0.75

_WEIGHT_SUM_TOL = 1e-9
_PSD_TOL = 1e-9
_SYMMETRY_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Weights:
    """Normalized per-model weights, ordered to match the member list."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if len(self.entries) < 1:
            raise InvalidInput("weights must have at least one entry")
        seen = set()
        for model_id, w in self.entries:
            if model_id in seen:
                raise InvalidInput(f"duplicate model_id '{model_id}' in weights")
            seen.add(model_id)
            if not (math.isfinite(w) and w >= 0):
                raise InvalidInput(f"weight for '{model_id}' must be finite and >= 0, got {w}")
        try:
            total = math.fsum(w for _, w in self.entries)
        except OverflowError:  # finite weights whose sum passes the float range
            total = math.inf
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise InvalidInput(f"weights must sum to 1 within {_WEIGHT_SUM_TOL}, got {total!r}")

    @property
    def model_ids(self) -> tuple[str, ...]:
        return tuple(model_id for model_id, _ in self.entries)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.entries)

    def as_dict(self) -> dict[str, float]:
        return dict(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True, slots=True)
class CovarianceSummary:
    """A 2x2 position covariance (m^2) with its determinant (m^4).

    The determinant is clamped to 0 when floating-point noise drives it
    slightly negative; a determinant or eigenvalue negative beyond a
    scale-relative tolerance (1e-9 at unit scale) means the matrix was
    not a covariance at all and raises NumericalError.
    """

    xx: float
    xy: float
    yy: float
    det: float = field(init=False)

    def __post_init__(self):
        for name, v in (("xx", self.xx), ("xy", self.xy), ("yy", self.yy)):
            if not math.isfinite(v):
                raise InvalidInput(f"covariance entry {name} must be finite, got {v}")
        # Cancellation error in the moments grows with their magnitude, so
        # the PSD checks scale their tolerance with the matrix.
        scale = max(abs(self.xx), abs(self.yy), abs(self.xy), 1.0)
        # Smallest eigenvalue of a symmetric 2x2 in closed form.
        half_trace = (self.xx + self.yy) / 2.0
        radius = math.hypot((self.xx - self.yy) / 2.0, self.xy)
        if half_trace - radius < -_PSD_TOL * scale:
            raise NumericalError(
                f"covariance is not positive semidefinite (min eigenvalue {half_trace - radius!r})"
            )
        raw_det = self.xx * self.yy - self.xy * self.xy
        if not math.isfinite(raw_det):
            raise NumericalError(f"covariance determinant overflows ({raw_det!r})")
        if raw_det < -_PSD_TOL * scale * scale:
            raise NumericalError(f"covariance determinant {raw_det!r} below tolerance")
        object.__setattr__(self, "det", max(raw_det, 0.0))

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[float]]) -> "CovarianceSummary":
        """Build from a 2x2 row-major matrix, symmetrizing within tolerance."""
        if len(matrix) != 2 or any(len(row) != 2 for row in matrix):
            raise InvalidInput("covariance matrix must be 2x2")
        if abs(matrix[0][1] - matrix[1][0]) > _SYMMETRY_TOL:
            raise NumericalError(
                f"covariance matrix is asymmetric: {matrix[0][1]!r} vs {matrix[1][0]!r}"
            )
        return cls(xx=float(matrix[0][0]),
                   xy=(float(matrix[0][1]) + float(matrix[1][0])) / 2.0,
                   yy=float(matrix[1][1]))

    @property
    def matrix(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((self.xx, self.xy), (self.xy, self.yy))


@dataclass(frozen=True, slots=True)
class FusedPrediction:
    """The ensemble's trajectory for one sample plus its agreement summary."""

    sample_id: str
    trajectory: Trajectory
    weights: Weights
    covariance: CovarianceSummary
    confidence: float
    strategy: str
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvalidInput(f"unknown strategy '{self.strategy}'")
        expected = 1.0 / (1.0 + self.covariance.det)
        if abs(self.confidence - expected) > 1e-12:
            raise InvalidInput(
                f"confidence {self.confidence!r} does not match determinant {self.covariance.det!r}"
            )


def normalize_confidences(
    confidences: Sequence[float],
    model_ids: Sequence[str] | None = None,
) -> Weights:
    """Scale nonnegative confidences so they sum to one.

    Raises ZeroConfidence when every entry is zero (callers decide the
    fallback) and InvalidInput for negative or non-finite entries.  When
    ``model_ids`` is omitted, entries are keyed m0, m1, ...
    """
    if len(confidences) < 1:
        raise InvalidInput("confidences must have at least one entry")
    for c in confidences:
        if not math.isfinite(c):
            raise InvalidInput(f"confidence must be finite, got {c}")
        if c < 0:
            raise InvalidInput(f"confidence must be >= 0, got {c}")
    if model_ids is None:
        model_ids = tuple(f"m{i}" for i in range(len(confidences)))
    elif len(model_ids) != len(confidences):
        raise InvalidInput(
            f"{len(model_ids)} model_ids for {len(confidences)} confidences"
        )
    try:
        total = math.fsum(confidences)
    except OverflowError:
        raise NumericalError("the sum of member confidences overflows the float range") from None
    if total == 0.0:
        raise ZeroConfidence("all member confidences are zero")
    return Weights(tuple((mid, c / total) for mid, c in zip(model_ids, confidences)))


def uniform_weights(model_ids: Sequence[str]) -> Weights:
    if len(model_ids) < 1:
        raise InvalidInput("model_ids must be nonempty")
    w = 1.0 / len(model_ids)
    return Weights(tuple((mid, w) for mid in model_ids))


def _check_aligned(trajectories: Sequence[Trajectory], weights: Weights) -> None:
    if len(trajectories) != len(weights):
        raise InvalidInput(
            f"{len(weights)} weights for {len(trajectories)} trajectories"
        )
    horizon = trajectories[0].horizon
    dt = trajectories[0].dt
    for traj in trajectories[1:]:
        if traj.horizon != horizon:
            raise HorizonMismatch(
                f"member horizons differ ({traj.horizon} vs {horizon})"
            )
        if traj.dt != dt:
            raise InvalidInput(f"member dt values differ ({traj.dt} vs {dt})")


def weighted_average(trajectories: Sequence[Trajectory], weights: Weights) -> Trajectory:
    """Per-timestep, per-coordinate convex combination of the trajectories.

    The i-th weight applies to the i-th trajectory; its model_id key is
    carried along for reporting but not consulted here.
    """
    if len(trajectories) < 1:
        raise InvalidInput("need at least one trajectory")
    _check_aligned(trajectories, weights)
    values = weights.values
    coords = []
    for step in zip(*(traj.coords for traj in trajectories)):
        x = 0.0
        y = 0.0
        for (px, py), w in zip(step, values):
            x += w * px
            y += w * py
        coords.append((x, y))
    return Trajectory._of(tuple(coords), trajectories[0].dt)


def aggregate_covariance_over_horizon(
    per_step: Sequence[tuple[float, float, float]],
) -> tuple[float, float, float]:
    """Collapse per-timestep (xx, xy, yy) second moments into one matrix.

    This is the single place that fixes how disagreement is aggregated
    over the horizon: the mean over timesteps, weighting each step
    equally.  Swap this function to try alternatives (final step only,
    sum, ...) without touching the rest of the pipeline.
    """
    n = len(per_step)
    if n < 1:
        raise InvalidInput("need at least one timestep")
    try:
        return (
            math.fsum(m[0] for m in per_step) / n,
            math.fsum(m[1] for m in per_step) / n,
            math.fsum(m[2] for m in per_step) / n,
        )
    except (OverflowError, ValueError):  # a sum past the float range, or inf + -inf
        raise NumericalError("member spread overflows the float range") from None


def ensemble_covariance(
    trajectories: Sequence[Trajectory],
    weights: Weights,
    fused: Trajectory,
) -> CovarianceSummary:
    """Weighted scatter of member positions around the fused trajectory.

    Per timestep, sums w_i * (p_i - fused)(p_i - fused)^T over members;
    the per-step matrices are then aggregated over the horizon.
    """
    if len(trajectories) < 1:
        raise InvalidInput("need at least one trajectory")
    _check_aligned(trajectories, weights)
    if fused.horizon != trajectories[0].horizon:
        raise HorizonMismatch(
            f"fused horizon {fused.horizon} != member horizon {trajectories[0].horizon}"
        )
    values = weights.values
    per_step = []
    for (fx, fy), *step in zip(fused.coords, *(traj.coords for traj in trajectories)):
        xx = 0.0
        xy = 0.0
        yy = 0.0
        for (px, py), w in zip(step, values):
            dx = px - fx
            dy = py - fy
            xx += w * dx * dx
            xy += w * dx * dy
            yy += w * dy * dy
        per_step.append((xx, xy, yy))
    xx, xy, yy = aggregate_covariance_over_horizon(per_step)
    return CovarianceSummary(xx=xx, xy=xy, yy=yy)


def ensemble_confidence(cov: CovarianceSummary) -> float:
    """Map disagreement to (0, 1]: full agreement gives 1, growing scatter decays toward 0."""
    return 1.0 / (1.0 + cov.det)


@dataclass(frozen=True, slots=True)
class _Blend:
    """One weighted average of the members, before its spread is measured."""

    weights: Weights  # in sample order, as reported
    canonical: Weights  # in model_id order, as summed
    trajectory: Trajectory
    notes: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Decision:
    """One sample's fusion decided, with the spread not yet measured.

    ``members`` follow sample order; ``trajectories`` holds each requested
    strategy's fused trajectory, in the order requested.  ``records()``
    measures the spread and builds the ``FusedPrediction`` per strategy;
    scoring needs only the trajectories.
    """

    sample_id: str
    members: list[MostLikely]
    trajectories: dict[str, Trajectory]
    passed_through: bool  # the threshold strategy took the primary's trajectory
    _ordered: list[Trajectory]  # member trajectories in model_id order
    _blends: dict[str, _Blend]

    def records(self) -> dict[str, FusedPrediction]:
        built = {}
        for strategy, blend in self._blends.items():
            cov = ensemble_covariance(self._ordered, blend.canonical, blend.trajectory)
            built[strategy] = FusedPrediction(
                sample_id=self.sample_id,
                trajectory=blend.trajectory,
                weights=blend.weights,
                covariance=cov,
                confidence=ensemble_confidence(cov),
                strategy=strategy,
                notes=blend.notes,
            )
        if "threshold" in self.trajectories:
            built["threshold"] = built["weighted"]
            if self.passed_through:
                built["threshold"] = replace(built["weighted"],
                                             trajectory=self.trajectories["threshold"],
                                             strategy="threshold")
        return {strategy: built[strategy] for strategy in self.trajectories}


def decide(
    sample: Sample,
    strategies: Sequence[str],
    primary_model_id: str | None = None,
    tau: float = DEFAULT_TAU,
) -> Decision:
    """Apply the strategy rules to one sample, short of measuring the spread.

    Each member's most-likely mode is selected once and the weighted
    average runs at most once; "threshold" starts from that result.
    Members are summed in model_id order, so the result cannot depend on
    the order they arrive in; the reported weights keep sample order.
    """
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise InvalidInput(f"unknown strategy '{strategy}'")
    if "threshold" in strategies and not (math.isfinite(tau) and tau >= 0):
        raise InvalidInput(f"tau must be finite and >= 0, got {tau}")
    if len(sample.outputs) < 1:
        raise InvalidInput(f"sample '{sample.sample_id}' has no model outputs to fuse")
    members = [select_most_likely(out) for out in sample.outputs]
    model_ids = tuple(m.model_id for m in members)
    order = sorted(range(len(members)), key=lambda i: model_ids[i])
    ordered = [members[i].trajectory for i in order]

    def blend(weights: Weights, notes: tuple[str, ...] = ()) -> _Blend:
        canonical = Weights(tuple(weights.entries[i] for i in order))
        return _Blend(weights, canonical, weighted_average(ordered, canonical), notes)

    blends: dict[str, _Blend] = {}
    if "weighted" in strategies or "threshold" in strategies:
        notes: tuple[str, ...] = ()
        try:
            weights = normalize_confidences([m.confidence for m in members], model_ids)
        except ZeroConfidence:
            warnings.warn(
                f"sample '{sample.sample_id}': all member confidences are zero; "
                "using uniform weights",
                ZeroConfidenceWarning,
                stacklevel=3,
            )
            weights = uniform_weights(model_ids)
            notes = ("all member confidences were zero; fell back to uniform weights",)
        blends["weighted"] = blend(weights, notes)
    if "simple" in strategies:
        blends["simple"] = blend(uniform_weights(model_ids))
    trajectories = {name: b.trajectory for name, b in blends.items()}
    passed_through = False
    if "threshold" in strategies:
        primary = next((m for m in members if m.model_id == primary_model_id), None)
        if primary is None:
            raise InvalidInput(
                f"sample '{sample.sample_id}' has no output for model '{primary_model_id}'"
            )
        passed_through = primary.confidence >= tau
        trajectories["threshold"] = (primary.trajectory if passed_through
                                     else trajectories["weighted"])
    return Decision(sample.sample_id, members,
                    {strategy: trajectories[strategy] for strategy in strategies},
                    passed_through, ordered, blends)


def fuse_weighted(sample: Sample) -> FusedPrediction:
    """Confidence-weighted fusion of each member's most-likely mode.

    Weights are the members' mode confidences normalized over the models
    present in the sample.  If every confidence is zero the weights fall
    back to uniform, a note is recorded on the prediction, and a
    ZeroConfidenceWarning is emitted; the sample is never dropped.
    """
    return decide(sample, ("weighted",)).records()["weighted"]


def fuse_simple(sample: Sample) -> FusedPrediction:
    """Plain average of the members' most-likely modes (uniform weights)."""
    return decide(sample, ("simple",)).records()["simple"]


def fuse_threshold(sample: Sample, primary_model_id: str, tau: float = DEFAULT_TAU) -> FusedPrediction:
    """Trust one primary model outright when it is confident enough.

    If the primary model's most-likely confidence is >= tau (inclusive),
    its trajectory is returned verbatim under strategy "threshold";
    otherwise the result is exactly fuse_weighted's.  The covariance,
    weights, and ensemble confidence always come from the full weighted
    ensemble, so the reported uncertainty reflects all members even when
    the trajectory does not.
    """
    return decide(sample, ("threshold",), primary_model_id, tau).records()["threshold"]


def flag_low_confidence(fused: FusedPrediction, floor: float) -> bool:
    """True when the ensemble confidence falls strictly below a finite floor."""
    if not math.isfinite(floor):
        raise InvalidInput(f"confidence floor must be finite, got {floor}")
    return fused.confidence < floor
