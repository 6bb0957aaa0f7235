"""Ensemble strategies over each member's most-likely trajectory.

The weighted strategy normalizes the members' mode confidences to sum to
one, takes the per-timestep convex combination of their trajectories,
and summarizes their disagreement as a 2x2 position covariance whose
determinant maps to a bounded ensemble confidence 1/(1+det).  The simple
strategy is the same pipeline with uniform weights; the threshold
strategy passes a trusted primary model through verbatim when its own
confidence clears a bar and defers to the weighted strategy otherwise.

Everything here is pure and stateless.  ``decide`` is the kernel and
the one strategy dispatch, and trusts a ``Sample``'s alignment; it stops
short of the covariance, which ``Decision.records`` measures.
``decide(...).records()`` is the only way a fused record is built:
``fuse_weighted``, ``fuse_simple`` and ``fuse_threshold`` are that call
for one strategy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

from . import DEFAULT_TAU, STRATEGIES
from .core import Mode, Sample, Trajectory, select_most_likely
from .errors import InvalidInput, NumericalError, ZeroConfidenceWarning

__all__ = [
    "STRATEGIES",
    "DEFAULT_TAU",
    "Weights",
    "CovarianceSummary",
    "FusedPrediction",
    "fuse_weighted",
    "fuse_simple",
    "fuse_threshold",
    "Decision",
    "decide",
    "flag_low_confidence",
]

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


@dataclass(frozen=True, slots=True)
class FusedPrediction:
    """One sample's fused trajectory and agreement summary; its confidence is 1/(1+det)."""

    sample_id: str
    trajectory: Trajectory
    weights: Weights
    covariance: CovarianceSummary
    strategy: str
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise InvalidInput(f"unknown strategy '{self.strategy}'")

    @property
    def confidence(self) -> float:
        return 1.0 / (1.0 + self.covariance.det)


def _average(trajectories: Sequence[Trajectory], weights: Sequence[float]) -> Trajectory:
    """Per-timestep, per-coordinate sum of the trajectories, the i-th times the i-th weight."""
    coords = []
    for step in zip(*(traj.coords for traj in trajectories)):
        x = 0.0
        y = 0.0
        for (px, py), w in zip(step, weights):
            x += w * px
            y += w * py
        coords.append((x, y))
    return Trajectory._of(tuple(coords), trajectories[0].dt)


def _spread(trajectories: Sequence[Trajectory], weights: Sequence[float],
            fused: Trajectory) -> CovarianceSummary:
    """Weighted scatter of member positions around the fused trajectory.

    Per timestep, sums w_i * (p_i - fused)(p_i - fused)^T over members,
    then takes the mean of those matrices over the horizon, every step
    weighted equally (``math.fsum`` per entry).  A spread past the float
    range is a NumericalError.
    """
    per_step = []
    for (fx, fy), *step in zip(fused.coords, *(traj.coords for traj in trajectories)):
        xx = 0.0
        xy = 0.0
        yy = 0.0
        for (px, py), w in zip(step, weights):
            dx = px - fx
            dy = py - fy
            xx += w * dx * dx
            xy += w * dx * dy
            yy += w * dy * dy
        per_step.append((xx, xy, yy))
    overflow = "member spread overflows the float range"
    try:
        xx, xy, yy = [math.fsum(column) / len(per_step) for column in zip(*per_step)]
    except (OverflowError, ValueError):  # a sum past the float range, or inf + -inf
        raise NumericalError(overflow) from None
    if not all(map(math.isfinite, (xx, xy, yy))):  # a step's moment was already inf
        raise NumericalError(overflow)
    return CovarianceSummary(xx=xx, xy=xy, yy=yy)


@dataclass(frozen=True, slots=True)
class _Blend:
    """One weighted average of the members, before its spread is measured."""

    weights: Weights  # in sample order, as reported
    canonical: list[float]  # the same weights in model_id order, as summed
    trajectory: Trajectory
    notes: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Decision:
    """One sample's fusion decided, with the spread not yet measured.

    ``members`` holds each member's most-likely ``Mode`` in sample order,
    and ``model_ids`` the matching ids.  ``trajectories`` holds each
    requested strategy's fused trajectory, in the order requested.
    ``records()`` measures the spread and builds the ``FusedPrediction``
    per strategy; scoring needs only the trajectories.
    """

    sample_id: str
    model_ids: tuple[str, ...]
    members: list[Mode]
    trajectories: dict[str, Trajectory]
    passed_through: bool  # the threshold strategy took the primary's trajectory
    _ordered: list[Trajectory]  # member trajectories in model_id order
    _blends: dict[str, _Blend]

    def records(self) -> dict[str, FusedPrediction]:
        built = {}
        for strategy, blend in self._blends.items():
            cov = _spread(self._ordered, blend.canonical, blend.trajectory)
            built[strategy] = FusedPrediction(
                sample_id=self.sample_id,
                trajectory=blend.trajectory,
                weights=blend.weights,
                covariance=cov,
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
    """Apply the strategy rules to one sample, short of measuring the spread: the fusion kernel.

    Each member's most-likely mode is selected once and the weighted
    average runs at most once; "threshold" starts from that result, and
    finds the primary's mode through ``model_ids``.  Members are summed in
    model_id order, so the result cannot depend on the order they arrive
    in; the reported weights keep sample order.  ``Sample`` has aligned
    the members and ``Mode`` checked each confidence, so neither is
    checked here.
    """
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise InvalidInput(f"unknown strategy '{strategy}'")
    if "threshold" in strategies and not (math.isfinite(tau) and tau >= 0):
        raise InvalidInput(f"tau must be finite and >= 0, got {tau}")
    if len(sample.outputs) < 1:
        raise InvalidInput(f"sample '{sample.sample_id}' has no model outputs to fuse")
    members = [select_most_likely(out) for out in sample.outputs]
    model_ids = tuple(out.model_id for out in sample.outputs)
    order = sorted(range(len(members)), key=lambda i: model_ids[i])
    ordered = [members[i].trajectory for i in order]
    uniform = [1.0 / len(members)] * len(members)

    def blend(shares: Sequence[float], notes: tuple[str, ...] = ()) -> _Blend:
        canonical = [shares[i] for i in order]
        return _Blend(Weights(tuple(zip(model_ids, shares))), canonical,
                      _average(ordered, canonical), notes)

    blends: dict[str, _Blend] = {}
    if "weighted" in strategies or "threshold" in strategies:
        confidences = [m.confidence for m in members]
        try:
            total = math.fsum(confidences)
        except OverflowError:
            raise NumericalError("the sum of member confidences overflows the float range") from None
        if total == 0.0:
            warnings.warn(
                f"sample '{sample.sample_id}': all member confidences are zero; "
                "using uniform weights",
                ZeroConfidenceWarning,
                stacklevel=3,
            )
            blends["weighted"] = blend(uniform, ("all member confidences were zero; "
                                                 "fell back to uniform weights",))
        else:
            blends["weighted"] = blend([c / total for c in confidences])
    if "simple" in strategies:
        blends["simple"] = blend(uniform)
    trajectories = {name: b.trajectory for name, b in blends.items()}
    passed_through = False
    if "threshold" in strategies:
        if primary_model_id not in model_ids:
            raise InvalidInput(
                f"sample '{sample.sample_id}' has no output for model '{primary_model_id}'"
            )
        primary = members[model_ids.index(primary_model_id)]
        passed_through = primary.confidence >= tau
        trajectories["threshold"] = (primary.trajectory if passed_through
                                     else trajectories["weighted"])
    return Decision(sample.sample_id, model_ids, members,
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
