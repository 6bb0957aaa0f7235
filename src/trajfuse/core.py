"""Domain types, trajectory geometry, and per-sample displacement errors.

All types are immutable value objects and every operation here is a
pure function.  A trajectory stores its waypoints as a tuple of
``(x, y)`` float pairs, and every way of building one checks its
coordinates, so no ``Trajectory`` holds a NaN or infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

from .errors import HorizonMismatch, InvalidInput, NumericalError

__all__ = [
    "Trajectory",
    "Mode",
    "ModelOutput",
    "Sample",
    "select_most_likely",
    "ade",
    "fde",
]


@dataclass(frozen=True, slots=True, init=False)
class Trajectory:
    """An ordered sequence of future waypoints at a fixed timestep.

    ``coords`` holds the waypoints as ``(x, y)`` float pairs, in meters
    (east, north) in a sample-local frame.  ``dt`` is metadata (seconds
    between consecutive waypoints); the displacement metrics below do
    not depend on it.

    Every constructor (``Trajectory(pairs, dt)``, ``translated`` and the
    private ``_of`` for float pairs) checks that there is a waypoint,
    that each is finite and that ``dt`` is positive.
    """

    coords: tuple[tuple[float, float], ...]
    dt: float

    def __init__(self, pairs: Iterable[Sequence[float]], dt: float = 1.0):
        self._store(tuple((float(x), float(y)) for x, y in pairs), dt)

    @classmethod
    def _of(cls, coords: tuple[tuple[float, float], ...], dt: float) -> "Trajectory":
        """Build from ``coords``, a tuple of ``(x, y)`` float pairs, as stored."""
        self = cls.__new__(cls)
        self._store(coords, dt)
        return self

    def _store(self, coords: tuple[tuple[float, float], ...], dt: float) -> None:
        # One C-loop pass; only a bad trajectory pays for finding its pair.
        if not all(map(math.isfinite, chain.from_iterable(coords))):
            x, y = next(p for p in coords if not all(map(math.isfinite, p)))
            raise InvalidInput(f"waypoint coordinates must be finite, got ({x}, {y})")
        if len(coords) < 1:
            raise InvalidInput("trajectory must have at least one waypoint")
        if not (math.isfinite(dt) and dt > 0):
            raise InvalidInput(f"dt must be a positive finite number, got {dt}")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "dt", dt)

    @property
    def horizon(self) -> int:
        return len(self.coords)

    def translated(self, dx: float, dy: float) -> "Trajectory":
        return Trajectory._of(tuple((x + dx, y + dy) for x, y in self.coords), self.dt)


@dataclass(frozen=True, slots=True)
class Mode:
    """One candidate trajectory with its model-assigned confidence."""

    trajectory: Trajectory
    confidence: float

    def __post_init__(self):
        if not (math.isfinite(self.confidence) and self.confidence >= 0):
            raise InvalidInput(f"mode confidence must be finite and >= 0, got {self.confidence}")


@dataclass(frozen=True, slots=True)
class ModelOutput:
    """One model's K candidate trajectories for one sample."""

    model_id: str
    sample_id: str
    modes: tuple[Mode, ...]

    def __post_init__(self):
        if not self.model_id:
            raise InvalidInput("model_id must be nonempty")
        if not self.sample_id:
            raise InvalidInput("sample_id must be nonempty")
        if len(self.modes) < 1:
            raise InvalidInput(f"model '{self.model_id}' produced no modes for sample '{self.sample_id}'")
        horizon = self.modes[0].trajectory.horizon
        dt = self.modes[0].trajectory.dt
        for mode in self.modes[1:]:
            if mode.trajectory.horizon != horizon:
                raise HorizonMismatch(
                    f"model '{self.model_id}' sample '{self.sample_id}': "
                    f"mode horizons differ ({mode.trajectory.horizon} vs {horizon})"
                )
            if mode.trajectory.dt != dt:
                raise InvalidInput(
                    f"model '{self.model_id}' sample '{self.sample_id}': mode dt values differ"
                )

    @property
    def horizon(self) -> int:
        return self.modes[0].trajectory.horizon


@dataclass(frozen=True, slots=True)
class Sample:
    """A sample's ground truth (when known) plus the outputs of all present members.

    ``ground_truth`` may be ``None`` for fusion-only pipelines that run
    without labels; evaluation requires it.  A sample's trajectories
    align: every member's horizon and ``dt`` equal the first member's
    (a differing horizon is a HorizonMismatch, a differing ``dt`` an
    InvalidInput), and the ground truth's horizon equals theirs.  This
    is the one place that is checked; fusion relies on it.
    """

    sample_id: str
    ground_truth: Trajectory | None
    outputs: tuple[ModelOutput, ...] = field(default=())

    def __post_init__(self):
        if not self.sample_id:
            raise InvalidInput("sample_id must be nonempty")
        seen = set()
        for out in self.outputs:
            if out.model_id in seen:
                raise InvalidInput(
                    f"sample '{self.sample_id}': duplicate model_id '{out.model_id}'"
                )
            seen.add(out.model_id)
            if out.sample_id != self.sample_id:
                raise InvalidInput(
                    f"output sample_id '{out.sample_id}' does not match sample '{self.sample_id}'"
                )
        if self.outputs:
            lead = self.outputs[0].modes[0].trajectory
            for out in self.outputs[1:]:
                own = out.modes[0].trajectory
                if own.horizon != lead.horizon:
                    raise HorizonMismatch(f"sample '{self.sample_id}': member horizons differ "
                                          f"({own.horizon} vs {lead.horizon})")
                if own.dt != lead.dt:
                    raise InvalidInput(f"sample '{self.sample_id}': member dt values differ "
                                       f"({own.dt} vs {lead.dt})")
            if self.ground_truth is not None and lead.horizon != self.ground_truth.horizon:
                raise HorizonMismatch(
                    f"sample '{self.sample_id}': model '{self.outputs[0].model_id}' horizon "
                    f"{lead.horizon} != ground-truth horizon {self.ground_truth.horizon}"
                )


def select_most_likely(output: ModelOutput) -> Mode:
    """The mode with maximal confidence, itself; ties go to the lowest mode index."""
    best = output.modes[0]
    for mode in output.modes[1:]:
        if mode.confidence > best.confidence:
            best = mode
    return best


def _check_horizons(pred: Trajectory, gt: Trajectory) -> None:
    if pred.horizon != gt.horizon:
        raise HorizonMismatch(f"prediction horizon {pred.horizon} != ground-truth horizon {gt.horizon}")


def ade(pred: Trajectory, gt: Trajectory) -> float:
    """Average Euclidean distance between corresponding waypoints, in meters.

    ``math.dist(p, q)`` norms the same differences ``math.hypot(px - qx,
    py - qy)`` does, through the same C routine, so the value is the
    loop's bit for bit.
    """
    _check_horizons(pred, gt)
    try:
        total = math.fsum(map(math.dist, pred.coords, gt.coords))
    except OverflowError:
        raise NumericalError("ADE: the sum of waypoint errors overflows the float range") from None
    if total == math.inf:
        raise NumericalError("ADE: a waypoint error overflows the float range")
    return total / pred.horizon


def fde(pred: Trajectory, gt: Trajectory) -> float:
    """Euclidean distance at the final waypoint, in meters."""
    _check_horizons(pred, gt)
    error = math.dist(pred.coords[-1], gt.coords[-1])
    if error == math.inf:
        raise NumericalError("FDE: the final waypoint error overflows the float range")
    return error
