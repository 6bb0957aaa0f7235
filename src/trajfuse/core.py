"""Domain types, trajectory geometry, and per-sample displacement errors.

All types are immutable value objects and every operation here is a
pure function.  A trajectory stores its waypoints as a tuple of
``(x, y)`` float pairs; ``Waypoint`` objects are built only for callers
that ask for ``Trajectory.points``.  Every way of building a trajectory
checks its coordinates, so no ``Trajectory`` holds a NaN or infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

from .errors import HorizonMismatch, InvalidInput, NumericalError

__all__ = [
    "Waypoint",
    "Trajectory",
    "Mode",
    "ModelOutput",
    "Sample",
    "MostLikely",
    "select_most_likely",
    "ade",
    "fde",
]


@dataclass(frozen=True, slots=True)
class Waypoint:
    """A 2D position in meters (east, north) in a sample-local frame."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidInput(f"waypoint coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True, slots=True, init=False)
class Trajectory:
    """An ordered sequence of future waypoints at a fixed timestep.

    ``coords`` holds the waypoints as ``(x, y)`` float pairs; ``points``
    is a view that builds ``Waypoint`` objects on demand.  ``dt`` is
    metadata (seconds between consecutive waypoints); the displacement
    metrics below do not depend on it.

    Every constructor (``Trajectory(points, dt)``, ``from_xy``,
    ``translated`` and the private ``_of`` for float pairs) checks that
    there is a waypoint, that each is finite and that ``dt`` is positive.
    """

    coords: tuple[tuple[float, float], ...]
    dt: float

    def __init__(self, points: Iterable[Waypoint], dt: float = 1.0):
        self._store(tuple((float(p.x), float(p.y)) for p in points), dt)

    @classmethod
    def _of(cls, coords: tuple[tuple[float, float], ...], dt: float) -> "Trajectory":
        """Build from ``coords``, a tuple of ``(x, y)`` float pairs, as stored."""
        self = cls.__new__(cls)
        self._store(coords, dt)
        return self

    def _store(self, coords: tuple[tuple[float, float], ...], dt: float) -> None:
        # One C-loop pass; only a bad trajectory pays for a Waypoint per pair.
        if not all(map(math.isfinite, chain.from_iterable(coords))):
            for x, y in coords:
                Waypoint(x, y)  # raises for the first pair that is not finite
        if len(coords) < 1:
            raise InvalidInput("trajectory must have at least one waypoint")
        if not (math.isfinite(dt) and dt > 0):
            raise InvalidInput(f"dt must be a positive finite number, got {dt}")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "dt", dt)

    @property
    def points(self) -> tuple[Waypoint, ...]:
        return tuple(Waypoint(x, y) for x, y in self.coords)

    @property
    def horizon(self) -> int:
        return len(self.coords)

    def xy(self) -> tuple[tuple[float, float], ...]:
        """Waypoints as plain (x, y) tuples."""
        return self.coords

    @classmethod
    def from_xy(cls, pairs: Iterable[Sequence[float]], dt: float = 1.0) -> "Trajectory":
        """Build a trajectory from (x, y) pairs, coercing coordinates to float."""
        return cls._of(tuple((float(x), float(y)) for x, y in pairs), dt)

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
    without labels; evaluation requires it.
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
            if self.ground_truth is not None:
                if out.horizon != self.ground_truth.horizon:
                    raise HorizonMismatch(
                        f"sample '{self.sample_id}': model '{out.model_id}' horizon "
                        f"{out.horizon} != ground-truth horizon {self.ground_truth.horizon}"
                    )

    def output_for(self, model_id: str) -> ModelOutput:
        for out in self.outputs:
            if out.model_id == model_id:
                return out
        raise InvalidInput(f"sample '{self.sample_id}' has no output for model '{model_id}'")


@dataclass(frozen=True, slots=True)
class MostLikely:
    """The highest-confidence mode of one model, ready for fusion."""

    model_id: str
    trajectory: Trajectory
    confidence: float


def select_most_likely(output: ModelOutput) -> MostLikely:
    """Pick the mode with maximal confidence; ties go to the lowest mode index."""
    best = output.modes[0]
    for mode in output.modes[1:]:
        if mode.confidence > best.confidence:
            best = mode
    return MostLikely(model_id=output.model_id, trajectory=best.trajectory,
                      confidence=best.confidence)


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
        return math.fsum(map(math.dist, pred.coords, gt.coords)) / pred.horizon
    except OverflowError:
        raise NumericalError("ADE: the sum of waypoint errors overflows the float range") from None


def fde(pred: Trajectory, gt: Trajectory) -> float:
    """Euclidean distance at the final waypoint, in meters."""
    _check_horizons(pred, gt)
    return math.dist(pred.coords[-1], gt.coords[-1])
