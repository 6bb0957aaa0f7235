"""Domain types and displacement metrics."""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajfuse.core import (
    Mode,
    ModelOutput,
    Sample,
    Trajectory,
    Waypoint,
    ade,
    fde,
    select_most_likely,
)
from trajfuse.errors import HorizonMismatch, InvalidInput, NumericalError

from conftest import trajectories


def traj(*pts: tuple[float, float], dt: float = 1.0) -> Trajectory:
    return Trajectory.from_xy(pts, dt=dt)


class TestWaypoint:
    def test_finite_required(self):
        with pytest.raises(InvalidInput):
            Waypoint(float("nan"), 0.0)
        with pytest.raises(InvalidInput):
            Waypoint(0.0, float("inf"))

    def test_plain_values(self):
        p = Waypoint(1.5, -2.0)
        assert (p.x, p.y) == (1.5, -2.0)


class TestTrajectory:
    def test_needs_a_point(self):
        with pytest.raises(InvalidInput):
            Trajectory(())

    def test_dt_positive(self):
        with pytest.raises(InvalidInput):
            traj((0, 0), dt=0.0)
        with pytest.raises(InvalidInput):
            traj((0, 0), dt=-0.1)
        with pytest.raises(InvalidInput):
            traj((0, 0), dt=float("nan"))

    def test_horizon_and_xy_roundtrip(self):
        t = traj((0, 0), (1, 2), (3, 4), dt=0.5)
        assert t.horizon == 3
        assert t.xy() == ((0.0, 0.0), (1.0, 2.0), (3.0, 4.0))
        assert Trajectory.from_xy(t.xy(), dt=0.5) == t

    def test_translated(self):
        t = traj((1, 1), (2, 2)).translated(-1, 2)
        assert t.xy() == ((0.0, 3.0), (1.0, 4.0))
        with pytest.raises(InvalidInput, match="finite"):
            traj((1e308, 0)).translated(1e308, 0)

    # Every constructor refuses a coordinate that is not finite, with
    # Waypoint's message.  A SimpleNamespace stands in for a point because
    # Waypoint itself refuses NaN.
    @pytest.mark.parametrize("build", [
        lambda x: Trajectory([SimpleNamespace(x=x, y=0.0)]),
        lambda x: Trajectory.from_xy([(x, 0.0)]),
        lambda x: Trajectory._of(((x, 0.0),), 1.0),
        lambda x: traj((0.0, 0.0)).translated(x, 0.0),
    ], ids=["points", "from_xy", "_of", "translated"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused_alike(self, build, bad):
        with pytest.raises(InvalidInput) as caught:
            build(bad)
        assert str(caught.value) == f"waypoint coordinates must be finite, got ({bad}, 0.0)"

    def test_points_and_pairs_give_one_value(self):
        t = Trajectory((Waypoint(0.0, 1.0), Waypoint(2, 3)), dt=0.5)
        u = traj((0, 1), (2.0, 3.0), dt=0.5)
        assert t == u
        assert hash(t) == hash(u)
        assert t.points == (Waypoint(0.0, 1.0), Waypoint(2.0, 3.0))
        with pytest.raises(FrozenInstanceError):
            t.dt = 1.0
        with pytest.raises(FrozenInstanceError):
            t.coords = ()


class TestModelOutput:
    def test_requires_modes(self):
        with pytest.raises(InvalidInput):
            ModelOutput("m", "s", ())

    def test_mode_horizons_must_agree(self):
        modes = (Mode(traj((0, 0), (1, 1)), 0.5), Mode(traj((0, 0)), 0.5))
        with pytest.raises(HorizonMismatch):
            ModelOutput("m", "s", modes)

    def test_mode_dt_must_agree(self):
        modes = (Mode(traj((0, 0)), 0.5), Mode(traj((0, 0), dt=0.2), 0.5))
        with pytest.raises(InvalidInput):
            ModelOutput("m", "s", modes)

    def test_negative_confidence_rejected(self):
        with pytest.raises(InvalidInput):
            Mode(traj((0, 0)), -0.1)

    def test_empty_ids_rejected(self):
        with pytest.raises(InvalidInput):
            ModelOutput("", "s", (Mode(traj((0, 0)), 1.0),))
        with pytest.raises(InvalidInput):
            ModelOutput("m", "", (Mode(traj((0, 0)), 1.0),))


class TestSample:
    def out(self, model_id: str, sample_id: str = "s", horizon: int = 2) -> ModelOutput:
        pts = tuple((float(i), 0.0) for i in range(horizon))
        return ModelOutput(model_id, sample_id, (Mode(traj(*pts), 1.0),))

    def test_duplicate_model_ids_rejected(self):
        with pytest.raises(InvalidInput):
            Sample("s", None, (self.out("a"), self.out("a")))

    def test_empty_sample_id_rejected(self):
        with pytest.raises(InvalidInput, match="sample_id must be nonempty"):
            Sample("", None, ())

    def test_sample_id_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            Sample("s", None, (self.out("a", sample_id="other"),))

    def test_ground_truth_horizon_checked(self):
        gt = traj((0, 0), (1, 1), (2, 2))
        with pytest.raises(HorizonMismatch):
            Sample("s", gt, (self.out("a", horizon=2),))

    def test_output_for(self):
        s = Sample("s", None, (self.out("a"), self.out("b")))
        assert s.output_for("b").model_id == "b"
        with pytest.raises(InvalidInput):
            s.output_for("missing")


class TestSelectMostLikely:
    def test_argmax(self):
        modes = (Mode(traj((0, 0)), 0.2), Mode(traj((1, 1)), 0.7), Mode(traj((2, 2)), 0.1))
        best = select_most_likely(ModelOutput("m", "s", modes))
        assert best.confidence == 0.7
        assert best.trajectory.points[0] == Waypoint(1, 1)

    def test_tie_goes_to_lowest_index(self):
        modes = (Mode(traj((0, 0)), 0.5), Mode(traj((1, 1)), 0.5))
        best = select_most_likely(ModelOutput("m", "s", modes))
        assert best.trajectory.points[0] == Waypoint(0, 0)


class TestDisplacementErrors:
    def test_ade_hand_example(self):
        # Offsets of 0.5 m and 1.0 m average to 0.75 m.
        assert ade(traj((0, 0.5), (0, 1.0)), traj((0, 0), (0, 0))) == pytest.approx(0.75, abs=1e-12)

    def test_fde_hand_example(self):
        assert fde(traj((0, 0.5), (0, 1.0)), traj((0, 0), (0, 0))) == pytest.approx(1.0, abs=1e-12)

    def test_three_four_five(self):
        assert ade(traj((3, 4)), traj((0, 0))) == pytest.approx(5.0, abs=1e-12)
        assert fde(traj((3, 4)), traj((0, 0))) == pytest.approx(5.0, abs=1e-12)

    def test_identity_is_zero(self):
        t = traj((1, 2), (3, 4))
        assert ade(t, t) == 0.0
        assert fde(t, t) == 0.0

    def test_ade_sum_past_the_float_range_is_a_numerical_error(self):
        # Each waypoint error is 1.6e308, finite; the two of them sum past the range.
        with pytest.raises(NumericalError, match="ADE"):
            ade(traj((8e307, 0), (8e307, 0)), traj((-8e307, 0), (-8e307, 0)))

    def test_horizon_mismatch(self):
        with pytest.raises(HorizonMismatch):
            ade(traj((0, 0)), traj((0, 0), (1, 1)))
        with pytest.raises(HorizonMismatch):
            fde(traj((0, 0)), traj((0, 0), (1, 1)))

    @given(
        pred=trajectories(horizon=6),
        gt=trajectories(horizon=6),
        dx=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        dy=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_translation_invariance(self, pred, gt, dx, dy):
        """Shifting both trajectories by the same offset leaves errors unchanged."""
        moved = abs(ade(pred.translated(dx, dy), gt.translated(dx, dy)) - ade(pred, gt))
        assert moved <= 1e-9
        moved_f = abs(fde(pred.translated(dx, dy), gt.translated(dx, dy)) - fde(pred, gt))
        assert moved_f <= 1e-9

    @given(pred=trajectories(), gt=trajectories())
    @settings(max_examples=200)
    def test_nonnegative(self, pred, gt):
        if pred.horizon != gt.horizon:
            with pytest.raises(HorizonMismatch):
                ade(pred, gt)
            return
        assert ade(pred, gt) >= 0.0
        assert fde(pred, gt) >= 0.0

    @given(t=trajectories())
    @settings(max_examples=100)
    def test_fde_is_last_step_distance(self, t):
        zero = Trajectory(tuple(Waypoint(0, 0) for _ in t.points), dt=t.dt)
        last = t.points[-1]
        assert fde(t, zero) == pytest.approx(math.hypot(last.x, last.y), rel=1e-12)


# Coordinates from subnormal to 1e300, so the norm's scaling is exercised too.
_any_scale = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False,
                       allow_infinity=False)


@st.composite
def _aligned_pairs(draw) -> tuple[Trajectory, Trajectory]:
    n = draw(st.integers(min_value=1, max_value=12))
    coords = st.lists(st.tuples(_any_scale, _any_scale), min_size=n, max_size=n)
    return (Trajectory.from_xy(draw(coords)), Trajectory.from_xy(draw(coords)))


class TestDisplacementErrorsMatchLoops:
    """``ade``/``fde`` norm in C; the per-waypoint ``hypot`` loops are the reference."""

    @given(_aligned_pairs())
    @settings(max_examples=500, deadline=None)
    def test_bit_identical_to_the_hypot_loops(self, pair):
        pred, gt = pair
        loop_ade = math.fsum(math.hypot(px - gx, py - gy)
                             for (px, py), (gx, gy) in zip(pred.coords, gt.coords))
        assert ade(pred, gt) == loop_ade / pred.horizon
        (px, py), (gx, gy) = pred.coords[-1], gt.coords[-1]
        assert fde(pred, gt) == math.hypot(px - gx, py - gy)
