"""Domain types, displacement metrics, and the package's public names."""

from __future__ import annotations

import importlib
import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajfuse
from trajfuse.core import (
    Mode,
    ModelOutput,
    Sample,
    Trajectory,
    ade,
    fde,
    select_most_likely,
)
from trajfuse.errors import HorizonMismatch, InvalidInput, NumericalError

from conftest import trajectories


def traj(*pts: tuple[float, float], dt: float = 1.0) -> Trajectory:
    return Trajectory(pts, dt=dt)


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
        assert t.coords == ((0.0, 0.0), (1.0, 2.0), (3.0, 4.0))
        assert Trajectory(t.coords, dt=0.5) == t

    # Every constructor refuses a coordinate that is not finite, with one message.
    @pytest.mark.parametrize("build", [
        lambda x: Trajectory([(x, 0.0)]),
        lambda x: Trajectory._of(((x, 0.0),), 1.0),
    ], ids=["pairs", "_of"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused_alike(self, build, bad):
        with pytest.raises(InvalidInput) as caught:
            build(bad)
        assert str(caught.value) == f"waypoint coordinates must be finite, got ({bad}, 0.0)"

    def test_every_constructor_gives_one_value(self):
        t = Trajectory([(0, 1), (2, 3)], dt=0.5)
        same = (traj((0.0, 1.0), (2.0, 3.0), dt=0.5),
                Trajectory._of(((0.0, 1.0), (2.0, 3.0)), 0.5),
                Trajectory([(x + 1, y + 1) for x, y in ((-1, 0), (1, 2))], dt=0.5))
        for u in same:
            assert t == u
            assert hash(t) == hash(u)
        assert t.coords == ((0.0, 1.0), (2.0, 3.0))
        assert all(type(c) is float for pair in t.coords for c in pair)
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
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(InvalidInput, match="finite and >= 0"):
                Mode(traj((0, 0)), bad)

    def test_empty_ids_rejected(self):
        with pytest.raises(InvalidInput):
            ModelOutput("", "s", (Mode(traj((0, 0)), 1.0),))
        with pytest.raises(InvalidInput):
            ModelOutput("m", "", (Mode(traj((0, 0)), 1.0),))


class TestSample:
    def out(self, model_id: str, sample_id: str = "s", horizon: int = 2,
            dt: float = 1.0) -> ModelOutput:
        pts = tuple((float(i), 0.0) for i in range(horizon))
        return ModelOutput(model_id, sample_id, (Mode(traj(*pts, dt=dt), 1.0),))

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

    def test_member_horizons_must_agree_without_ground_truth(self):
        with pytest.raises(HorizonMismatch, match=r"sample 's': member horizons differ \(3 vs 2\)"):
            Sample("s", None, (self.out("a"), self.out("b", horizon=3)))

    def test_member_dt_must_agree(self):
        with pytest.raises(InvalidInput, match=r"sample 's': member dt values differ \(0.5 vs 1.0\)"):
            Sample("s", traj((0, 0), (1, 1)), (self.out("a"), self.out("b", dt=0.5)))


class TestSelectMostLikely:
    def test_argmax(self):
        modes = (Mode(traj((0, 0)), 0.2), Mode(traj((1, 1)), 0.7), Mode(traj((2, 2)), 0.1))
        best = select_most_likely(ModelOutput("m", "s", modes))
        assert best is modes[1]
        assert best.confidence == 0.7
        assert best.trajectory.coords == ((1.0, 1.0),)

    def test_tie_goes_to_lowest_index(self):
        modes = (Mode(traj((0, 0)), 0.5), Mode(traj((1, 1)), 0.5))
        best = select_most_likely(ModelOutput("m", "s", modes))
        assert best is modes[0]


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

    def test_ade_waypoint_error_past_the_float_range_is_a_numerical_error(self):
        # The first waypoints are 3.4e308 apart, past the range; the last agree.
        pred, gt = traj((1.7e308, 0), (0, 0)), traj((-1.7e308, 0), (0, 0))
        with pytest.raises(NumericalError, match="ADE: a waypoint error overflows"):
            ade(pred, gt)
        assert fde(pred, gt) == 0.0

    def test_fde_past_the_float_range_is_a_numerical_error(self):
        pred, gt = traj((0, 0), (1.7e308, 0)), traj((0, 0), (-1.7e308, 0))
        with pytest.raises(NumericalError, match="FDE: the final waypoint error overflows"):
            fde(pred, gt)

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
        pred_moved, gt_moved = (Trajectory([(x + dx, y + dy) for x, y in t.coords], t.dt)
                                for t in (pred, gt))
        moved = abs(ade(pred_moved, gt_moved) - ade(pred, gt))
        assert moved <= 1e-9
        moved_f = abs(fde(pred_moved, gt_moved) - fde(pred, gt))
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
        zero = Trajectory([(0, 0)] * t.horizon, dt=t.dt)
        assert fde(t, zero) == pytest.approx(math.hypot(*t.coords[-1]), rel=1e-12)


# Coordinates from subnormal to 1e300, so the norm's scaling is exercised too.
_any_scale = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False,
                       allow_infinity=False)


@st.composite
def _aligned_pairs(draw) -> tuple[Trajectory, Trajectory]:
    n = draw(st.integers(min_value=1, max_value=12))
    coords = st.lists(st.tuples(_any_scale, _any_scale), min_size=n, max_size=n)
    return (Trajectory(draw(coords)), Trajectory(draw(coords)))


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


# Names the package used to export, or carry as a field or method, and no longer does.
REMOVED_NAMES = ("MostLikely", "aggregate_covariance_over_horizon", "output_for",
                 "generate_scenarios", "bias", "normalize_confidences", "uniform_weights",
                 "weighted_average", "ensemble_covariance", "ensemble_confidence",
                 "ZeroConfidence")


# Checks the package's lazy surface in a fresh interpreter; prints "ok".
_LAZY_SURFACE = """\
import importlib, sys
import trajfuse
assert not [m for m in sys.modules if m.startswith("trajfuse.")], sorted(sys.modules)
eager = set(vars(trajfuse))
assert set(trajfuse.__all__) <= set(dir(trajfuse))
for name in trajfuse.__all__:
    value = getattr(trajfuse, name)
    if name in eager:  # a constant whose home is the package itself
        continue
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("trajfuse.") and getattr(home, name) is value, name
for module, name in (("fusion", "STRATEGIES"), ("fusion", "DEFAULT_TAU"),
                     ("metrics", "DEFAULT_K_LIST"), ("metrics", "DEFAULT_OVERLAP_K")):
    assert getattr(importlib.import_module(f"trajfuse.{module}"), name) is getattr(trajfuse, name)
try:
    trajfuse.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("trajfuse.no_such_name resolved")
from trajfuse import io, synth
assert (io, synth) == (sys.modules["trajfuse.io"], sys.modules["trajfuse.synth"])
print("ok")
"""


def test_public_names():
    modules = [trajfuse] + [importlib.import_module(f"trajfuse.{name}")
                            for name in ("core", "fusion", "io", "metrics", "synth", "cli",
                                         "workers")]
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
        for name in REMOVED_NAMES:
            assert name not in module.__all__ and not hasattr(module, name)
    # The process pool has one home, and io keeps no alias of it.
    io_names = set(vars(importlib.import_module("trajfuse.io")))
    assert not {"usable_cpus", "worker_count", "fork_map", "_fork", "_collect"} & io_names
    namespace: dict[str, object] = {}
    exec("from trajfuse import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(trajfuse.__all__)
    assert not hasattr(Sample, "output_for")
    # Members that repeated a stored fact, or that nothing outside the tests read.
    assert not hasattr(Trajectory, "translated")
    assert not {"values", "__len__"} & set(dir(trajfuse.Weights))
    assert "confidence" not in {f.name for f in fields(trajfuse.FusedPrediction)}
    assert [f.name for f in fields(trajfuse.TopKResult)] == ["mean_error", "sample_ids"]
    assert "bias" not in {f.name for f in fields(trajfuse.PredictorSpec)}
    # Importing the package imports none of its modules; each public name is
    # its home module's own object, resolved on first access.
    env = {**os.environ, "PYTHONPATH": str(Path(trajfuse.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _LAZY_SURFACE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr
