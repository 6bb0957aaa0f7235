"""Weight normalization, trajectory fusion, and the covariance summary."""

from __future__ import annotations

import inspect
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajfuse.core import Mode, ModelOutput, Sample, Trajectory, ade, select_most_likely
from trajfuse.errors import HorizonMismatch, InvalidInput, NumericalError, ZeroConfidenceWarning
from trajfuse import fusion
from trajfuse.fusion import (
    DEFAULT_TAU,
    STRATEGIES,
    CovarianceSummary,
    FusedPrediction,
    Weights,
    decide,
    flag_low_confidence,
    fuse_simple,
    fuse_threshold,
    fuse_weighted,
)

from trajfuse.metrics import fuse_and_score

from conftest import confidences, fusion_samples, trajectories


def traj(*pts: tuple[float, float], dt: float = 1.0) -> Trajectory:
    return Trajectory(pts, dt=dt)


def one_mode_sample(*members: tuple[str, Trajectory, float], sample_id: str = "s0") -> Sample:
    outputs = tuple(
        ModelOutput(mid, sample_id, (Mode(t, c),)) for mid, t, c in members
    )
    return Sample(sample_id, None, outputs)


@st.composite
def agreement_samples(draw) -> Sample:
    """Members that all emit the same trajectory, with arbitrary confidences."""
    shared = draw(trajectories(horizon=draw(st.integers(min_value=1, max_value=8))))
    n = draw(st.integers(min_value=2, max_value=5))
    confs = draw(st.lists(confidences, min_size=n, max_size=n))
    if not any(c > 0 for c in confs):
        confs[0] = 1.0
    outputs = tuple(
        ModelOutput(f"m{i}", "s0", (Mode(shared, c),)) for i, c in enumerate(confs)
    )
    return Sample("s0", None, outputs)


class TestWeights:
    def test_basic_accessors(self):
        w = Weights((("a", 0.25), ("b", 0.75)))
        assert w.values == (0.25, 0.75)
        assert len(w) == 2

    def test_must_sum_to_one(self):
        with pytest.raises(InvalidInput):
            Weights((("a", 0.5), ("b", 0.4)))

    def test_sum_past_the_float_range_does_not_sum_to_one(self):
        with pytest.raises(InvalidInput, match="must sum to 1"):
            Weights((("a", 1e308), ("b", 1e308)))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidInput):
            Weights((("a", 0.5), ("a", 0.5)))

    def test_negative_rejected(self):
        with pytest.raises(InvalidInput):
            Weights((("a", 1.5), ("b", -0.5)))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            Weights(())


class TestNormalizeConfidences:
    """The weighted strategy's weights: each confidence over their sum, in sample order."""

    @staticmethod
    def shares(*confidences: float) -> tuple[tuple[str, float], ...]:
        members = [(f"m{i}", traj((0, 0)), c) for i, c in enumerate(confidences)]
        return fuse_weighted(one_mode_sample(*members)).weights.entries

    def test_proportional_shares(self):
        assert [w for _, w in self.shares(1.0, 1.0, 2.0)] == [0.25, 0.25, 0.5]
        assert [w for _, w in self.shares(2.0, 2.0, 4.0)] == [0.25, 0.25, 0.5]

    def test_sum_past_the_float_range_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="confidences"):
            self.shares(1e308, 1e308)

    def test_explicit_ids(self):
        # Reported in sample order, not the model_id order members are summed in.
        sample = one_mode_sample(("cv", traj((0, 0)), 1.0), ("ctr", traj((4, 0)), 3.0))
        assert fuse_weighted(sample).weights.entries == (("cv", 0.25), ("ctr", 0.75))

    def test_singleton(self):
        assert self.shares(5.0) == (("m0", 1.0),)

    # A confidence no weight could come from never reaches fusion: Mode refuses it.
    def test_negative_raises(self):
        with pytest.raises(InvalidInput):
            self.shares(0.5, -0.1)

    def test_non_finite_raises(self):
        with pytest.raises(InvalidInput):
            self.shares(0.5, float("nan"))
        with pytest.raises(InvalidInput):
            self.shares(0.5, float("inf"))

    @given(
        confs=st.lists(st.floats(min_value=1e-6, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=6),
        k=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=200)
    def test_scale_invariance(self, confs, k):
        """Multiplying every confidence by the same factor changes nothing."""
        base = self.shares(*confs)
        scaled = self.shares(*(k * c for c in confs))
        for (a_id, a), (b_id, b) in zip(base, scaled):
            assert a_id == b_id
            assert abs(a - b) <= 1e-9


class TestUniformWeights:
    """The simple strategy's weights: an even split."""

    def test_even_split(self):
        sample = one_mode_sample(*((mid, traj((0, 0)), 1.0) for mid in "abcd"))
        assert fuse_simple(sample).weights.values == (0.25,) * 4

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            fuse_simple(Sample("s0", None, ()))


class TestWeightedAverage:
    """The fused trajectory: each step the weighted sum of the members' positions."""

    def test_single_member_is_identity(self):
        t = traj((1, 2), (3, 4), dt=0.5)
        assert fuse_weighted(one_mode_sample(("m", t, 1.0))).trajectory == t

    def test_full_weight_selects_that_member(self):
        a = traj((1, 1))
        sample = one_mode_sample(("a", a, 1.0), ("b", traj((9, 9)), 0.0))
        assert fuse_weighted(sample).trajectory == a

    def test_midpoint(self):
        sample = one_mode_sample(("a", traj((0, 0), (2, 0)), 1.0),
                                 ("b", traj((0, 4), (0, 2)), 1.0))
        assert fuse_simple(sample).trajectory.coords == ((0.0, 2.0), (1.0, 1.0))

    def test_preserves_dt(self):
        assert fuse_weighted(one_mode_sample(("m", traj((0, 0), dt=0.2), 1.0))).trajectory.dt == 0.2

    # Members that do not align never reach fusion: the Sample refuses them.
    def test_horizon_mismatch(self):
        with pytest.raises(HorizonMismatch):
            fuse_simple(one_mode_sample(("a", traj((0, 0)), 1.0),
                                        ("b", traj((0, 0), (1, 1)), 1.0)))

    def test_dt_mismatch(self):
        with pytest.raises(InvalidInput):
            fuse_simple(one_mode_sample(("a", traj((0, 0)), 1.0),
                                        ("b", traj((0, 0), dt=0.5), 1.0)))


class TestCovarianceSummary:
    def test_determinant(self):
        assert CovarianceSummary(xx=0.5, xy=0.0, yy=0.5).det == 0.25
        assert CovarianceSummary(xx=1.0, xy=0.0, yy=0.0).det == 0.0

    def test_matrix_roundtrip(self):
        cov = CovarianceSummary(xx=2.0, xy=0.5, yy=1.0)
        assert (cov.xx, cov.xy, cov.yy) == (2.0, 0.5, 1.0)
        assert CovarianceSummary.from_matrix(((2.0, 0.5), (0.5, 1.0))) == cov

    def test_tiny_negative_determinant_clamped(self):
        cov = CovarianceSummary(xx=1e-5, xy=1.0000000001e-5, yy=1e-5)
        assert cov.det == 0.0

    def test_indefinite_rejected(self):
        with pytest.raises(NumericalError):
            CovarianceSummary(xx=1.0, xy=2.0, yy=1.0)

    def test_negative_definite_rejected(self):
        # Positive determinant but both eigenvalues negative.
        with pytest.raises(NumericalError):
            CovarianceSummary(xx=-1.0, xy=0.0, yy=-1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            CovarianceSummary(xx=float("nan"), xy=0.0, yy=1.0)

    def test_determinant_below_tolerance_rejected(self):
        # The smallest eigenvalue, about -8e-10, passes its check; the
        # determinant, about -1.6e-9, is below its -1e-9 tolerance.
        with pytest.raises(NumericalError) as caught:
            CovarianceSummary(1.0, 1.0 + 8e-10, 1.0)
        assert str(caught.value) == "covariance determinant -1.6000001323845936e-09 below tolerance"

    def test_from_matrix_shape_checked(self):
        with pytest.raises(InvalidInput):
            CovarianceSummary.from_matrix([[1.0, 0.0]])
        with pytest.raises(InvalidInput):
            CovarianceSummary.from_matrix([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_from_matrix_asymmetry_rejected(self):
        with pytest.raises(NumericalError):
            CovarianceSummary.from_matrix([[1.0, 0.5], [0.2, 1.0]])

    def test_from_matrix_symmetrizes_within_tolerance(self):
        cov = CovarianceSummary.from_matrix([[1.0, 0.5 + 2e-10], [0.5, 1.0]])
        assert cov.xy == pytest.approx(0.5 + 1e-10, abs=1e-12)


def spread(fused: FusedPrediction) -> tuple[float, float, float]:
    return (fused.covariance.xx, fused.covariance.xy, fused.covariance.yy)


class TestAggregateOverHorizon:
    """The covariance is the equal-weight mean of the per-step scatters."""

    def test_mean_of_steps(self):
        # Step 1 scatters along the diagonal, (1, 1, 1); step 2 along x, (4, 0, 0).
        fused = fuse_simple(one_mode_sample(("a", traj((1, 1), (2, 0)), 1.0),
                                            ("b", traj((-1, -1), (-2, 0)), 1.0)))
        assert spread(fused) == (2.5, 0.5, 0.5)
        assert fused.covariance.det == 1.0

    def test_single_step_identity(self):
        # Confidences 2:1:1 give weights 1/2, 1/4, 1/4.  Fused at (0, 1), the
        # deviations are (0, -1), (2, 1) and (-2, 1).
        fused = fuse_weighted(one_mode_sample(("a", traj((0, 0)), 2.0),
                                              ("b", traj((2, 2)), 1.0),
                                              ("c", traj((-2, 2)), 1.0)))
        assert fused.weights.values == (0.5, 0.25, 0.25)
        assert fused.trajectory.coords == ((0.0, 1.0),)
        assert spread(fused) == (2.0, 0.0, 1.0)
        assert fused.confidence == 1.0 / 3.0

    @pytest.mark.parametrize("a, b", [
        # xy is +inf on step 1 and -inf on step 2.
        (traj((1e200, 1e200), (1e200, -1e200)), traj((-1e200, -1e200), (-1e200, 1e200))),
        # xx is 1e308 on each step, and their sum passes the float range.
        (traj((1e154, 0), (1e154, 0)), traj((-1e154, 0), (-1e154, 0))),
        # xx is already +inf on the one step.
        (traj((1e200, 0)), traj((-1e200, 0))),
    ], ids=["inf_minus_inf", "finite_sum_overflows", "step_moment_overflows"])
    def test_unsummable_spread_is_a_numerical_error(self, a, b):
        with pytest.raises(NumericalError, match="spread"):
            fuse_simple(one_mode_sample(("a", a, 1.0), ("b", b, 1.0)))


class TestEnsembleCovariance:
    def test_two_step_hand_example(self):
        # Step 1 scatters along x, step 2 along y; the horizon mean is isotropic.
        fused = fuse_simple(one_mode_sample(("a", traj((1, 0), (0, 1)), 1.0),
                                            ("b", traj((-1, 0), (0, -1)), 1.0)))
        assert fused.trajectory.coords == ((0.0, 0.0), (0.0, 0.0))
        assert spread(fused) == (0.5, 0.0, 0.5)
        assert fused.covariance.det == 0.25
        assert fused.confidence == 0.8

    def test_collinear_members_have_zero_determinant(self):
        fused = fuse_simple(one_mode_sample(("a", traj((1, 0)), 1.0), ("b", traj((-1, 0)), 1.0)))
        assert spread(fused) == (1.0, 0.0, 0.0)
        assert fused.covariance.det == 0.0
        assert fused.confidence == 1.0


class TestEnsembleConfidence:
    """A record's confidence is 1 / (1 + det)."""

    def test_arithmetic(self):
        def mirrored(*pts: tuple[float, float]) -> FusedPrediction:
            """Equally weighted members at ``pts`` and at their reflection through the origin."""
            return fuse_simple(one_mode_sample(("a", traj(*pts), 1.0),
                                               ("b", traj(*((-x, -y) for x, y in pts)), 1.0)))

        assert mirrored((0, 0)).confidence == 1.0
        # The mean of (4, 0, 0) and (0, 0, 1).
        fused = mirrored((2, 0), (0, 1))
        assert (fused.covariance.det, fused.confidence) == (1.0, 0.5)
        # The mean of three steps of (4, 0, 0) and one of (0, 0, 4).
        fused = mirrored((2, 0), (2, 0), (2, 0), (0, 2))
        assert (fused.covariance.det, fused.confidence) == (3.0, 0.25)


class TestFusedPrediction:
    def base(self, confidence: float = 1.0, strategy: str = "weighted") -> FusedPrediction:
        return FusedPrediction(
            sample_id="s0",
            trajectory=traj((0, 0)),
            weights=Weights((("m", 1.0),)),
            covariance=CovarianceSummary(0.0, 0.0, 0.0),
            confidence=confidence,
            strategy=strategy,
        )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(InvalidInput):
            self.base(strategy="median")

    def test_confidence_must_match_determinant(self):
        with pytest.raises(InvalidInput):
            self.base(confidence=0.9)

    def test_known_strategies(self):
        for s in STRATEGIES:
            assert self.base(strategy=s).strategy == s


class TestFuseWeighted:
    def test_hand_example(self):
        # Confidences 1:3 put the fused point at 3/4 of the gap; the
        # members are collinear so the determinant collapses to zero.
        sample = one_mode_sample(("a", traj((0, 0)), 1.0), ("b", traj((4, 0)), 3.0))
        fused = fuse_weighted(sample)
        assert fused.weights.entries == (("a", 0.25), ("b", 0.75))
        assert fused.trajectory.coords == ((3.0, 0.0),)
        assert (fused.covariance.xx, fused.covariance.xy, fused.covariance.yy) == (3.0, 0.0, 0.0)
        assert fused.confidence == 1.0
        assert fused.strategy == "weighted"
        assert fused.sample_id == "s0"
        assert fused.notes == ()

    def test_uses_most_likely_mode_per_member(self):
        decoy = Mode(traj((100.0, 100.0)), 0.2)
        best = Mode(traj((4, 0)), 0.8)
        sample = Sample("s0", None, (
            ModelOutput("a", "s0", (Mode(traj((0, 0)), 1.0),)),
            ModelOutput("b", "s0", (decoy, best)),
        ))
        fused = fuse_weighted(sample)
        # Weight for b comes from its best mode: 0.8 / 1.8.
        assert fused.weights.entries[1] == ("b", pytest.approx(0.8 / 1.8, abs=1e-15))
        assert fused.trajectory.coords[0][1] == 0.0

    def test_symmetric_biases_cancel(self):
        # Two equally confident members offset 2 m either side of one path.
        base = traj((0, 0.5), (1, 1.5), (2, -1.25))
        sample = one_mode_sample(("left", base.translated(0, 2), 0.7),
                                 ("right", base.translated(0, -2), 0.7))
        fused = fuse_weighted(sample)
        assert fused.trajectory == base
        assert (fused.covariance.xx, fused.covariance.xy, fused.covariance.yy) == (0.0, 0.0, 4.0)

    def test_all_zero_confidences_fall_back_to_uniform(self):
        sample = one_mode_sample(("a", traj((0, 0)), 0.0), ("b", traj((2, 0)), 0.0))
        with pytest.warns(ZeroConfidenceWarning):
            fused = fuse_weighted(sample)
        assert fused.weights.values == (0.5, 0.5)
        assert fused.trajectory.coords == ((1.0, 0.0),)
        assert len(fused.notes) == 1
        assert "uniform" in fused.notes[0]

    def test_single_member(self):
        t = traj((1, 2), (3, 4))
        fused = fuse_weighted(one_mode_sample(("only", t, 0.4)))
        assert fused.trajectory == t
        assert fused.weights.values == (1.0,)
        assert fused.confidence == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidInput):
            fuse_weighted(Sample("s0", None, ()))

    def test_unknown_strategy_rejected(self):
        sample = one_mode_sample(("a", traj((0, 0)), 1.0))
        with pytest.raises(InvalidInput, match="unknown strategy 'median'"):
            decide(sample, ("median",))

    @given(sample=fusion_samples())
    @settings(max_examples=150)
    def test_fused_point_stays_in_member_hull(self, sample):
        """A convex combination cannot leave the members' bounding box."""
        members = [select_most_likely(o) for o in sample.outputs]
        fused = fuse_weighted(sample)
        for t, (fx, fy) in enumerate(fused.trajectory.coords):
            xs = [m.trajectory.coords[t][0] for m in members]
            ys = [m.trajectory.coords[t][1] for m in members]
            assert min(xs) - 1e-9 <= fx <= max(xs) + 1e-9
            assert min(ys) - 1e-9 <= fy <= max(ys) + 1e-9

    @given(sample=fusion_samples())
    @settings(max_examples=150)
    # Summed in the given order, this sample's fused confidence moves by
    # 1.4e-9 when the members are reversed.
    @example(sample=one_mode_sample(("m0", traj((0, 0)), 9.0), ("m1", traj((0, 0)), 0.5),
                                    ("m2", traj((855, 14)), 2.0)))
    def test_member_order_is_irrelevant(self, sample):
        flipped = Sample(sample.sample_id, None, tuple(reversed(sample.outputs)))
        a = fuse_weighted(sample)
        b = fuse_weighted(flipped)
        assert sorted(a.weights.entries) == sorted(b.weights.entries)
        for (ax, ay), (bx, by) in zip(a.trajectory.coords, b.trajectory.coords):
            assert abs(ax - bx) <= 1e-9
            assert abs(ay - by) <= 1e-9
        assert abs(a.confidence - b.confidence) <= 1e-9

    @given(sample=fusion_samples())
    @settings(max_examples=150)
    def test_covariance_well_formed(self, sample):
        fused = fuse_weighted(sample)
        assert fused.covariance.det >= 0.0
        assert 0.0 < fused.confidence <= 1.0
        total = sum(fused.weights.values)
        assert abs(total - 1.0) <= 1e-9

    @given(sample=agreement_samples())
    @settings(max_examples=150)
    def test_full_agreement_means_full_confidence(self, sample):
        """Identical members leave no scatter, so confidence saturates at 1."""
        fused = fuse_weighted(sample)
        assert fused.covariance.det <= 1e-18
        assert fused.confidence == 1.0
        assert ade(fused.trajectory, sample.outputs[0].modes[0].trajectory) <= 1e-8


class TestFuseSimple:
    def test_ignores_confidences(self):
        sample = one_mode_sample(("a", traj((0, 0)), 1000.0), ("b", traj((2, 0)), 0.001))
        fused = fuse_simple(sample)
        assert fused.weights.values == (0.5, 0.5)
        assert fused.trajectory.coords == ((1.0, 0.0),)
        assert fused.strategy == "simple"

    def test_three_member_mean(self):
        sample = one_mode_sample(
            ("a", traj((0, 0)), 0.1),
            ("b", traj((3, 0)), 0.2),
            ("c", traj((0, 3)), 0.7),
        )
        fused = fuse_simple(sample)
        assert fused.trajectory.coords[0][0] == pytest.approx(1.0, abs=1e-12)
        assert fused.trajectory.coords[0][1] == pytest.approx(1.0, abs=1e-12)


class TestFuseThreshold:
    def sample(self, primary_conf: float = 0.9) -> Sample:
        return one_mode_sample(
            ("p", traj((10, 0)), primary_conf),
            ("q", traj((0, 0)), 0.1),
        )

    def test_fires_at_or_above_tau(self):
        sample = self.sample(primary_conf=0.9)
        fused = fuse_threshold(sample, "p", tau=0.9)
        assert fused.strategy == "threshold"
        assert fused.trajectory.coords == ((10.0, 0.0),)
        # Uncertainty still reflects the whole ensemble.
        base = fuse_weighted(sample)
        assert fused.weights == base.weights
        assert fused.covariance == base.covariance
        assert fused.confidence == base.confidence

    def test_defers_below_tau(self):
        sample = self.sample(primary_conf=0.9)
        fused = fuse_threshold(sample, "p", tau=0.90000001)
        assert fused == fuse_weighted(sample)
        assert fused.strategy == "weighted"

    def test_tau_zero_always_fires(self):
        fused = fuse_threshold(self.sample(primary_conf=0.0), "p", tau=0.0)
        assert fused.strategy == "threshold"

    def test_tau_above_any_confidence_matches_weighted(self):
        sample = self.sample()
        assert fuse_threshold(sample, "p", tau=1.5) == fuse_weighted(sample)

    def test_default_tau(self):
        assert fuse_threshold(self.sample(0.75), "p").strategy == "threshold"
        assert fuse_threshold(self.sample(0.7499), "p").strategy == "weighted"
        assert DEFAULT_TAU == 0.75

    def test_unknown_primary_rejected(self):
        with pytest.raises(InvalidInput, match="sample 's0' has no output for model 'nope'"):
            fuse_threshold(self.sample(), "nope", tau=0.5)

    def test_bad_tau_rejected(self):
        for tau in (-0.1, float("nan"), float("inf")):
            with pytest.raises(InvalidInput):
                fuse_threshold(self.sample(), "p", tau=tau)

    def test_zero_confidence_note_survives_firing(self):
        sample = one_mode_sample(("p", traj((1, 0)), 0.0), ("q", traj((0, 0)), 0.0))
        with pytest.warns(ZeroConfidenceWarning):
            fused = fuse_threshold(sample, "p", tau=0.0)
        assert fused.strategy == "threshold"
        assert len(fused.notes) == 1


class TestDecide:
    """The strategy rules without the spread; ``records()`` adds it."""

    @given(fusion_samples(require_positive_confidence=False),
           st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=3, unique=True),
           st.sampled_from([0.0, 0.3, DEFAULT_TAU, 2.0]))
    @settings(max_examples=200, deadline=None)
    def test_joint_records_equal_single_strategy_fusions(self, sample, strategies, tau):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroConfidenceWarning)
            decision = decide(sample, strategies, "m0", tau)
            fused = decision.records()
            alone = {"weighted": fuse_weighted(sample), "simple": fuse_simple(sample),
                     "threshold": fuse_threshold(sample, "m0", tau)}
        assert decision.members == [select_most_likely(out) for out in sample.outputs]
        assert decision.model_ids == tuple(out.model_id for out in sample.outputs)
        assert fused == {strategy: alone[strategy] for strategy in strategies}
        assert list(fused) == strategies
        assert decision.trajectories == {s: pred.trajectory for s, pred in fused.items()}

    def test_members_are_the_modes_with_their_ids(self):
        sample = one_mode_sample(("q", traj((0, 0)), 0.1), ("p", traj((10, 0)), 0.9))
        decision = decide(sample, ("threshold",), "p", 0.5)
        assert decision.model_ids == ("q", "p")
        assert all(member is out.modes[0]
                   for member, out in zip(decision.members, sample.outputs))
        assert decision.trajectories["threshold"] is sample.outputs[1].modes[0].trajectory

    def test_no_spread_until_records(self, monkeypatch):
        def refuse(*args):
            raise NumericalError("spread measured")

        sample = one_mode_sample(("p", traj((10, 0)), 0.9), ("q", traj((0, 0)), 0.1))
        monkeypatch.setattr(fusion, "_spread", refuse)
        decision = decide(sample, STRATEGIES, "p")
        assert decision.trajectories["threshold"].coords == ((10.0, 0.0),)
        assert decision.trajectories["weighted"].coords == ((9.0, 0.0),)
        with pytest.raises(NumericalError, match="spread measured"):
            decision.records()


class TestZeroConfidenceWarning:
    def test_points_at_the_calling_line(self):
        members = (("p", traj((1, 0)), 0.0), ("q", traj((0, 0)), 0.0))
        sample = replace(one_mode_sample(*members), ground_truth=traj((0, 0)))
        first = inspect.currentframe().f_lineno + 2
        with pytest.warns(ZeroConfidenceWarning) as caught:
            fuse_weighted(sample)
            fuse_threshold(sample, "p", tau=2.0)
            fuse_and_score([sample], ("weighted",))
        assert [(Path(w.filename), w.lineno) for w in caught] == [
            (Path(__file__), first + i) for i in range(3)]


class TestFlagLowConfidence:
    def test_strict_comparison(self):
        sample = one_mode_sample(("a", traj((1, 0), (0, 1)), 1.0), ("b", traj((-1, 0), (0, -1)), 1.0))
        fused = fuse_weighted(sample)
        assert fused.confidence == 0.8
        assert not flag_low_confidence(fused, 0.8)
        assert flag_low_confidence(fused, 0.8000001)
        assert not flag_low_confidence(fused, 0.0)

    @pytest.mark.parametrize("floor", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floor_rejected(self, floor):
        # A NaN floor compares false against every confidence, so it would
        # flag nothing instead of failing.
        sample = one_mode_sample(("a", traj((1, 0), (0, 1)), 1.0), ("b", traj((-1, 0), (0, -1)), 1.0))
        with pytest.raises(InvalidInput, match="confidence floor must be finite"):
            flag_low_confidence(fuse_weighted(sample), floor)
