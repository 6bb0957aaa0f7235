"""Scenario generation, the synthetic predictor bank, and end-to-end runs."""

from __future__ import annotations

import math
import os
import pickle
import signal

import pytest
from conftest import reaped
from scipy import stats

from trajfuse import workers
from trajfuse.core import Trajectory, ade, fde, select_most_likely
from trajfuse.errors import InvalidInput, TrajfuseError
from trajfuse.metrics import ensemble_method_id
from trajfuse.synth import (
    LANE_CHANGE_OFFSET_M,
    MANEUVERS,
    PINNED_PRIMARY,
    PINNED_SEED,
    PREDICTOR_KINDS,
    InitialState,
    PredictorSpec,
    Scenario,
    ScenarioConfig,
    _path,
    generate_samples,
    pinned_config,
    pinned_predictors,
    run_predictor,
    scenario_at,
    synth_experiment,
)


def state(maneuver: str = "straight", heading: float = 0.0, speed: float = 1.0,
          turn_rate: float = 0.0, lane_dir: int = 1) -> InitialState:
    return InitialState(x=0.0, y=0.0, heading=heading, speed=speed,
                        turn_rate=turn_rate, maneuver=maneuver, lane_dir=lane_dir)


def kinematic(maneuver: str, st: InitialState, horizon: int, dt: float) -> Trajectory:
    """``_path``'s waypoints at ``st``'s own speed and turn rate, as a trajectory."""
    return Trajectory._of(tuple(_path(maneuver, st, st.speed, st.turn_rate, horizon, dt)), dt)


def scenario_from(st: InitialState, horizon: int, dt: float) -> Scenario:
    return Scenario("x", st, kinematic(st.maneuver, st, horizon, dt))


def small_config(**overrides) -> ScenarioConfig:
    defaults = dict(sample_count=40, horizon=6, dt=0.5, seed=7)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def scenarios(config: ScenarioConfig) -> list[Scenario]:
    return [scenario_at(config, i) for i in range(config.sample_count)]


class TestValidation:
    def test_scenario_config(self):
        for bad in (dict(sample_count=0), dict(sample_count=1_000_000),
                    dict(sample_count=2.0), dict(horizon=0), dict(horizon=1001), dict(dt=0.0),
                    dict(mix=(0.5, 0.5, 0.5)), dict(mix=(1.0, 0.5, -0.5)),
                    dict(speed_range=(5.0, 3.0)), dict(speed_range=(-1.0, 3.0)),
                    dict(noise_sigma=-0.1), dict(seed=-1), dict(seed=1.5)):
            with pytest.raises(InvalidInput):
                small_config(**bad)

    def test_mix_summing_past_the_float_range(self):
        with pytest.raises(InvalidInput, match="mix must sum to 1, got inf"):
            small_config(mix=(1e308, 1e308, 0.0))

    def test_predictor_spec(self):
        for bad in (dict(name=""), dict(kind="transformer"), dict(noise_sigma=-1.0),
                    dict(mode_count=0), dict(temperature=0.0)):
            spec = dict(name="m", kind="const_velocity")
            spec.update(bad)
            with pytest.raises(InvalidInput):
                PredictorSpec(**spec)

    def test_initial_state(self):
        with pytest.raises(InvalidInput):
            state(maneuver="drift")
        with pytest.raises(InvalidInput):
            state(speed=-1.0)
        with pytest.raises(InvalidInput):
            state(lane_dir=0)


class TestManeuverTrajectory:
    def test_straight(self):
        t = kinematic("straight", state(speed=1.0), horizon=3, dt=0.5)
        assert t.coords == ((0.5, 0.0), (1.0, 0.0), (1.5, 0.0))

    def test_straight_follows_heading(self):
        t = kinematic("straight", state(heading=math.pi / 2, speed=2.0), horizon=2, dt=1.0)
        assert t.coords[0][0] == pytest.approx(0.0, abs=1e-12)
        assert t.coords[0][1] == pytest.approx(2.0, abs=1e-12)

    def test_quarter_circle(self):
        # One second at turn rate pi/2 sweeps a quarter of a circle with
        # radius 2/pi, landing at (2/pi, 2/pi).
        s = state(maneuver="constant_turn", speed=1.0, turn_rate=math.pi / 2)
        t = kinematic("constant_turn", s, horizon=1, dt=1.0)
        assert t.coords[0][0] == pytest.approx(2 / math.pi, abs=1e-9)
        assert t.coords[0][1] == pytest.approx(2 / math.pi, abs=1e-9)

    def test_full_circle_returns_home(self):
        s = state(maneuver="constant_turn", speed=1.0, turn_rate=math.pi / 2)
        t = kinematic("constant_turn", s, horizon=4, dt=1.0)
        assert t.coords[-1][0] == pytest.approx(0.0, abs=1e-9)
        assert t.coords[-1][1] == pytest.approx(0.0, abs=1e-9)

    def test_zero_turn_rate_degrades_to_straight(self):
        s = state(maneuver="constant_turn", speed=3.0, turn_rate=0.0)
        arc = kinematic("constant_turn", s, horizon=4, dt=0.5)
        line = kinematic("straight", s, horizon=4, dt=0.5)
        assert arc == line

    def test_lane_change_reaches_full_offset(self):
        s = state(maneuver="lane_change", speed=5.0)
        t = kinematic("lane_change", s, horizon=10, dt=0.4)
        assert t.coords[-1][1] == pytest.approx(LANE_CHANGE_OFFSET_M, abs=1e-12)
        assert t.coords[-1][0] == pytest.approx(5.0 * 10 * 0.4, abs=1e-12)
        # Smoothstep is at half the offset exactly halfway through.
        assert t.coords[4][1] == pytest.approx(LANE_CHANGE_OFFSET_M * 0.5, abs=1e-12)

    def test_lane_change_direction(self):
        s = state(maneuver="lane_change", speed=5.0, lane_dir=-1)
        t = kinematic("lane_change", s, horizon=4, dt=0.5)
        assert t.coords[-1][1] == pytest.approx(-LANE_CHANGE_OFFSET_M, abs=1e-12)

    def test_origin_offset_carries_through(self):
        s = InitialState(x=5.0, y=7.0, heading=0.0, speed=1.0, turn_rate=0.0,
                         maneuver="straight")
        t = kinematic("straight", s, horizon=1, dt=1.0)
        assert t.coords == ((6.0, 7.0),)


class TestScenarioGeneration:
    def test_deterministic(self):
        config = small_config()
        assert scenarios(config) == scenarios(config)

    def test_matches_direct_indexing(self):
        config = small_config()
        streamed = [scenario for scenario, _ in generate_samples(config, pinned_predictors(),
                                                                  range(config.sample_count))]
        assert streamed == scenarios(config)

    def test_sample_ids(self):
        ids = [s.sample_id for s in scenarios(small_config(sample_count=3))]
        assert ids == ["s000000", "s000001", "s000002"]

    def test_index_bounds(self):
        config = small_config(sample_count=3)
        with pytest.raises(InvalidInput):
            scenario_at(config, 3)
        with pytest.raises(InvalidInput):
            scenario_at(config, -1)

    def test_seed_changes_data(self):
        a = scenarios(small_config(seed=1))
        b = scenarios(small_config(seed=2))
        assert a != b

    def test_zero_noise_matches_closed_form(self):
        config = small_config(noise_sigma=0.0)
        for s in scenarios(config):
            clean = kinematic(s.state.maneuver, s.state, config.horizon, config.dt)
            assert s.ground_truth == clean

    def test_mix_extremes(self):
        for mix, expected in (((1.0, 0.0, 0.0), "straight"),
                              ((0.0, 1.0, 0.0), "constant_turn"),
                              ((0.0, 0.0, 1.0), "lane_change")):
            for s in scenarios(small_config(sample_count=20, mix=mix)):
                assert s.state.maneuver == expected
                if expected == "constant_turn":
                    assert s.state.turn_rate != 0.0
                else:
                    assert s.state.turn_rate == 0.0

    def test_speeds_respect_range(self):
        config = small_config(sample_count=100, speed_range=(2.0, 4.0))
        for s in scenarios(config):
            assert 2.0 <= s.state.speed <= 4.0


class TestRunPredictor:
    def test_clean_oracle_reproduces_ground_truth(self):
        spec = PredictorSpec(name="orc", kind="noisy_oracle", noise_sigma=0.0)
        scenario = scenario_from(state(maneuver="lane_change", speed=4.0), 6, 0.5)
        out = run_predictor(spec, scenario, seed=0)
        assert len(out.modes) == 1
        assert out.modes[0].trajectory == scenario.ground_truth
        assert out.modes[0].confidence == 1.0

    def test_clean_const_velocity_nails_straight(self):
        spec = PredictorSpec(name="cv", kind="const_velocity", noise_sigma=0.0)
        scenario = scenario_from(state(speed=8.0, heading=1.2), 5, 0.5)
        out = run_predictor(spec, scenario, seed=0)
        assert ade(out.modes[0].trajectory, scenario.ground_truth) == 0.0
        assert out.modes[0].confidence == 1.0

    def test_const_velocity_chord_error_on_turns(self):
        # With one step and no noise the miss distance has a closed form:
        # the gap between the straight chord and the arc endpoint.
        v, omega, dt = 6.0, 0.4, 0.5
        s = state(maneuver="constant_turn", speed=v, turn_rate=omega)
        scenario = scenario_from(s, 1, dt)
        spec = PredictorSpec(name="cv", kind="const_velocity", noise_sigma=0.0)
        out = run_predictor(spec, scenario, seed=0)
        radius = v / omega
        expected = math.hypot(v * dt - radius * math.sin(omega * dt),
                              radius * (1 - math.cos(omega * dt)))
        assert ade(out.modes[0].trajectory, scenario.ground_truth) == pytest.approx(
            expected, abs=1e-12
        )

    def test_const_velocity_error_grows_with_turn_rate(self):
        spec = PredictorSpec(name="cv", kind="const_velocity", noise_sigma=0.0)
        errors = []
        for omega in (0.1, 0.3, 0.5):
            s = state(maneuver="constant_turn", speed=8.0, turn_rate=omega)
            scenario = scenario_from(s, 8, 0.5)
            out = run_predictor(spec, scenario, seed=0)
            errors.append(ade(select_most_likely(out).trajectory, scenario.ground_truth))
        assert errors == sorted(errors)
        assert errors[0] > 0.0

    def test_speed_ladder_hypotheses(self):
        spec = PredictorSpec(name="cv", kind="const_velocity", noise_sigma=0.0,
                             mode_count=5)
        scenario = scenario_from(state(speed=10.0), 2, 0.5)
        out = run_predictor(spec, scenario, seed=0)
        finals = [m.trajectory.coords[-1][0] for m in out.modes]
        assert finals == pytest.approx([10.0, 8.5, 11.5, 7.0, 13.0], abs=1e-12)

    def test_lateral_ladder_hypotheses(self):
        spec = PredictorSpec(name="orc", kind="noisy_oracle", noise_sigma=0.0,
                             mode_count=3)
        scenario = scenario_from(state(speed=5.0), 3, 0.5)
        out = run_predictor(spec, scenario, seed=0)
        offsets = [m.trajectory.coords[0][1] - scenario.ground_truth.coords[0][1]
                   for m in out.modes]
        assert offsets == pytest.approx([0.0, -0.5, 0.5], abs=1e-12)

    def test_turn_ladder_blind_to_lane_change(self):
        # A lane change carries turn_rate 0, so the turn-rate member's
        # center hypothesis is the plain straight path.
        spec = PredictorSpec(name="ctr", kind="const_turn_rate", noise_sigma=0.0,
                             mode_count=5)
        s = state(maneuver="lane_change", speed=6.0)
        scenario = scenario_from(s, 6, 0.5)
        out = run_predictor(spec, scenario, seed=0)
        straight = kinematic("straight", s, 6, 0.5)
        assert out.modes[0].trajectory == straight

    def test_confidence_is_error_boltzmann_factor(self):
        spec = PredictorSpec(name="cv", kind="const_velocity", noise_sigma=0.3,
                             mode_count=4, temperature=0.7)
        scenario = scenario_from(state(maneuver="constant_turn", speed=7.0,
                                       turn_rate=0.2), 6, 0.5)
        out = run_predictor(spec, scenario, seed=(1, 2, 3))
        for mode in out.modes:
            e = ade(mode.trajectory, scenario.ground_truth)
            assert mode.confidence == math.exp(-e / spec.temperature)

    def test_seeded_noise_is_reproducible(self):
        spec = PredictorSpec(name="orc", kind="noisy_oracle", noise_sigma=0.5)
        scenario = scenario_from(state(speed=5.0), 4, 0.5)
        a = run_predictor(spec, scenario, seed=(9, 0, 1))
        b = run_predictor(spec, scenario, seed=(9, 0, 1))
        c = run_predictor(spec, scenario, seed=(9, 0, 2))
        assert a == b
        assert a != c


class TestSynthExperiment:
    def bank(self) -> tuple[PredictorSpec, ...]:
        return (
            PredictorSpec(name="cv", kind="const_velocity", noise_sigma=0.1,
                          mode_count=3, temperature=0.5),
            PredictorSpec(name="orc", kind="noisy_oracle", noise_sigma=0.4,
                          mode_count=3, temperature=0.5),
        )

    def test_validation(self):
        config = small_config()
        with pytest.raises(InvalidInput):
            synth_experiment(config, self.bank()[:1])
        twins = (self.bank()[0], self.bank()[0])
        with pytest.raises(InvalidInput):
            synth_experiment(config, twins)
        with pytest.raises(InvalidInput):
            synth_experiment(config, self.bank(), strategies=("median",))
        with pytest.raises(InvalidInput):
            synth_experiment(config, self.bank(), strategies=("threshold",))
        with pytest.raises(InvalidInput):
            synth_experiment(config, self.bank(), strategies=("threshold",),
                             primary_model="stranger")
        with pytest.raises(InvalidInput):
            synth_experiment(config, self.bank(), threads=0)

    def test_ledger_covers_members_and_ensembles(self):
        config = small_config()
        result = synth_experiment(config, self.bank())
        assert result.ledger.method_ids() == ("cv", "ensemble_simple",
                                              "ensemble_weighted", "orc")
        for method in result.ledger.method_ids():
            assert result.ledger.sample_count(method) == config.sample_count
        assert [row["method"] for row in result.summary] == list(result.ledger.method_ids())
        assert result.predictor_names == ("cv", "orc")

    def test_clean_oracle_dominates_weighted_fusion(self):
        # A noiseless oracle holds confidence 1 everywhere, so weighted
        # fusion should ride it and the blind member barely registers.
        predictors = (
            PredictorSpec(name="cv", kind="const_velocity", noise_sigma=0.0,
                          temperature=0.25),
            PredictorSpec(name="orc", kind="noisy_oracle", noise_sigma=0.0,
                          temperature=0.25),
        )
        config = small_config(sample_count=50, horizon=8, noise_sigma=0.0)
        result = synth_experiment(config, predictors)
        row = {r["method"]: r for r in result.summary}
        assert row["orc"]["overall_ade"] == 0.0
        assert row["ensemble_weighted"]["overall_ade"] < 0.05
        assert row["ensemble_weighted"]["overall_ade"] < row["cv"]["overall_ade"]
        assert row["ensemble_weighted"]["overall_ade"] < row["ensemble_simple"]["overall_ade"]

    def test_threshold_zero_tau_shadows_primary(self):
        config = small_config()
        result = synth_experiment(config, self.bank(), strategies=("threshold",),
                                  primary_model="cv", tau=0.0)
        for i in range(config.sample_count):
            sid = f"s{i:06d}"
            assert result.ledger.row("ensemble_threshold", sid) == result.ledger.row("cv", sid)

    def test_threshold_unreachable_tau_matches_weighted(self):
        config = small_config()
        result = synth_experiment(config, self.bank(),
                                  strategies=("weighted", "threshold"),
                                  primary_model="cv", tau=1.5)
        for i in range(config.sample_count):
            sid = f"s{i:06d}"
            assert (result.ledger.row("ensemble_threshold", sid)
                    == result.ledger.row("ensemble_weighted", sid))

    def test_thread_count_does_not_change_results(self):
        config = small_config(sample_count=60)
        serial = synth_experiment(config, self.bank(), threads=1)
        threaded = synth_experiment(config, self.bank(), threads=4)
        assert sorted(serial.ledger) == sorted(threaded.ledger)
        assert serial.summary == threaded.summary

    def test_hook_sees_samples_in_order(self, three_workers):
        """What the hook returns comes back in sample order from every worker."""
        config = small_config(sample_count=25)
        result = synth_experiment(
            config, self.bank(), threads=3,
            sample_hook=lambda sc, sa, fu: (sc.sample_id, sa.sample_id, sorted(fu)))
        assert len(three_workers) == 3
        assert result.hook_results == [(f"s{i:06d}", f"s{i:06d}", ["simple", "weighted"])
                                       for i in range(25)]

    def test_no_hook_no_results(self):
        assert synth_experiment(small_config(sample_count=5), self.bank()).hook_results == []

    def test_worker_error_is_the_serial_error(self, three_workers):
        # 40 samples on 3 workers: [0, 13), [13, 26), [26, 40).  Both forked
        # ranges fail; a serial run meets the lower range's error first.
        def hook(scenario, sample, fused):
            if sample.sample_id in ("s000020", "s000035"):
                raise InvalidInput(f"hook refused {sample.sample_id}")

        errors = []
        for threads in (1, 3):
            with pytest.raises(InvalidInput) as caught:
                synth_experiment(small_config(), self.bank(), threads=threads, sample_hook=hook)
            errors.append((type(caught.value), str(caught.value)))
        assert errors == [(InvalidInput, "hook refused s000020")] * 2
        assert len(three_workers) == 3
        assert all(reaped(pid) for pid in three_workers)

    def test_killed_worker_names_its_range(self, three_workers):
        parent = os.getpid()

        def hook(scenario, sample, fused):
            if os.getpid() != parent and sample.sample_id == "s000015":
                os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(TrajfuseError) as caught:
            synth_experiment(small_config(), self.bank(), threads=3, sample_hook=hook)
        assert str(caught.value) == ("synth worker for samples [13, 26) was killed by SIGKILL "
                                     "without a result")
        assert len(three_workers) == 3
        assert all(reaped(pid) for pid in three_workers)

    def test_worker_that_cannot_send_its_memory_error(self, monkeypatch, three_workers):
        """A worker out of memory even to pickle its error raises MemoryError, as one part does."""
        parent = os.getpid()
        dumps = pickle.dumps

        def exhausted(*args, **kwargs):
            if os.getpid() != parent:
                raise MemoryError
            return dumps(*args, **kwargs)

        def run(part):
            raise MemoryError

        monkeypatch.setattr(pickle, "dumps", exhausted)
        for parts in ([1], [0, 1]):
            with pytest.raises(MemoryError):
                workers.fork_map(run, parts, str)
        assert len(three_workers) == 2
        assert all(reaped(pid) for pid in three_workers)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    @pytest.mark.parametrize("fails", [False, True], ids=["success", "error"])
    def test_caller_cpu_set_restored(self, monkeypatch, three_workers, fails):
        """The caller's CPU set never changes: every range runs, and is pinned, in a worker."""
        mask = os.sched_getaffinity(0)
        setaffinity = os.sched_setaffinity
        pinned, seen = [], []

        def recording_setaffinity(pid, cpus):
            pinned.append(cpus)
            setaffinity(pid, cpus)

        def hook(scenario, sample, fused):
            seen.append(sample.sample_id)
            if fails:
                raise InvalidInput("refused")

        monkeypatch.setattr(os, "sched_setaffinity", recording_setaffinity)
        try:
            synth_experiment(small_config(sample_count=6), self.bank(), threads=3,
                             sample_hook=hook)
        except InvalidInput:
            assert fails
        assert os.sched_getaffinity(0) == mask
        # Only the workers pinned themselves, and no hook ran here.
        assert pinned == [] and seen == []
        assert len(three_workers) == 3
        assert all(reaped(pid) for pid in three_workers)

    def test_runs_unpinned_without_cpu_affinity(self, monkeypatch, three_workers):
        config = small_config(sample_count=9)
        serial = synth_experiment(config, self.bank(), threads=1)
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        forked = synth_experiment(config, self.bank(), threads=3)
        assert forked.summary == serial.summary
        assert len(three_workers) == 3
        assert all(reaped(pid) for pid in three_workers)

    def test_unpicklable_hook_result_is_an_error(self, three_workers):
        with pytest.raises(Exception, match="pickle"):
            synth_experiment(small_config(sample_count=6), self.bank(), threads=3,
                             sample_hook=lambda sc, sa, fu: lambda: None)
        assert all(reaped(pid) for pid in three_workers)


class TestWorkerCount:
    """The worker-count cap, checked without starting a process."""

    @pytest.fixture(autouse=True)
    def no_fork(self, monkeypatch):
        def refuse():
            raise AssertionError("os.fork called")
        monkeypatch.setattr(os, "fork", refuse)

    def test_capped_by_usable_cpus_and_samples(self, monkeypatch):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        assert workers.worker_count(100_000, 10_000) == 2
        assert workers.worker_count(1, 10_000) == 1
        assert workers.worker_count(100_000, 1) == 1
        assert workers.worker_count(100_000, 0) == 1
        config = small_config(sample_count=1)
        result = synth_experiment(config, TestSynthExperiment().bank(), threads=100_000)
        assert len(result.ledger) == 4

    def test_one_worker_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert workers.worker_count(8, 100) == 1

    def test_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert workers.usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert workers.usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert workers.usable_cpus() == 1


class TestPinnedSetup:
    def test_frozen_values(self):
        config = pinned_config()
        assert (config.horizon, config.dt, config.seed) == (12, 0.5, PINNED_SEED)
        assert config.sample_count == 10_000
        assert config.mix == (0.45, 0.35, 0.20)
        names = [p.name for p in pinned_predictors()]
        assert names == ["const_velocity", "const_turn_rate", "noisy_oracle"]
        assert PINNED_PRIMARY in names

    def test_constants(self):
        assert MANEUVERS == ("straight", "constant_turn", "lane_change")
        assert PREDICTOR_KINDS == ("const_velocity", "const_turn_rate", "noisy_oracle")


class TestCalibration:
    def test_confidence_tracks_error(self, pinned_run):
        """Per member, higher confidence must mean lower error on the pinned run."""
        for name, pairs in pinned_run.confidence_error_pairs.items():
            confs = [c for c, _ in pairs]
            errors = [e for _, e in pairs]
            rho = stats.spearmanr(confs, errors).statistic
            assert rho < -0.2, f"{name}: spearman {rho:.3f}"
