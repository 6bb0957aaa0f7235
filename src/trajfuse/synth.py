"""Seeded synthetic scenarios and cheap heterogeneous predictors.

This is the verification bed: ground truth follows one of three
closed-form maneuvers (straight, constant turn, lane change) and the
member "models" are kinematic extrapolators with different blind spots.
A constant-velocity member nails straights and misses every turn; a
constant-turn-rate member also handles arcs but reads a lane change as
straight (its initial turn rate is zero); a noisy oracle sees the true
future through heavy noise and is mediocre everywhere but blind
nowhere.  Member confidences are Boltzmann factors of per-mode error,
left unnormalized so that the fusion stage's normalization compares
members on an absolute scale; fusion therefore has signal to exploit.

All randomness flows through numpy's seeded PCG64 generator with
per-sample derived seeds, so any subset of samples can be regenerated
independently and runs are reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from . import DEFAULT_K_LIST, DEFAULT_TAU, PINNED_PRIMARY, STRATEGIES
from .core import Mode, ModelOutput, Sample, Trajectory, ade
from .errors import InvalidInput
from .fusion import FusedPrediction
from .metrics import ErrorLedger, _merged, fuse_and_score, summary_table
from .workers import fork_map, worker_count

if TYPE_CHECKING:
    import numpy as np

# Unused here; perfbench/tracing.py rebinds these names on this module.
from .core import fde, select_most_likely  # noqa: F401
from .fusion import fuse_simple, fuse_threshold, fuse_weighted  # noqa: F401

__all__ = [
    "MANEUVERS",
    "PREDICTOR_KINDS",
    "LANE_CHANGE_OFFSET_M",
    "InitialState",
    "Scenario",
    "ScenarioConfig",
    "PredictorSpec",
    "ExperimentResult",
    "scenario_at",
    "run_predictor",
    "generate_samples",
    "synth_experiment",
    "pinned_config",
    "pinned_predictors",
    "PINNED_SEED",
    "PINNED_PRIMARY",
]

MANEUVERS = ("straight", "constant_turn", "lane_change")

PREDICTOR_KINDS = ("const_velocity", "const_turn_rate", "noisy_oracle")

LANE_CHANGE_OFFSET_M = 3.5

# Hypothesis-ladder step sizes: speed scaling for const_velocity, rad/s
# for const_turn_rate, lateral meters for noisy_oracle.
_SPEED_LADDER_STEP = 0.15
_TURN_LADDER_STEP = 0.1
_LATERAL_LADDER_STEP = 0.5


@dataclass(frozen=True, slots=True)
class InitialState:
    """Kinematic state at prediction time, observable by every predictor."""

    x: float
    y: float
    heading: float
    speed: float
    turn_rate: float
    maneuver: str
    lane_dir: int = 1

    def __post_init__(self):
        if self.maneuver not in MANEUVERS:
            raise InvalidInput(f"unknown maneuver '{self.maneuver}'")
        if self.speed < 0:
            raise InvalidInput(f"speed must be >= 0, got {self.speed}")
        if self.lane_dir not in (-1, 1):
            raise InvalidInput(f"lane_dir must be -1 or 1, got {self.lane_dir}")


@dataclass(frozen=True, slots=True)
class Scenario:
    """One generated sample: its id, initial state, and noisy ground truth."""

    sample_id: str
    state: InitialState
    ground_truth: Trajectory


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """Knobs for the scenario generator; fully determined by its seed."""

    sample_count: int
    horizon: int
    dt: float
    mix: tuple[float, float, float] = (0.45, 0.35, 0.20)
    speed_range: tuple[float, float] = (3.0, 15.0)
    turn_rate_range: tuple[float, float] = (0.05, 0.5)
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.sample_count, int) and 1 <= self.sample_count <= 999_999):
            raise InvalidInput(
                f"sample_count must be an integer in [1, 999999], got {self.sample_count!r}"
            )
        if not (isinstance(self.horizon, int) and 1 <= self.horizon <= 1000):
            raise InvalidInput(f"horizon must be an integer in [1, 1000], got {self.horizon!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise InvalidInput(f"dt must be finite and > 0, got {self.dt!r}")
        if len(self.mix) != 3 or any(not (math.isfinite(p) and p >= 0) for p in self.mix):
            raise InvalidInput(f"mix must be three proportions >= 0, got {self.mix!r}")
        try:
            total = math.fsum(self.mix)
        except OverflowError:  # finite proportions whose sum passes the float range
            total = math.inf
        if abs(total - 1.0) > 1e-9:
            raise InvalidInput(f"mix must sum to 1, got {total!r}")
        for name, (lo, hi) in (("speed_range", self.speed_range),
                               ("turn_rate_range", self.turn_rate_range)):
            if not (math.isfinite(lo) and math.isfinite(hi) and 0 <= lo <= hi):
                raise InvalidInput(f"{name} must satisfy 0 <= lo <= hi, got {(lo, hi)!r}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise InvalidInput(f"noise_sigma must be >= 0, got {self.noise_sigma!r}")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise InvalidInput(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True, slots=True)
class PredictorSpec:
    """One synthetic ensemble member; ``run_predictor`` says how each field shapes its modes."""

    name: str
    kind: str
    noise_sigma: float = 0.0
    mode_count: int = 1
    temperature: float = 1.0

    def __post_init__(self):
        if not self.name:
            raise InvalidInput("predictor name must be nonempty")
        if self.kind not in PREDICTOR_KINDS:
            raise InvalidInput(f"unknown predictor kind '{self.kind}'")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise InvalidInput(f"noise_sigma must be >= 0, got {self.noise_sigma!r}")
        if not (isinstance(self.mode_count, int) and self.mode_count >= 1):
            raise InvalidInput(f"mode_count must be an integer >= 1, got {self.mode_count!r}")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise InvalidInput(f"temperature must be > 0, got {self.temperature!r}")


def _path(maneuver: str, state: InitialState, speed: float, turn_rate: float,
          horizon: int, dt: float) -> list[tuple[float, float]]:
    """The one kinematic formula: a maneuver's unchecked noiseless waypoints from ``state``.

    straight: constant ``speed`` along the heading.  constant_turn: a
    circular arc at ``speed`` and ``turn_rate``.  lane_change: the
    straight path plus a cubic-smoothstep lateral shift that reaches a
    full lane offset exactly at the horizon.
    """
    cos_h = math.cos(state.heading)
    sin_h = math.sin(state.heading)
    coords = []
    if maneuver == "constant_turn" and turn_rate != 0.0:
        radius = speed / turn_rate
        for k in range(1, horizon + 1):
            swept = state.heading + turn_rate * k * dt
            coords.append((
                state.x + radius * (math.sin(swept) - sin_h),
                state.y - radius * (math.cos(swept) - cos_h),
            ))
    else:
        for k in range(1, horizon + 1):
            t = k * dt
            coords.append((state.x + speed * t * cos_h, state.y + speed * t * sin_h))
        if maneuver == "lane_change":
            shifted = []
            for k, (x, y) in enumerate(coords, start=1):
                u = k / horizon
                lateral = state.lane_dir * LANE_CHANGE_OFFSET_M * (3 * u * u - 2 * u * u * u)
                shifted.append((x - lateral * sin_h, y + lateral * cos_h))
            coords = shifted
    return coords


def _rng(entropy: int | tuple[int, ...]) -> np.random.Generator:
    """numpy's PCG64 generator seeded through ``SeedSequence(entropy)``.

    numpy is imported here, on first use, so that the commands that only
    read dumps never pay for importing it.
    """
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(entropy))


def _draw_state(config: ScenarioConfig, rng: np.random.Generator) -> InitialState:
    # All draws happen unconditionally, in a fixed order, so the state
    # layout never depends on which maneuver was picked.
    maneuver_u = rng.random()
    heading = rng.uniform(0.0, 2.0 * math.pi)
    speed = rng.uniform(*config.speed_range)
    turn_mag = rng.uniform(*config.turn_rate_range)
    turn_sign = 1 if rng.random() < 0.5 else -1
    lane_dir = 1 if rng.random() < 0.5 else -1
    p_straight, p_turn, _ = config.mix
    if maneuver_u < p_straight:
        maneuver = "straight"
    elif maneuver_u < p_straight + p_turn:
        maneuver = "constant_turn"
    else:
        maneuver = "lane_change"
    turn_rate = turn_sign * turn_mag if maneuver == "constant_turn" else 0.0
    return InitialState(x=0.0, y=0.0, heading=heading, speed=speed,
                        turn_rate=turn_rate, maneuver=maneuver, lane_dir=lane_dir)


def scenario_at(config: ScenarioConfig, index: int) -> Scenario:
    """Generate the index-th scenario directly; any subset is reproducible."""
    if not 0 <= index < config.sample_count:
        raise InvalidInput(f"index {index} outside [0, {config.sample_count})")
    # Stream 0 is scenario generation; streams 1+ belong to predictors.
    rng = _rng((config.seed, index, 0))
    state = _draw_state(config, rng)
    coords = _path(state.maneuver, state, state.speed, state.turn_rate, config.horizon, config.dt)
    if config.noise_sigma > 0:
        noise = rng.normal(0.0, config.noise_sigma, size=(config.horizon, 2)).tolist()
        coords = [(x + nx, y + ny) for (x, y), (nx, ny) in zip(coords, noise)]
    gt = Trajectory._of(tuple(coords), config.dt)
    return Scenario(sample_id=f"s{index:06d}", state=state, ground_truth=gt)


def _ladder(count: int) -> list[int]:
    """Symmetric hypothesis offsets: 0, -1, +1, -2, +2, ... (count entries)."""
    steps = [0]
    m = 1
    while len(steps) < count:
        steps.append(-m)
        if len(steps) < count:
            steps.append(m)
        m += 1
    return steps


def _hypothesis(spec: PredictorSpec, state: InitialState, gt: Trajectory,
                step: int, horizon: int, dt: float) -> list[tuple[float, float]]:
    if spec.kind == "const_velocity":
        speed = state.speed * max(0.0, 1.0 + step * _SPEED_LADDER_STEP)
        return _path("straight", state, speed, 0.0, horizon, dt)
    if spec.kind == "const_turn_rate":
        turn_rate = state.turn_rate + step * _TURN_LADDER_STEP
        return _path("constant_turn", state, state.speed, turn_rate, horizon, dt)
    # noisy_oracle: the true future shifted laterally per hypothesis.
    lateral = step * _LATERAL_LADDER_STEP
    dx = -lateral * math.sin(state.heading)
    dy = lateral * math.cos(state.heading)
    return [(x + dx, y + dy) for x, y in gt.coords]


def run_predictor(spec: PredictorSpec, scenario: Scenario,
                  seed: int | tuple[int, ...]) -> ModelOutput:
    """Produce one member's K modes and confidences for one scenario.

    Each mode is a kinematic hypothesis (speed, turn-rate, or lateral
    offset ladder around the base extrapolation) plus per-waypoint
    Gaussian noise.  A mode's confidence is the Boltzmann factor
    exp(-ADE/temperature) of the emitted trajectory: the softmax
    numerator, deliberately left unnormalized.
    Normalizing within one model would be shift-invariant and erase how
    good the model is in absolute terms; with raw factors, the fusion
    stage's normalization computes a softmax across all members' chosen
    modes, so confidences are comparable between models by
    construction.
    """
    rng = _rng(seed)
    horizon = scenario.ground_truth.horizon
    dt = scenario.ground_truth.dt
    steps = _ladder(spec.mode_count)
    # One (K, H, 2) draw yields the same numbers as K draws of (H, 2).
    if spec.noise_sigma > 0:
        noise = rng.normal(0.0, spec.noise_sigma, size=(len(steps), horizon, 2)).tolist()
    else:
        noise = [[(0.0, 0.0)] * horizon] * len(steps)
    trajectories = []
    for step, mode_noise in zip(steps, noise):
        hyp = _hypothesis(spec, scenario.state, scenario.ground_truth, step, horizon, dt)
        coords = tuple((x + nx, y + ny)
                       for (x, y), (nx, ny) in zip(hyp, mode_noise))
        trajectories.append(Trajectory._of(coords, dt))
    errors = [ade(traj, scenario.ground_truth) for traj in trajectories]
    modes = tuple(
        Mode(traj, math.exp(-e / spec.temperature))
        for traj, e in zip(trajectories, errors)
    )
    return ModelOutput(model_id=spec.name, sample_id=scenario.sample_id, modes=modes)


@dataclass(frozen=True, slots=True)
class ExperimentResult:
    """Ledger and summary of one synthetic end-to-end run.

    ``hook_results`` holds what the sample hook returned for each
    sample, in sample order (empty without a hook).
    """

    predictor_names: tuple[str, ...]
    ledger: ErrorLedger
    summary: list[dict[str, object]]
    hook_results: list[object]


def generate_samples(
    config: ScenarioConfig,
    predictors: Sequence[PredictorSpec],
    indices: Iterable[int],
) -> Iterator[tuple[Scenario, Sample]]:
    """Yield the scenario at each of ``indices`` with the predictor bank's outputs for it.

    Predictor j draws from the derived seed (config.seed, index, 1 + j).
    """
    for index in indices:
        scenario = scenario_at(config, index)
        outputs = tuple(
            run_predictor(spec, scenario, (config.seed, index, 1 + j))
            for j, spec in enumerate(predictors)
        )
        yield scenario, Sample(sample_id=scenario.sample_id,
                               ground_truth=scenario.ground_truth, outputs=outputs)


SampleHook = Callable[[Scenario, Sample, dict[str, FusedPrediction]], object]


def synth_experiment(
    config: ScenarioConfig,
    predictors: Sequence[PredictorSpec],
    strategies: Sequence[str] = ("weighted", "simple"),
    primary_model: str | None = None,
    tau: float = DEFAULT_TAU,
    k_list: Sequence[float] = DEFAULT_K_LIST,
    sample_hook: SampleHook | None = None,
    threads: int = 1,
) -> ExperimentResult:
    """Generate, predict, fuse, and score, all from one seed.

    Ledger rows cover each member's most-likely mode plus one
    ensemble_<strategy> method per requested strategy.  The optional
    ``sample_hook`` sees every (scenario, sample, fused-by-strategy)
    as it streams past, so callers can encode or dump records without
    this function retaining the samples; what it returns for each
    sample lands in ``hook_results``, in sample order.  ``trajfuse
    synth`` encodes its dump and fused lines in that hook.

    ``threads`` caps the worker processes: the samples split into
    ``workers.worker_count(threads, sample_count)`` contiguous index
    ranges, and ``workers.fork_map`` runs them under its worker contract
    (see there).
    The ranges' ledger rows (added through ``ErrorLedger.add``) and hook
    results are merged in range order, so the result is the same for
    every ``threads``.  ``trajfuse synth`` forks before it imports
    numpy.  OpenBLAS (numpy's, scipy's) stops its pools in a
    ``pthread_atfork`` handler, so a caller that imported numpy forks no
    OpenBLAS thread; threads the caller started itself still run at the
    fork.
    """
    if len(predictors) < 2:
        raise InvalidInput(f"need >= 2 predictors, got {len(predictors)}")
    names = [p.name for p in predictors]
    if len(set(names)) != len(names):
        raise InvalidInput("predictor names must be distinct")
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise InvalidInput(f"unknown strategy '{strategy}'")
    if "threshold" in strategies:
        if primary_model is None:
            raise InvalidInput("threshold strategy requires a primary_model")
        if primary_model not in names:
            raise InvalidInput(f"primary_model '{primary_model}' is not a predictor name")
    if threads < 1:
        raise InvalidInput(f"threads must be >= 1, got {threads}")

    def run(indices: range) -> tuple[ErrorLedger, list[object]]:
        results: list[object] = []
        # Holds at most one entry: fuse_and_score scores a sample, and
        # calls the hook, before it draws the next.
        scenarios: dict[str, Scenario] = {}

        def samples() -> Iterator[Sample]:
            for scenario, sample in generate_samples(config, predictors, indices):
                if sample_hook is not None:
                    scenarios[sample.sample_id] = scenario
                yield sample

        def hook(sample: Sample, fused: dict[str, FusedPrediction]) -> None:
            results.append(sample_hook(scenarios.pop(sample.sample_id), sample, fused))

        ledger = fuse_and_score(samples(), strategies, primary_model, tau,
                                None if sample_hook is None else hook)
        return ledger, results

    n, workers = config.sample_count, worker_count(threads, config.sample_count)
    shards = [range(n * i // workers, n * (i + 1) // workers) for i in range(workers)]
    done = fork_map(
        run, shards, lambda part: f"synth worker for samples [{part.start}, {part.stop})")
    ledger = _merged([part for part, _ in done])
    hook_results = [result for _, results in done for result in results]
    return ExperimentResult(
        predictor_names=tuple(names),
        ledger=ledger,
        summary=summary_table(ledger, k_list),
        hook_results=hook_results,
    )


PINNED_SEED = 271828


def pinned_config(sample_count: int = 10_000) -> ScenarioConfig:
    """The frozen scenario config behind the golden-value tests."""
    return ScenarioConfig(
        sample_count=sample_count,
        horizon=12,
        dt=0.5,
        mix=(0.45, 0.35, 0.20),
        speed_range=(3.0, 15.0),
        turn_rate_range=(0.05, 0.5),
        noise_sigma=0.05,
        seed=PINNED_SEED,
    )


def pinned_predictors() -> tuple[PredictorSpec, ...]:
    """The frozen three-member bank behind the golden-value tests.

    Temperature 0.5 makes the softmax sharp enough that per-sample
    weights track the better members without collapsing to hard
    selection; the oracle's noise is set high enough that it only wins
    where the kinematic members are structurally blind.
    """
    return (
        PredictorSpec(name="const_velocity", kind="const_velocity",
                      noise_sigma=0.15, mode_count=5, temperature=0.5),
        PredictorSpec(name="const_turn_rate", kind="const_turn_rate",
                      noise_sigma=0.15, mode_count=5, temperature=0.5),
        PredictorSpec(name="noisy_oracle", kind="noisy_oracle",
                      noise_sigma=0.8, mode_count=3, temperature=0.5),
    )
