"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

from trajfuse import workers
from trajfuse.core import Mode, ModelOutput, Sample, Trajectory
from trajfuse.metrics import ErrorLedger
from trajfuse.synth import (
    PINNED_PRIMARY,
    pinned_config,
    pinned_predictors,
    synth_experiment,
)

finite_coords = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)

confidences = st.floats(min_value=0.0, max_value=1e6,
                        allow_nan=False, allow_infinity=False)


def trajectories(horizon: int | None = None, dt: float = 1.0) -> st.SearchStrategy[Trajectory]:
    sizes = st.just(horizon) if horizon else st.integers(min_value=1, max_value=12)
    return sizes.flatmap(
        lambda n: st.lists(
            st.tuples(finite_coords, finite_coords), min_size=n, max_size=n
        ).map(lambda pts: Trajectory(pts, dt=dt))
    )


@st.composite
def fusion_samples(draw, min_members: int = 2, max_members: int = 5,
                   require_positive_confidence: bool = True) -> Sample:
    """A Sample whose members share one horizon, each with 1-3 modes."""
    horizon = draw(st.integers(min_value=1, max_value=10))
    n_members = draw(st.integers(min_value=min_members, max_value=max_members))
    outputs = []
    any_positive = False
    for i in range(n_members):
        n_modes = draw(st.integers(min_value=1, max_value=3))
        modes = []
        for _ in range(n_modes):
            traj = draw(trajectories(horizon=horizon))
            conf = draw(confidences)
            modes.append(Mode(traj, conf))
            if conf > 0:
                any_positive = True
        outputs.append(ModelOutput(f"m{i}", "s0", tuple(modes)))
    if require_positive_confidence and not any_positive:
        forced = outputs[0]
        bumped = (Mode(forced.modes[0].trajectory, 1.0),) + forced.modes[1:]
        outputs[0] = ModelOutput(forced.model_id, forced.sample_id, bumped)
    return Sample(sample_id="s0", ground_truth=None, outputs=tuple(outputs))


@st.composite
def ledgers(draw, max_samples: int = 60) -> ErrorLedger:
    """A single-method ledger with occasional ties from quantization."""
    n = draw(st.integers(min_value=1, max_value=max_samples))
    quantize = draw(st.booleans())
    ledger = ErrorLedger()
    for i in range(n):
        e_ade = draw(st.floats(min_value=0, max_value=100,
                               allow_nan=False, allow_infinity=False))
        e_fde = draw(st.floats(min_value=0, max_value=100,
                               allow_nan=False, allow_infinity=False))
        if quantize:
            e_ade = round(e_ade, 1)
            e_fde = round(e_fde, 1)
        ledger.add("m", f"s{i:04d}", e_ade, e_fde)
    return ledger


@dataclass(frozen=True)
class PinnedRun:
    """One shared execution of the pinned synthetic experiment."""

    result: object
    elapsed_s: float
    confidence_error_pairs: dict[str, list[tuple[float, float]]]


@pytest.fixture(scope="session")
def pinned_run() -> PinnedRun:
    """Run the pinned 10k-sample experiment once per session, timed serial."""
    from trajfuse.core import ade, select_most_likely

    pairs: dict[str, list[tuple[float, float]]] = {}

    def hook(scenario, sample, fused):
        for output in sample.outputs:
            best = select_most_likely(output)
            pairs.setdefault(output.model_id, []).append(
                (best.confidence, ade(best.trajectory, scenario.ground_truth))
            )

    start = time.perf_counter()
    result = synth_experiment(
        pinned_config(),
        pinned_predictors(),
        strategies=("weighted", "simple", "threshold"),
        primary_model=PINNED_PRIMARY,
        sample_hook=hook,
        threads=1,
    )
    elapsed = time.perf_counter() - start
    return PinnedRun(result=result, elapsed_s=elapsed, confidence_error_pairs=pairs)


@pytest.fixture
def three_workers(monkeypatch) -> list[int]:
    """Three usable CPUs for the worker count on any host, and the list of pids forked."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
    pids: list[int] = []
    fork = os.fork

    def recording_fork() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def weight_values(fused) -> tuple[float, ...]:
    """A fused record's weights in reported order, without their model ids."""
    return tuple(w for _, w in fused.weights.entries)


def reaped(pid: int) -> bool:
    """Whether ``pid`` is no longer a child of this process, running or waiting to be reaped."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
