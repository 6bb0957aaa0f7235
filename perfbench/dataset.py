"""Benchmark datasets as numpy arrays: seeded generation, dump writing, dump parsing.

The generator is the benchmark's own and does not import trajfuse, so a
change to the synthetic bank in ``trajfuse.synth`` cannot alter the dump
workloads' inputs.  It writes the documented on-disk format: a JSON
manifest plus NDJSON prediction and ground-truth dumps.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

FORMAT_VERSION = 1

# Confidence of a mode is its Boltzmann factor exp(-ADE / T), the same
# rule the synthetic predictor bank uses.
TEMPERATURE = 0.5
DT = 0.5


@dataclass(frozen=True)
class Dataset:
    """One dataset in memory; ``points[m]`` is (N, K_m, H, 2), ``conf[m]`` is (N, K_m)."""

    name: str
    dt: float
    model_ids: tuple[str, ...]
    sample_ids: tuple[str, ...]
    gt: np.ndarray
    points: tuple[np.ndarray, ...]
    conf: tuple[np.ndarray, ...]

    @property
    def samples(self) -> int:
        return len(self.sample_ids)

    @property
    def horizon(self) -> int:
        return self.gt.shape[1]


def ade_of(points: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Mean Euclidean waypoint error over the horizon; points and gt end in (H, 2)."""
    return np.hypot(points[..., 0] - gt[..., 0], points[..., 1] - gt[..., 1]).mean(axis=-1)


def generate(name: str, samples: int, modes: tuple[int, ...], horizon: int, seed: int,
             stream: int) -> Dataset:
    """Seeded ground truth plus one noisy, biased predictor per entry of ``modes``.

    Ground truth is a constant-speed, constant-turn-rate path with a
    little position noise.  Member m's modes are the ground truth plus
    a constant offset and a drift growing with time, both scaled by a
    per-(sample, member) lognormal difficulty, so each member has a long
    tail and members disagree on which samples are hard.  Member skill
    worsens geometrically with its index.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, stream)))
    t = DT * np.arange(1, horizon + 1)
    heading = rng.uniform(0.0, 2.0 * np.pi, samples)
    speed = rng.uniform(3.0, 15.0, samples)
    turn = rng.uniform(-0.3, 0.3, samples)
    angle = heading[:, None] + turn[:, None] * t[None, :]
    step = speed[:, None, None] * DT * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    gt = np.cumsum(step, axis=1) + rng.normal(0.0, 0.05, (samples, horizon, 2))

    skills = np.geomspace(0.1, 1.2, len(modes))
    ramp = (t / t[-1])[None, None, :, None]
    points, conf = [], []
    for skill, k in zip(skills, modes):
        scale = skill * rng.lognormal(0.0, 0.6, samples)[:, None, None, None]
        offset = rng.normal(0.0, 0.5, (samples, k, 1, 2))
        drift = rng.normal(0.0, 1.0, (samples, k, 1, 2))
        jitter = rng.normal(0.0, 0.1, (samples, k, horizon, 2))
        pts = gt[:, None] + scale * (offset + drift * ramp + jitter)
        points.append(pts)
        conf.append(np.exp(-ade_of(pts, gt[:, None]) / TEMPERATURE))
    model_ids = tuple(f"model{j:02d}" for j in range(len(modes)))
    sample_ids = tuple(f"s{i:06d}" for i in range(samples))
    return Dataset(name, DT, model_ids, sample_ids, gt, tuple(points), tuple(conf))


def _prediction_line(ds: Dataset, m: int, i: int) -> str:
    modes = [{"confidence": c, "points": p}
             for c, p in zip(ds.conf[m][i].tolist(), ds.points[m][i].tolist())]
    return json.dumps({"model_id": ds.model_ids[m], "modes": modes,
                       "sample_id": ds.sample_ids[i]}, sort_keys=True)


def write(ds: Dataset, directory: str, one_file_per_model: bool) -> dict:
    """Write manifest, ground truth and predictions; return their paths."""
    os.makedirs(directory, exist_ok=True)
    manifest = os.path.join(directory, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as f:
        json.dump({"format_version": FORMAT_VERSION, "dataset_name": ds.name,
                   "horizon": ds.horizon, "dt": ds.dt, "model_ids": list(ds.model_ids),
                   "sample_count": ds.samples}, f, indent=2, sort_keys=True)
        f.write("\n")
    ground_truth = os.path.join(directory, "ground_truth.ndjson")
    with open(ground_truth, "w", encoding="utf-8") as f:
        for sid, pts in zip(ds.sample_ids, ds.gt.tolist()):
            f.write(json.dumps({"points": pts, "sample_id": sid}, sort_keys=True) + "\n")
    groups = ([[m] for m in range(len(ds.model_ids))] if one_file_per_model
              else [list(range(len(ds.model_ids)))])
    predictions = []
    for group in groups:
        stem = ds.model_ids[group[0]] if one_file_per_model else "all"
        path = os.path.join(directory, f"predictions_{stem}.ndjson")
        with open(path, "w", encoding="utf-8") as f:
            for i in range(ds.samples):
                for m in group:
                    f.write(_prediction_line(ds, m, i) + "\n")
        predictions.append(path)
    return {"manifest": manifest, "ground_truth": ground_truth, "predictions": predictions}


def read(manifest_path: str, prediction_paths: list[str], ground_truth_path: str) -> Dataset:
    """Parse a dump back into arrays, requiring every (sample, member) record exactly once.

    Raises ValueError on a missing, duplicate or misshapen record, so a
    truncated dump can never pass as a smaller dataset.
    """
    with open(manifest_path, encoding="utf-8") as f:
        manifest = json.load(f)
    model_ids = tuple(manifest["model_ids"])
    count, horizon = manifest["sample_count"], manifest["horizon"]
    gt = {}
    with open(ground_truth_path, encoding="utf-8") as f:
        for line in f:
            obj = json.loads(line)
            if obj["sample_id"] in gt:
                raise ValueError(f"duplicate ground truth {obj['sample_id']}")
            gt[obj["sample_id"]] = obj["points"]
    sample_ids = tuple(sorted(gt))
    if len(sample_ids) != count:
        raise ValueError(f"{len(sample_ids)} ground-truth records, manifest says {count}")
    records: dict[tuple[str, str], list] = {}
    for path in prediction_paths:
        with open(path, encoding="utf-8") as f:
            for line in f:
                obj = json.loads(line)
                key = (obj["model_id"], obj["sample_id"])
                if key in records:
                    raise ValueError(f"duplicate prediction {key}")
                records[key] = obj["modes"]
    if len(records) != count * len(model_ids):
        raise ValueError(f"{len(records)} prediction records, expected {count * len(model_ids)}")
    points, conf = [], []
    for mid in model_ids:
        per_sample = [records[(mid, sid)] for sid in sample_ids]
        points.append(np.array([[mode["points"] for mode in modes] for modes in per_sample]))
        conf.append(np.array([[mode["confidence"] for mode in modes] for modes in per_sample]))
    gt_arr = np.array([gt[sid] for sid in sample_ids])
    if gt_arr.shape != (count, horizon, 2) or any(p.shape[2:] != (horizon, 2) for p in points):
        raise ValueError("record shapes disagree with the manifest horizon")
    return Dataset(manifest["dataset_name"], float(manifest["dt"]), model_ids, sample_ids,
                   gt_arr, tuple(points), tuple(conf))
