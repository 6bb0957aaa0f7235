"""Independent numpy oracle for every output the benchmark's commands write.

Nothing here imports trajfuse: fusion, Top-K and overlap are restated
from their documented definitions on whole arrays, so a bug shared with
the package cannot hide.  Each ``check_*`` returns a list of mismatch
messages; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from dataset import Dataset, ade_of

STRATEGIES = ("weighted", "simple", "threshold")
TAU = 0.75
K_LIST = (1, 2, 3, 4, 5, 10)
OVERLAP_K = 10
FALLBACK_NOTE = "all member confidences were zero; fell back to uniform weights"
# The package's own tests hold fused values to 1e-9; above unit magnitude
# the bound is relative, since float error scales with the value.
TOL = 1e-9
# Summary CSVs print two decimals.
CSV_TOL = 0.005 + 1e-9
_MAX_MESSAGES = 5


@dataclass(frozen=True)
class Fused:
    """Expected fused records of one strategy, one row per sample."""

    strategy: tuple[str, ...]
    weights: np.ndarray      # (N, M)
    points: np.ndarray       # (N, H, 2)
    cov: np.ndarray          # (N, 2, 2)
    det: np.ndarray          # (N,)
    conf: np.ndarray         # (N,)
    fallback: np.ndarray     # (N,) bool


@dataclass(frozen=True)
class Expected:
    fused: dict[str, Fused]
    summary: list[list]
    overlap: list[list[str]]


def most_likely(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(N, M, H, 2) trajectories and (N, M) confidences of each member's top mode.

    argmax returns the first maximum, matching the lowest-index tie rule.
    """
    rows = np.arange(ds.samples)
    best = [c.argmax(axis=1) for c in ds.conf]
    traj = np.stack([p[rows, b] for p, b in zip(ds.points, best)], axis=1)
    conf = np.stack([c[rows, b] for c, b in zip(ds.conf, best)], axis=1)
    return traj, conf


def fuse(ds: Dataset, strategy: str, primary: str) -> Fused:
    traj, conf = most_likely(ds)
    n, m = conf.shape
    total = conf.sum(axis=1, keepdims=True)
    fallback = np.zeros(n, dtype=bool) if strategy == "simple" else total[:, 0] == 0.0
    if strategy == "simple":
        weights = np.full((n, m), 1.0 / m)
    else:
        weights = np.where(total > 0, conf / np.where(total > 0, total, 1.0), 1.0 / m)
    mean = np.einsum("nm,nmhd->nhd", weights, traj)
    dev = traj - mean[:, None]
    xx = np.einsum("nm,nmh->nh", weights, dev[..., 0] ** 2).mean(axis=1)
    xy = np.einsum("nm,nmh->nh", weights, dev[..., 0] * dev[..., 1]).mean(axis=1)
    yy = np.einsum("nm,nmh->nh", weights, dev[..., 1] ** 2).mean(axis=1)
    det = np.maximum(xx * yy - xy * xy, 0.0)
    cov = np.stack([np.stack([xx, xy], -1), np.stack([xy, yy], -1)], -2)
    labels = (strategy,) * n
    points = mean
    if strategy == "threshold":
        # The primary passes through verbatim when its own top confidence
        # clears tau; the record then says "threshold", otherwise it is
        # exactly the weighted record.
        p = ds.model_ids.index(primary)
        passed = conf[:, p] >= TAU
        points = np.where(passed[:, None, None], traj[:, p], mean)
        labels = tuple("threshold" if ok else "weighted" for ok in passed)
    return Fused(labels, weights, points, cov, det, 1.0 / (1.0 + det), fallback)


def _errors(traj: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    fde = np.hypot(*(traj[:, -1] - gt[:, -1]).T)
    return ade_of(traj, gt), fde


def _top_count(n: int, k: int) -> int:
    return min(n, max(1, -((-k * n) // 100)))


def _top_mean(errors: np.ndarray, k: int) -> float:
    return float(np.sort(errors)[::-1][:_top_count(len(errors), k)].mean())


def _pct(count: int, size: int) -> str:
    return f"{100.0 * count / size:.2f}"


def expected(ds: Dataset, primary: str) -> Expected:
    """Every fused record, summary row and overlap row the dataset should produce."""
    traj, _ = most_likely(ds)
    fused = {s: fuse(ds, s, primary) for s in STRATEGIES}
    scores = {mid: _errors(traj[:, j], ds.gt) for j, mid in enumerate(ds.model_ids)}
    for s, f in fused.items():
        scores[f"ensemble_{s}"] = _errors(f.points, ds.gt)

    header = ["method"]
    for k in K_LIST:
        header += [f"top{k}_ade", f"top{k}_fde"]
    summary = [header + ["overall_ade", "overall_fde"]]
    for method in sorted(scores):
        ade, fde = scores[method]
        row = [method]
        for k in K_LIST:
            row += [_top_mean(ade, k), _top_mean(fde, k)]
        summary.append(row + [float(ade.mean()), float(fde.mean())])

    # Hardest-set ranking: descending ADE, ties to the smaller sample id
    # (sample ids are sorted, so index order is id order).
    count = _top_count(ds.samples, OVERLAP_K)
    index = np.arange(ds.samples)
    sets = {mid: frozenset(np.lexsort((index, -scores[mid][0]))[:count].tolist())
            for mid in ds.model_ids}
    regions: dict[tuple[str, ...], int] = {}
    for sample in set().union(*sets.values()):
        sig = tuple(sorted(mid for mid in ds.model_ids if sample in sets[mid]))
        regions[sig] = regions.get(sig, 0) + 1
    ids = ds.model_ids
    overlap = [["kind", "models", "count", "pct_of_each"],
               ["union", "|".join(ids), str(sum(regions.values())), ""]]
    overlap += [["size", mid, str(count), "100.00"] for mid in ids]
    for mid in ids:
        excl = regions.get((mid,), 0)
        overlap.append(["exclusive", mid, str(excl), _pct(excl, count)])
    pairs = sorted(tuple(sorted((a, b))) for i, a in enumerate(ids) for b in ids[i + 1:])
    for pair in pairs:
        both = len(sets[pair[0]] & sets[pair[1]])
        overlap.append(["pairwise", "|".join(pair), str(both),
                        "|".join(_pct(both, count) for _ in pair)])
    common = len(frozenset.intersection(*sets.values()))
    overlap.append(["common_all", "|".join(ids), str(common),
                    "|".join(_pct(common, count) for _ in ids)])
    return Expected(fused, summary, overlap)


def _far(got, want) -> np.ndarray:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return np.ones(1, dtype=bool)
    return np.abs(got - want) > TOL * np.maximum(1.0, np.abs(want))


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def check_fused(path: str, ds: Dataset, want: Fused) -> list[str]:
    with open(path, encoding="utf-8") as f:
        recs = [json.loads(line) for line in f]
    if [r["sample_id"] for r in recs] != list(ds.sample_ids):
        return [f"{path}: {len(recs)} records, expected one per sample in id order"]
    bad = []
    if any(r["strategy"] != s for r, s in zip(recs, want.strategy)):
        bad.append(f"{path}: strategy labels differ")
    if any(r["dt"] != ds.dt for r in recs):
        bad.append(f"{path}: dt differs from the manifest")
    if any([w[0] for w in r["weights"]] != list(ds.model_ids) for r in recs):
        bad.append(f"{path}: weight keys differ from the manifest model order")
    notes = [[FALLBACK_NOTE] if fb else [] for fb in want.fallback]
    if [r["notes"] for r in recs] != notes:
        bad.append(f"{path}: notes differ")
    fields = {
        "weights": ([[w[1] for w in r["weights"]] for r in recs], want.weights),
        "points": ([r["points"] for r in recs], want.points),
        "covariance": ([r["covariance"] for r in recs], want.cov),
        "determinant": ([r["determinant"] for r in recs], want.det),
        "confidence": ([r["confidence"] for r in recs], want.conf),
    }
    for name, (got, exp) in fields.items():
        far = _far(got, exp)
        if far.any():
            bad.append(f"{path}: {name} off by more than {TOL} in {int(far.sum())} value(s)")
    return bad


def check_summary(path: str, want: list[list]) -> list[str]:
    got = _read_csv(path)
    if [(r[:1], len(r)) for r in got] != [(r[:1], len(r)) for r in want] or got[0] != want[0]:
        return [f"{path}: methods or columns differ from {[r[0] for r in want[1:]]}"]
    bad = []
    for g, w in zip(got[1:], want[1:]):
        for col, gv, wv in zip(want[0][1:], g[1:], w[1:]):
            if abs(float(gv) - wv) > CSV_TOL:
                bad.append(f"{path}: {w[0]} {col} is {gv}, oracle {wv:.6f}")
    return bad[:_MAX_MESSAGES]


def check_overlap(path: str, want: list[list[str]]) -> list[str]:
    got = _read_csv(path)
    diff = [f"{path}: row {g} != oracle {w}" for g, w in zip(got, want) if g != w]
    if len(got) != len(want):
        diff.append(f"{path}: {len(got)} rows, oracle {len(want)}")
    return diff[:_MAX_MESSAGES]


def check_flags(path: str, ds: Dataset, fused: Fused, floor: float) -> list[str]:
    flagged = np.flatnonzero(fused.conf < floor)
    got = _read_csv(path)
    if got[:1] != [["sample_id", "confidence"]]:
        return [f"{path}: bad header {got[:1]}"]
    if [r[0] for r in got[1:]] != [ds.sample_ids[i] for i in flagged]:
        return [f"{path}: {len(got) - 1} flagged, oracle {len(flagged)}"]
    if _far([float(r[1]) for r in got[1:]], fused.conf[flagged]).any():
        return [f"{path}: flagged confidences differ"]
    return []
