"""Wire formats: dataset manifest, NDJSON dumps, and report files.

A dataset on disk is a JSON manifest (who/how long/how many) plus
newline-delimited JSON records for predictions, ground truth, and fused
outputs, one object per line.  Readers are streaming generators that
validate strictly: NaN/Inf tokens, unknown keys, duplicate records, and
values that disagree with the manifest are all ParseErrors with file and
line context.  Writers sort records (sample_id, then model_id) and emit
full-precision floats so identical inputs produce byte-identical files.
Every writer replaces its destination atomically: it writes a temporary
file in the same directory and renames it over the destination, so a
failed write leaves the previous file (or none) and no partial one.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

from .core import Mode, ModelOutput, Trajectory
from .errors import HorizonMismatch, InvalidInput, NumericalError, ParseError
from .fusion import STRATEGIES, CovarianceSummary, FusedPrediction, Weights
from .metrics import DEFAULT_K_LIST, OverlapReport, _k_label

__all__ = [
    "FORMAT_VERSION",
    "DatasetManifest",
    "GroundTruthRecord",
    "load_manifest",
    "write_manifest",
    "load_predictions",
    "write_predictions",
    "load_ground_truth",
    "write_ground_truth",
    "load_fused",
    "write_fused",
    "write_report",
    "write_flags",
]

FORMAT_VERSION = 1


@dataclass(frozen=True, slots=True)
class DatasetManifest:
    """Shared metadata every record in a dataset must agree with."""

    dataset_name: str
    horizon: int
    dt: float
    model_ids: tuple[str, ...]
    sample_count: int
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        if not self.dataset_name:
            raise InvalidInput("dataset_name must be nonempty")
        if not (isinstance(self.horizon, int) and self.horizon >= 1):
            raise InvalidInput(f"horizon must be an integer >= 1, got {self.horizon!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise InvalidInput(f"dt must be positive and finite, got {self.dt!r}")
        if len(self.model_ids) < 1:
            raise InvalidInput("model_ids must be nonempty")
        if len(set(self.model_ids)) != len(self.model_ids):
            raise InvalidInput("model_ids must be distinct")
        if not (isinstance(self.sample_count, int) and self.sample_count >= 0):
            raise InvalidInput(f"sample_count must be an integer >= 0, got {self.sample_count!r}")
        if self.format_version != FORMAT_VERSION:
            raise InvalidInput(f"unsupported format_version {self.format_version!r}")


@dataclass(frozen=True, slots=True)
class GroundTruthRecord:
    """One sample's observed future trajectory."""

    sample_id: str
    trajectory: Trajectory


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token '{token}'")


def _parse_line(raw: str, path: str, line: int) -> dict:
    try:
        obj = json.loads(raw, parse_constant=_reject_constant)
    except ValueError as e:
        raise ParseError(str(e), path=path, line=line) from None
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object", path=path, line=line)
    return obj


def _check_keys(obj: Mapping, required: tuple[str, ...], path: str, line: int | None) -> None:
    for key in required:
        if key not in obj:
            raise ParseError("missing required field", path=path, line=line, field=key)
    unknown = set(obj) - set(required)
    if unknown:
        raise ParseError(
            f"unknown field(s): {', '.join(sorted(unknown))}", path=path, line=line
        )


def _get_str(obj: Mapping, key: str, path: str, line: int | None) -> str:
    v = obj[key]
    if not isinstance(v, str) or not v:
        raise ParseError(f"expected a nonempty string, got {v!r}", path=path, line=line, field=key)
    return v


def _get_number(obj: Mapping, key: str, path: str, line: int | None) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"expected a number, got {v!r}", path=path, line=line, field=key)
    v = float(v)
    if not math.isfinite(v):
        raise ParseError(f"expected a finite number, got {v!r}", path=path, line=line, field=key)
    return v


def _get_int(obj: Mapping, key: str, path: str, line: int | None) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"expected an integer, got {v!r}", path=path, line=line, field=key)
    return v


def _get_points(obj: Mapping, key: str, path: str, line: int | None) -> list[tuple[float, float]]:
    v = obj[key]
    if not isinstance(v, list) or len(v) < 1:
        raise ParseError("expected a nonempty list of [x, y] pairs", path=path, line=line, field=key)
    points = []
    for pair in v:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"expected an [x, y] pair, got {pair!r}", path=path, line=line, field=key)
        x, y = pair
        for coord in (x, y):
            if isinstance(coord, bool) or not isinstance(coord, (int, float)):
                raise ParseError(
                    f"expected a numeric coordinate, got {coord!r}", path=path, line=line, field=key
                )
            if not math.isfinite(float(coord)):
                raise ParseError(
                    f"non-finite coordinate {coord!r}", path=path, line=line, field=key
                )
        points.append((float(x), float(y)))
    return points


def _lines(path: str) -> Iterator[tuple[int, str]]:
    with open(path, "r", encoding="utf-8") as f:
        for i, raw in enumerate(f, start=1):
            stripped = raw.rstrip("\n")
            if not stripped.strip():
                raise ParseError("blank line", path=path, line=i)
            yield i, stripped


@contextmanager
def _replacing(path: str, newline: str) -> Iterator[TextIO]:
    """Open a temporary file beside ``path``; on success it replaces ``path``.

    The temporary file gets the mode plain ``open(path, "w")`` would give
    (unlike ``mkstemp``'s 0600), and is removed if the write fails.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_manifest(path: str) -> DatasetManifest:
    """Read and validate a dataset manifest JSON file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            obj = json.load(f, parse_constant=_reject_constant)
        except ValueError as e:
            raise ParseError(str(e), path=path) from None
    if not isinstance(obj, dict):
        raise ParseError("manifest must be a JSON object", path=path)
    fields = ("format_version", "dataset_name", "horizon", "dt", "model_ids", "sample_count")
    _check_keys(obj, fields, path, None)
    version = _get_int(obj, "format_version", path, None)
    if version != FORMAT_VERSION:
        raise ParseError(
            f"unsupported format_version {version} (this reader handles {FORMAT_VERSION})",
            path=path, field="format_version",
        )
    model_ids = obj["model_ids"]
    if not isinstance(model_ids, list) or not all(isinstance(m, str) and m for m in model_ids):
        raise ParseError("model_ids must be a list of nonempty strings", path=path, field="model_ids")
    horizon = _get_int(obj, "horizon", path, None)
    dt = _get_number(obj, "dt", path, None)
    sample_count = _get_int(obj, "sample_count", path, None)
    try:
        return DatasetManifest(
            dataset_name=_get_str(obj, "dataset_name", path, None),
            horizon=horizon,
            dt=dt,
            model_ids=tuple(model_ids),
            sample_count=sample_count,
        )
    except InvalidInput as e:
        raise ParseError(str(e), path=path) from None


def write_manifest(path: str, manifest: DatasetManifest) -> None:
    payload = {
        "format_version": manifest.format_version,
        "dataset_name": manifest.dataset_name,
        "horizon": manifest.horizon,
        "dt": manifest.dt,
        "model_ids": list(manifest.model_ids),
        "sample_count": manifest.sample_count,
    }
    _write_json(path, payload)


def load_predictions(path: str, manifest: DatasetManifest) -> Iterator[ModelOutput]:
    """Stream validated ModelOutputs from an NDJSON prediction dump.

    Each line holds one (sample_id, model_id) record with all of that
    model's modes.  Unknown model ids and duplicate (sample, model)
    pairs are ParseErrors; a horizon that disagrees with the manifest is
    a HorizonMismatch.
    """
    known = set(manifest.model_ids)
    seen: set[tuple[str, str]] = set()
    for line_no, raw in _lines(path):
        obj = _parse_line(raw, path, line_no)
        _check_keys(obj, ("sample_id", "model_id", "modes"), path, line_no)
        sample_id = _get_str(obj, "sample_id", path, line_no)
        model_id = _get_str(obj, "model_id", path, line_no)
        if model_id not in known:
            raise ParseError(
                f"model_id '{model_id}' not listed in manifest", path=path, line=line_no,
                field="model_id",
            )
        key = (sample_id, model_id)
        if key in seen:
            raise ParseError(
                f"duplicate record for sample '{sample_id}', model '{model_id}'",
                path=path, line=line_no,
            )
        seen.add(key)
        raw_modes = obj["modes"]
        if not isinstance(raw_modes, list) or len(raw_modes) < 1:
            raise ParseError("modes must be a nonempty list", path=path, line=line_no, field="modes")
        modes = []
        for raw_mode in raw_modes:
            if not isinstance(raw_mode, dict):
                raise ParseError("mode must be a JSON object", path=path, line=line_no, field="modes")
            _check_keys(raw_mode, ("confidence", "points"), path, line_no)
            confidence = _get_number(raw_mode, "confidence", path, line_no)
            points = _get_points(raw_mode, "points", path, line_no)
            if len(points) != manifest.horizon:
                raise HorizonMismatch(
                    f"{path}:{line_no}: mode has {len(points)} points, manifest horizon is "
                    f"{manifest.horizon}"
                )
            try:
                modes.append(Mode(Trajectory.from_xy(points, dt=manifest.dt), confidence))
            except InvalidInput as e:
                raise ParseError(str(e), path=path, line=line_no) from None
        try:
            yield ModelOutput(model_id=model_id, sample_id=sample_id, modes=tuple(modes))
        except InvalidInput as e:
            raise ParseError(str(e), path=path, line=line_no) from None


def write_predictions(path: str, outputs: Iterable[ModelOutput]) -> None:
    """Dump ModelOutputs as NDJSON sorted by (sample_id, model_id)."""
    records: list[tuple[tuple[str, str], str]] = []
    seen: set[tuple[str, str]] = set()
    for out in outputs:
        key = (out.sample_id, out.model_id)
        if key in seen:
            raise InvalidInput(f"duplicate output for sample '{out.sample_id}', model '{out.model_id}'")
        seen.add(key)
        payload = {
            "sample_id": out.sample_id,
            "model_id": out.model_id,
            "modes": [
                {
                    "confidence": float(mode.confidence),
                    "points": [[float(p.x), float(p.y)] for p in mode.trajectory.points],
                }
                for mode in out.modes
            ],
        }
        records.append((key, json.dumps(payload, sort_keys=True)))
    records.sort(key=lambda item: item[0])
    with _replacing(path, newline="\n") as f:
        for _, line in records:
            f.write(line)
            f.write("\n")


def load_ground_truth(path: str, manifest: DatasetManifest) -> Iterator[GroundTruthRecord]:
    """Stream ground-truth records, enforcing the manifest horizon."""
    seen: set[str] = set()
    for line_no, raw in _lines(path):
        obj = _parse_line(raw, path, line_no)
        _check_keys(obj, ("sample_id", "points"), path, line_no)
        sample_id = _get_str(obj, "sample_id", path, line_no)
        if sample_id in seen:
            raise ParseError(f"duplicate ground truth for sample '{sample_id}'",
                             path=path, line=line_no)
        seen.add(sample_id)
        points = _get_points(obj, "points", path, line_no)
        if len(points) != manifest.horizon:
            raise HorizonMismatch(
                f"{path}:{line_no}: ground truth has {len(points)} points, manifest horizon is "
                f"{manifest.horizon}"
            )
        yield GroundTruthRecord(sample_id, Trajectory.from_xy(points, dt=manifest.dt))


def write_ground_truth(path: str, records: Iterable[GroundTruthRecord]) -> None:
    lines: list[tuple[str, str]] = []
    seen: set[str] = set()
    for rec in records:
        if rec.sample_id in seen:
            raise InvalidInput(f"duplicate ground truth for sample '{rec.sample_id}'")
        seen.add(rec.sample_id)
        payload = {
            "sample_id": rec.sample_id,
            "points": [[float(p.x), float(p.y)] for p in rec.trajectory.points],
        }
        lines.append((rec.sample_id, json.dumps(payload, sort_keys=True)))
    lines.sort(key=lambda item: item[0])
    with _replacing(path, newline="\n") as f:
        for _, line in lines:
            f.write(line)
            f.write("\n")


_FUSED_FIELDS = (
    "sample_id", "strategy", "dt", "points", "weights", "covariance",
    "determinant", "confidence", "notes",
)


def load_fused(path: str) -> Iterator[FusedPrediction]:
    """Stream fused predictions written by write_fused."""
    seen: set[str] = set()
    for line_no, raw in _lines(path):
        obj = _parse_line(raw, path, line_no)
        _check_keys(obj, _FUSED_FIELDS, path, line_no)
        sample_id = _get_str(obj, "sample_id", path, line_no)
        if sample_id in seen:
            raise ParseError(f"duplicate fused record for sample '{sample_id}'",
                             path=path, line=line_no)
        seen.add(sample_id)
        strategy = _get_str(obj, "strategy", path, line_no)
        if strategy not in STRATEGIES:
            raise ParseError(f"unknown strategy '{strategy}'", path=path, line=line_no,
                             field="strategy")
        dt = _get_number(obj, "dt", path, line_no)
        points = _get_points(obj, "points", path, line_no)
        raw_weights = obj["weights"]
        if not isinstance(raw_weights, list):
            raise ParseError("weights must be a list of [model_id, weight] pairs",
                             path=path, line=line_no, field="weights")
        entries = []
        for pair in raw_weights:
            if (not isinstance(pair, list) or len(pair) != 2
                    or not isinstance(pair[0], str)
                    or isinstance(pair[1], bool)
                    or not isinstance(pair[1], (int, float))):
                raise ParseError(f"bad weight entry {pair!r}", path=path, line=line_no,
                                 field="weights")
            entries.append((pair[0], float(pair[1])))
        raw_cov = obj["covariance"]
        if not isinstance(raw_cov, list):
            raise ParseError("covariance must be a 2x2 matrix", path=path, line=line_no,
                             field="covariance")
        raw_notes = obj["notes"]
        if not isinstance(raw_notes, list) or not all(isinstance(n, str) for n in raw_notes):
            raise ParseError("notes must be a list of strings", path=path, line=line_no,
                             field="notes")
        determinant = _get_number(obj, "determinant", path, line_no)
        confidence = _get_number(obj, "confidence", path, line_no)
        try:
            cov = CovarianceSummary.from_matrix(raw_cov)
            if abs(cov.det - determinant) > 1e-9:
                raise InvalidInput(
                    f"stored determinant {determinant!r} disagrees with matrix ({cov.det!r})"
                )
            fused = FusedPrediction(
                sample_id=sample_id,
                trajectory=Trajectory.from_xy(points, dt=dt),
                weights=Weights(tuple(entries)),
                covariance=cov,
                confidence=confidence,
                strategy=strategy,
                notes=tuple(raw_notes),
            )
        except (InvalidInput, HorizonMismatch, NumericalError) as e:
            raise ParseError(str(e), path=path, line=line_no) from None
        yield fused


def write_fused(path: str, fused: Iterable[FusedPrediction]) -> None:
    """Dump fused predictions as NDJSON sorted by sample_id, full precision."""
    lines: list[tuple[str, str]] = []
    seen: set[str] = set()
    for pred in fused:
        if pred.sample_id in seen:
            raise InvalidInput(f"duplicate fused prediction for sample '{pred.sample_id}'")
        seen.add(pred.sample_id)
        cov = pred.covariance
        payload = {
            "sample_id": pred.sample_id,
            "strategy": pred.strategy,
            "dt": pred.trajectory.dt,
            "points": [[float(p.x), float(p.y)] for p in pred.trajectory.points],
            "weights": [[mid, w] for mid, w in pred.weights.entries],
            "covariance": [[cov.xx, cov.xy], [cov.xy, cov.yy]],
            "determinant": cov.det,
            "confidence": pred.confidence,
            "notes": list(pred.notes),
        }
        lines.append((pred.sample_id, json.dumps(payload, sort_keys=True)))
    lines.sort(key=lambda item: item[0])
    with _replacing(path, newline="\n") as f:
        for _, line in lines:
            f.write(line)
            f.write("\n")


def _report_header(k_list: Sequence[float]) -> list[str]:
    header = ["method"]
    for k in k_list:
        header.append(f"top{_k_label(k)}_ade")
        header.append(f"top{_k_label(k)}_fde")
    header.extend(["overall_ade", "overall_fde"])
    return header


def write_report(
    path: str,
    report: Sequence[Mapping[str, object]] | OverlapReport,
    fmt: str = "csv",
    k_list: Sequence[float] = DEFAULT_K_LIST,
) -> None:
    """Write a summary table or overlap report as CSV (2 decimals) or JSON.

    CSV is for eyeballs and spreadsheets, so errors are rounded the way
    result tables usually print them; JSON keeps full float precision
    for downstream tooling.  An empty summary yields a header-only CSV.
    ``k_list`` only matters for that empty-summary header.
    """
    _check_format(fmt)
    if isinstance(report, OverlapReport):
        if fmt == "json":
            _write_json(path, report.as_dict())
            return
        with _replacing(path, newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["kind", "models", "count", "pct_of_each"])
            writer.writerow(["union", "|".join(report.model_ids), report.union_size, ""])
            for m in report.model_ids:
                writer.writerow(["size", m, report.sizes[m], "100.00"])
            for m in report.model_ids:
                writer.writerow([
                    "exclusive", m, report.exclusive[m],
                    f"{report.pct_of(report.exclusive[m], m):.2f}",
                ])
            for pair, count in sorted(report.pairwise.items()):
                pcts = "|".join(f"{report.pct_of(count, m):.2f}" for m in pair)
                writer.writerow(["pairwise", "|".join(pair), count, pcts])
            pcts = "|".join(
                f"{report.pct_of(report.common_all, m):.2f}" for m in report.model_ids
            )
            writer.writerow(["common_all", "|".join(report.model_ids), report.common_all, pcts])
        return

    rows = list(report)
    if fmt == "json":
        _write_json(path, rows)
        return
    header = list(rows[0].keys()) if rows else _report_header(k_list)
    with _replacing(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            if list(row.keys()) != header:
                raise InvalidInput("summary rows have inconsistent columns")
            writer.writerow([
                row["method"],
                *(f"{row[col]:.2f}" for col in header[1:]),
            ])


def write_flags(
    path: str,
    flagged: Iterable[tuple[str, float]],
    confidence_floor: float,
    fmt: str = "csv",
) -> None:
    """Write low-confidence (sample_id, confidence) pairs sorted by sample_id.

    CSV keeps each confidence's full-precision repr; JSON also records
    the floor and the count.
    """
    _check_format(fmt)
    flagged = sorted(flagged)
    if fmt == "json":
        _write_json(path, {
            "confidence_floor": confidence_floor,
            "count": len(flagged),
            "flagged": [{"sample_id": sid, "confidence": conf} for sid, conf in flagged],
        })
        return
    with _replacing(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["sample_id", "confidence"])
        for sid, conf in flagged:
            writer.writerow([sid, repr(conf)])


def _check_format(fmt: str) -> None:
    if fmt not in ("csv", "json"):
        raise InvalidInput(f"format must be 'csv' or 'json', got '{fmt}'")


def _write_json(path: str, payload: object) -> None:
    with _replacing(path, newline="\n") as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True))
        f.write("\n")
