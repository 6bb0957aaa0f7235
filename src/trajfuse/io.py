"""Wire formats: dataset manifest, NDJSON dumps, and report files.

A dataset on disk is a JSON manifest (who/how long/how many) plus
newline-delimited JSON records for predictions, ground truth, and fused
outputs, one object per line.  The records come from models this package
does not control, so reading is strict and goes through one path: one
reader (``_records``) decodes every NDJSON line as UTF-8 JSON and checks
its exact field set, its key strings and duplicate keys, and one check
(``_number``) admits every number read from a file, refusing booleans,
integers beyond float range and non-finite values; shapes are checked
before any element is read.  Coordinates that decode as floats skip
``_number``: the ``Trajectory`` they build refuses a non-finite one, and
the loader reports that as a ParseError for the record's ``points``.
Any malformed input, non-UTF-8 bytes and over-deep nesting included, is
a ParseError (or a HorizonMismatch) with file and line context, never
another exception; so is a JSON object that repeats a member name.

A dataset is read in parts, its files in any line order:
``map_sample_ranges`` cuts it into contiguous sample-id ranges
(``SampleRange``), and ``workers.fork_map`` runs one range here or each
range in its own process.  That process reads every line of each file
but decodes only those whose sample_id, found by a byte search that
admits any JSON whitespace around the colon, falls in its range.
A dataset that is not whole is refused: the whole-dataset rules are
checked once, on the parts' summed counts.

Each record kind has one encoder (``prediction_line``,
``ground_truth_line``, ``fused_line``) that turns a record into its sort
key and its NDJSON line with full-precision floats, and one writer
(``write_lines``) sorts the lines (sample_id, then model_id), so
identical inputs produce byte-identical files.  Encoding is separate
from writing so that ``synth`` can encode in the worker that made a
sample and write in the parent.  Every writer replaces its destination
atomically: it writes a temporary file in the same directory, fsyncs
it, renames it over the destination and fsyncs the directory, so a
failed write leaves the previous file (or none) and no partial one.
Writers given the list that ``replacing_together`` yields hold their
renames back until every file of the set is written, so a set of files
is replaced as a whole or not at all.
"""

from __future__ import annotations

import csv
import errno
import json
import math
import os
import re
import reprlib
import stat
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO, TypeVar

from . import DEFAULT_K_LIST, STRATEGIES
from .core import Mode, ModelOutput, Sample, Trajectory
from .errors import HorizonMismatch, InvalidInput, NumericalError, ParseError, TrajfuseError
from .fusion import CovarianceSummary, FusedPrediction, Weights
from .metrics import OverlapReport, _k_label

__all__ = [
    "FORMAT_VERSION",
    "DatasetManifest",
    "GroundTruthRecord",
    "load_manifest",
    "write_manifest",
    "load_predictions",
    "prediction_line",
    "write_predictions",
    "load_ground_truth",
    "ground_truth_line",
    "write_ground_truth",
    "SampleRange",
    "map_sample_ranges",
    "load_fused",
    "fused_line",
    "write_fused",
    "write_lines",
    "replacing_together",
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


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object; a repeated member name makes it ambiguous, so it is refused."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        names = [name for name, _ in pairs]
        repeated = next(name for name in names if names.count(name) > 1)
        raise ValueError(f"member name '{repeated}' repeats in one JSON object")
    return obj


# One decoder for every line: json.loads with parse_constant builds a new one per call.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant, object_pairs_hook=_object)


def _decode(raw: bytes, path: str, line: int | None) -> dict:
    """Decode UTF-8 bytes holding one JSON object; any failure is a ParseError."""
    try:
        obj = _DECODER.decode(raw.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError is a ValueError
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


def _string(v: object, path: str, line: int | None, field: str) -> str:
    if not isinstance(v, str) or not v:
        raise ParseError(f"expected a nonempty string, got {v!r}", path=path, line=line,
                         field=field)
    return v


def _integer(v: object, path: str, line: int | None, field: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"expected an integer, got {v!r}", path=path, line=line, field=field)
    return v


def _number(v: object, path: str, line: int | None, field: str, what: str = "a number") -> float:
    """The one check for a number read from a file: a JSON number that fits a finite float.

    Refuses booleans, non-numbers, integers beyond float range, and
    non-finite values (``1e999`` decodes to infinity).
    """
    if type(v) is int:  # bool is a subclass of int, not int itself
        with suppress(OverflowError):
            v = float(v)
    if type(v) is float and math.isfinite(v):
        return v
    raise ParseError(f"expected {what} that fits a finite float, got {reprlib.repr(v)}",
                     path=path, line=line, field=field)


def _points(v: object, path: str, line: int) -> tuple[tuple[float, float], ...]:
    """A record's ``points`` as a tuple of ``(x, y)`` float pairs.

    Only the fallback for other number types runs ``_number``; a float
    pair may still hold an infinity, which ``Trajectory`` refuses.
    """
    if not isinstance(v, list) or not v:
        raise ParseError("expected a nonempty list of [x, y] pairs", path=path, line=line,
                         field="points")
    # Fast path, in C loops: every pair two floats.  Finiteness is the
    # Trajectory constructor's check, made once by the caller.  A dict or
    # string "pair" becomes a tuple of strings here and so falls through.
    with suppress(TypeError):  # a pair that is a number, a bool or null
        coords = tuple(map(tuple, v))
        if set(map(len, coords)) == {2}:
            if set(map(type, chain.from_iterable(coords))) == {float}:
                return coords
    points = []
    for pair in v:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"expected an [x, y] pair, got {pair!r}", path=path, line=line,
                             field="points")
        points.append((_number(pair[0], path, line, "points", "a numeric coordinate"),
                       _number(pair[1], path, line, "points", "a numeric coordinate")))
    return tuple(points)


def _trajectory(v: object, manifest: DatasetManifest, what: str, path: str,
                line: int) -> Trajectory:
    """The ``points`` of a record whose horizon and dt come from the manifest."""
    points = _points(v, path, line)
    if len(points) != manifest.horizon:
        raise HorizonMismatch(
            f"{path}:{line}: {what} has {len(points)} points, manifest horizon is "
            f"{manifest.horizon}"
        )
    try:
        return Trajectory._of(points, manifest.dt)
    except InvalidInput as e:
        raise ParseError(str(e), path=path, line=line, field="points") from None


def _describe(key: tuple[str, ...]) -> str:
    """A record key, (sample_id,) or (sample_id, model_id), as text."""
    return ", ".join(f"{name} '{value}'" for name, value in zip(("sample", "model"), key))


@dataclass(frozen=True, slots=True)
class SampleRange:
    """The sample ids ``lo <= sample_id < hi`` of one part of a dataset.

    ``None`` leaves that end open, so ``SampleRange()`` is the whole
    dataset.
    """

    lo: str | None = None
    hi: str | None = None

    def __contains__(self, sample_id: str) -> bool:
        return ((self.lo is None or self.lo <= sample_id)
                and (self.hi is None or sample_id < self.hi))

    def __str__(self) -> str:
        return (f"[{'start' if self.lo is None else repr(self.lo)}, "
                f"{'end' if self.hi is None else repr(self.hi)})")


_WHOLE = SampleRange()


class _Misread(TrajfuseError):
    """A line the sample-id scan placed in a part decoded to a sample outside it."""


# json.dumps(payload, sort_keys=True) without a new encoder per record.  The
# encoders' payloads are fresh trees, so the cycle check has nothing to find.
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode

# A sample_id member whose string value holds no escape, in any JSON
# whitespace.  A quote inside a JSON string is escaped, so in a valid line
# this matches only at a member name.
_ID = re.compile(rb'"sample_id"[ \t\r\n]*:[ \t\r\n]*"([^"\\]*)"')


def _scanned_id(raw: bytes) -> str | None:
    """The sample_id of a line, found by one ``_ID`` search without decoding.

    None where that finds no id it can read as text: an escape in the id,
    bytes that are not UTF-8, a truncated line.
    """
    found = _ID.search(raw)
    if found is None:
        return None
    try:
        return found[1].decode("utf-8")
    except UnicodeDecodeError:
        return None


def _records(path: str, fields: tuple[str, ...], what: str, *key_fields: str,
             ids: SampleRange = _WHOLE) -> Iterator[tuple[int, dict, tuple[str, ...]]]:
    """Yield ``(line, record, key)`` for every line of an NDJSON file in ``ids``.

    The one NDJSON reader: each line must be one JSON object with exactly
    ``fields``; its key is the tuple of its ``key_fields`` values, each a
    nonempty string, and no key may repeat (``what`` names the record in
    that error).  The first key field is the sample_id.  A part of the
    dataset decodes only the lines whose ``_scanned_id`` is in ``ids``,
    or that have none, and keeps those whose decoded sample_id is in
    ``ids``; a line scanned in ``ids`` but decoded outside is
    ``_Misread``, never dropped.
    """
    seen: set[tuple[str, ...]] = set()
    with open(path, "rb") as f:
        for line, raw in enumerate(f, start=1):
            found = None if ids is _WHOLE else _scanned_id(raw)
            if found is not None and found not in ids:
                continue
            if raw.isspace():
                raise ParseError("blank line", path=path, line=line)
            obj = _decode(raw, path, line)
            _check_keys(obj, fields, path, line)
            key = tuple(_string(obj[k], path, line, k) for k in key_fields)
            if key[0] not in ids:
                if found is not None:
                    raise _Misread(f"{path}: line {line}: the scan read sample '{found}', "
                                   f"the decoder '{key[0]}'")
                continue
            if key in seen:
                raise ParseError(f"duplicate {what} for {_describe(key)}", path=path, line=line)
            seen.add(key)
            yield line, obj, key


# A record's sort key, (sample_id,) or (sample_id, model_id), and its NDJSON line.
Line = tuple[tuple[str, ...], str]


# The (temporary file, destination) of each file whose rename a writer held back.
Held = list[tuple[str, str]]


def write_lines(path: str, lines: Iterable[Line], what: str, *,
                held: Held | None = None) -> None:
    """The one NDJSON writer: each encoded record on its own line, sorted by key.

    A repeated key is an InvalidInput (``what`` names the record).
    ``held`` comes from ``replacing_together``.
    """
    by_key: dict[tuple[str, ...], str] = {}
    for key, line in lines:
        if key in by_key:
            raise InvalidInput(f"duplicate {what} for {_describe(key)}")
        by_key[key] = line
    with _replacing(path, newline="\n", held=held) as f:
        for key in sorted(by_key):
            f.write(by_key[key])
            f.write("\n")


@contextmanager
def replacing_together() -> Iterator[Held]:
    """A ``held`` list for the writers: the files they write replace their destinations together.

    A writer given the list writes and fsyncs its temporary file as
    always, but its rename waits for the block to end.  Then every
    file is renamed over its destination and the directories synced.
    Should the block fail, or a destination be a directory, every
    temporary file is removed and no destination changes.
    """
    held: Held = []
    try:
        yield held
        for _, path in held:  # before any rename, so that no destination has changed
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    except BaseException:
        _discard(tmp for tmp, _ in held)
        raise
    _rename(held)


@contextmanager
def _replacing(path: str, newline: str, held: Held | None = None) -> Iterator[TextIO]:
    """Open a temporary file beside ``path``; on success it replaces ``path``, or joins ``held``.

    The temporary file gets the mode plain ``open(path, "w")`` would give
    (unlike ``mkstemp``'s 0600), is flushed to disk before the rename, and
    is removed if the write fails.  An error about the temporary file
    names ``path``, the file the caller asked for.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
    except BaseException as e:
        _discard([tmp])
        if isinstance(e, OSError) and e.filename == tmp:
            raise OSError(e.errno, e.strerror, path) from None
        raise
    if held is None:
        _rename([(tmp, path)])
    else:
        held.append((tmp, path))


def _rename(written: Held) -> None:
    """Rename each temporary file over its destination, then sync their directories.

    The sync makes the new files what survives a power loss.  A failed
    rename removes the temporary files not yet renamed, and its error
    names the destination.
    """
    for i, (tmp, path) in enumerate(written):
        try:
            os.replace(tmp, path)
        except OSError as e:
            _discard(tmp for tmp, _ in written[i:])
            raise OSError(e.errno, e.strerror, path) from None
    for directory in dict.fromkeys(os.path.dirname(path) or "." for _, path in written):
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _discard(temporaries: Iterable[str]) -> None:
    """Remove temporary files; a failure here never hides the error that called for it."""
    for tmp in temporaries:
        with suppress(OSError):
            os.remove(tmp)


_MANIFEST_FIELDS = ("format_version", "dataset_name", "horizon", "dt", "model_ids",
                    "sample_count")


def load_manifest(path: str) -> DatasetManifest:
    """Read and validate a dataset manifest JSON file."""
    with open(path, "rb") as f:
        obj = _decode(f.read(), path, None)
    _check_keys(obj, _MANIFEST_FIELDS, path, None)
    model_ids = obj["model_ids"]
    if not isinstance(model_ids, list) or not all(isinstance(m, str) and m for m in model_ids):
        raise ParseError("model_ids must be a list of nonempty strings", path=path, field="model_ids")
    try:
        return DatasetManifest(
            dataset_name=_string(obj["dataset_name"], path, None, "dataset_name"),
            horizon=_integer(obj["horizon"], path, None, "horizon"),
            dt=_number(obj["dt"], path, None, "dt"),
            model_ids=tuple(model_ids),
            sample_count=_integer(obj["sample_count"], path, None, "sample_count"),
            format_version=_integer(obj["format_version"], path, None, "format_version"),
        )
    except InvalidInput as e:
        raise ParseError(str(e), path=path) from None


def write_manifest(path: str, manifest: DatasetManifest, *, held: Held | None = None) -> None:
    _write_json(path, asdict(manifest), held=held)


def load_predictions(path: str, manifest: DatasetManifest,
                     ids: SampleRange = _WHOLE) -> Iterator[ModelOutput]:
    """Stream validated ModelOutputs from an NDJSON prediction dump.

    Each line holds one (sample_id, model_id) record with all of that
    model's modes.  Unknown model ids and duplicate (sample, model)
    pairs are ParseErrors; a horizon that disagrees with the manifest is
    a HorizonMismatch.  ``ids`` reads one part of the dump.
    """
    known = set(manifest.model_ids)
    for line, obj, (sample_id, model_id) in _records(
            path, ("sample_id", "model_id", "modes"), "record", "sample_id", "model_id",
            ids=ids):
        if model_id not in known:
            raise ParseError(f"model_id '{model_id}' not listed in manifest", path=path,
                             line=line, field="model_id")
        raw_modes = obj["modes"]
        if not isinstance(raw_modes, list) or len(raw_modes) < 1:
            raise ParseError("modes must be a nonempty list", path=path, line=line, field="modes")
        modes = []
        for raw_mode in raw_modes:
            if not isinstance(raw_mode, dict):
                raise ParseError("mode must be a JSON object", path=path, line=line, field="modes")
            _check_keys(raw_mode, ("confidence", "points"), path, line)
            confidence = _number(raw_mode["confidence"], path, line, "confidence")
            trajectory = _trajectory(raw_mode["points"], manifest, "mode", path, line)
            try:
                modes.append(Mode(trajectory, confidence))
            except InvalidInput as e:
                raise ParseError(str(e), path=path, line=line) from None
        yield ModelOutput(model_id=model_id, sample_id=sample_id, modes=tuple(modes))


def prediction_line(out: ModelOutput) -> Line:
    """One (sample, model) record of a prediction dump, encoded."""
    return (out.sample_id, out.model_id), _encode({
        "sample_id": out.sample_id,
        "model_id": out.model_id,
        "modes": [{"confidence": float(mode.confidence), "points": mode.trajectory.coords}
                  for mode in out.modes],
    })


def write_predictions(path: str, outputs: Iterable[ModelOutput]) -> None:
    """Dump ModelOutputs as NDJSON sorted by (sample_id, model_id)."""
    write_lines(path, map(prediction_line, outputs), "output")


def load_ground_truth(path: str, manifest: DatasetManifest,
                      ids: SampleRange = _WHOLE) -> Iterator[GroundTruthRecord]:
    """Stream ground-truth records, enforcing the manifest horizon.

    ``ids`` reads one part of the file.
    """
    for line, obj, (sample_id,) in _records(path, ("sample_id", "points"), "ground truth",
                                            "sample_id", ids=ids):
        yield GroundTruthRecord(
            sample_id, _trajectory(obj["points"], manifest, "ground truth", path, line))


def ground_truth_line(rec: GroundTruthRecord) -> Line:
    """One ground-truth record, encoded."""
    return (rec.sample_id,), _encode({
        "sample_id": rec.sample_id,
        "points": rec.trajectory.coords,
    })


def write_ground_truth(path: str, records: Iterable[GroundTruthRecord]) -> None:
    write_lines(path, map(ground_truth_line, records), "ground truth")


def _load(
    manifest: DatasetManifest,
    prediction_paths: Sequence[str],
    ground_truth_path: str | None,
    ids: SampleRange,
) -> tuple[list[Sample], tuple[int, int, int]]:
    """The Samples in ``ids``, each one whole, and their counts: predicted, labeled, unlabeled.

    The whole-dataset rules are ``_check_whole``'s, on every part's counts.
    """
    by_sample: dict[str, dict[str, ModelOutput]] = {}
    for path in prediction_paths:
        for output in load_predictions(path, manifest, ids):
            per_model = by_sample.setdefault(output.sample_id, {})
            if output.model_id in per_model:
                raise InvalidInput(
                    f"model '{output.model_id}' appears twice for sample "
                    f"'{output.sample_id}' across prediction files"
                )
            per_model[output.model_id] = output
    for sample_id, per_model in by_sample.items():
        if len(per_model) != len(manifest.model_ids):
            missing = ", ".join(m for m in manifest.model_ids if m not in per_model)
            raise InvalidInput(f"sample '{sample_id}' has {len(per_model)} of "
                               f"{len(manifest.model_ids)} manifest models (missing {missing})")
    gt_by_sample: dict[str, Trajectory] = {}
    if ground_truth_path is not None:
        for rec in load_ground_truth(ground_truth_path, manifest, ids):
            gt_by_sample[rec.sample_id] = rec.trajectory
    samples = [
        Sample(sample_id=sample_id, ground_truth=gt_by_sample.get(sample_id),
               outputs=tuple(by_sample[sample_id][mid] for mid in manifest.model_ids))
        for sample_id in sorted(by_sample)
    ]
    unlabeled = len(by_sample.keys() - gt_by_sample.keys())
    return samples, (len(by_sample), len(gt_by_sample), unlabeled)


def _check_whole(manifest: DatasetManifest, labeled_too: bool, predicted: int, labeled: int,
                 unlabeled: int) -> None:
    """The whole-dataset rules, on the counts summed over its parts.

    The predicted samples are as many as the manifest declares, and,
    where ``labeled_too``, ground truth covers exactly them.
    """
    if predicted != manifest.sample_count:
        raise InvalidInput(f"predictions cover {predicted} samples, "
                           f"manifest declares {manifest.sample_count}")
    if labeled_too and (unlabeled or labeled != predicted):
        message = f"ground truth has {labeled} samples for {predicted} predicted"
        if unlabeled:
            message += f"; {unlabeled} predicted samples have no ground truth"
        raise InvalidInput(message)


_Result = TypeVar("_Result")


class _Rerun(Exception):
    """A part of a dataset failed; the dataset runs again as one range."""


def _sample_ranges(path: str, parts: int) -> list[SampleRange]:
    """Up to ``parts`` ranges cut at quantiles of the sample_ids probed in ``path``.

    32 probes per part, at equal byte fractions of the file, each scan the
    first line that starts at or after it.  A cut at the smallest id found
    or at the previous cut is dropped, so no range is empty.  A file where
    no probe finds an id, or that cannot be read, gives one range.
    """
    if parts < 2:
        return [_WHOLE]
    probes = 32 * parts
    found = []
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            for i in range(probes):
                offset = size * i // probes
                f.seek(max(offset - 1, 0))
                if offset:
                    f.readline()  # the rest of the line that holds byte offset - 1
                found.append(_scanned_id(f.readline()))
    except OSError:
        return [_WHOLE]
    ids = sorted(sample_id for sample_id in found if sample_id is not None)
    if not ids:
        return [_WHOLE]
    cuts = sorted({ids[len(ids) * i // parts] for i in range(1, parts)} - {ids[0]})
    bounds = [None, *cuts, None]
    return [SampleRange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _regular(path: str) -> bool:
    """Whether ``path`` is a regular file; stat-ing it opens nothing, so a FIFO stays unread."""
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except OSError:  # the serial run reports it
        return False


def map_sample_ranges(
    manifest: DatasetManifest,
    prediction_paths: Sequence[str],
    ground_truth_path: str | None,
    work: Callable[[list[Sample]], _Result],
    threads: int,
    what: str,
) -> list[_Result]:
    """``work(samples)`` over the dataset, split by sample id across up to ``threads`` processes.

    The dataset splits into up to ``worker_count(threads, sample_count)``
    contiguous sample-id ranges, cut at quantiles of the sample_ids
    probed in the first prediction file (see ``_sample_ranges``); into
    one unless every file is a regular file, since every range reads
    every file and a pipe can be read only once.  Each
    range loads and checks only its own records of every file, whatever
    their line order, then runs ``work`` on its samples.  ``fork_map``
    runs the ranges under its worker contract (see there); ``what`` and
    the range name a worker.  Should one of several ranges fail for any
    reason in its data or its files, the dataset runs again as one range
    in this process, so every error is the one a serial run raises.
    Then, however many ranges ran, the whole-dataset rules are checked
    once, on the summed counts (``_check_whole``).
    """
    from .workers import fork_map, worker_count

    def run(ids: SampleRange) -> tuple[tuple[int, int, int], _Result]:
        samples, counts = _load(manifest, prediction_paths, ground_truth_path, ids)
        return counts, work(samples)

    def part(ids: SampleRange) -> tuple[tuple[int, int, int], _Result]:
        try:
            return run(ids)
        except (TrajfuseError, OSError):
            raise _Rerun from None

    regular = all(_regular(path) for path in [*prediction_paths, ground_truth_path]
                  if path is not None)
    ranges = (_sample_ranges(prediction_paths[0], worker_count(threads, manifest.sample_count))
              if prediction_paths and regular else [_WHOLE])
    try:
        done = fork_map(part if len(ranges) > 1 else run, ranges,
                        lambda ids: f"{what} worker for sample ids {ids}")
    except _Rerun:
        done = [run(_WHOLE)]
    _check_whole(manifest, ground_truth_path is not None,
                 *map(sum, zip(*(counts for counts, _ in done))))
    return [result for _, result in done]


_FUSED_FIELDS = (
    "sample_id", "strategy", "dt", "points", "weights", "covariance",
    "determinant", "confidence", "notes",
)


def load_fused(path: str) -> Iterator[FusedPrediction]:
    """Stream fused predictions written by write_fused."""
    for line, obj, (sample_id,) in _records(path, _FUSED_FIELDS, "fused record", "sample_id"):
        strategy = _string(obj["strategy"], path, line, "strategy")
        if strategy not in STRATEGIES:
            raise ParseError(f"unknown strategy '{strategy}'", path=path, line=line,
                             field="strategy")
        dt = _number(obj["dt"], path, line, "dt")
        points = _points(obj["points"], path, line)
        raw_weights = obj["weights"]
        if not isinstance(raw_weights, list):
            raise ParseError("weights must be a list of [model_id, weight] pairs",
                             path=path, line=line, field="weights")
        entries = []
        for pair in raw_weights:
            if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], str):
                raise ParseError(f"bad weight entry {pair!r}", path=path, line=line,
                                 field="weights")
            entries.append((pair[0], _number(pair[1], path, line, "weights",
                                             "a numeric weight entry")))
        raw_cov = obj["covariance"]
        if not (isinstance(raw_cov, list) and len(raw_cov) == 2
                and all(isinstance(row, list) and len(row) == 2 for row in raw_cov)):
            raise ParseError("covariance must be a 2x2 matrix", path=path, line=line,
                             field="covariance")
        matrix = [[_number(v, path, line, "covariance") for v in row] for row in raw_cov]
        raw_notes = obj["notes"]
        if not isinstance(raw_notes, list) or not all(isinstance(n, str) for n in raw_notes):
            raise ParseError("notes must be a list of strings", path=path, line=line,
                             field="notes")
        determinant = _number(obj["determinant"], path, line, "determinant")
        confidence = _number(obj["confidence"], path, line, "confidence")
        try:
            cov = CovarianceSummary.from_matrix(matrix)
            if abs(cov.det - determinant) > 1e-9:
                raise InvalidInput(
                    f"stored determinant {determinant!r} disagrees with matrix ({cov.det!r})"
                )
            fused = FusedPrediction(
                sample_id=sample_id,
                trajectory=Trajectory._of(points, dt),
                weights=Weights(tuple(entries)),
                covariance=cov,
                confidence=confidence,
                strategy=strategy,
                notes=tuple(raw_notes),
            )
        except (InvalidInput, NumericalError) as e:
            raise ParseError(str(e), path=path, line=line) from None
        yield fused


def fused_line(pred: FusedPrediction) -> Line:
    """One fused record, encoded with full precision."""
    return (pred.sample_id,), _encode({
        "sample_id": pred.sample_id,
        "strategy": pred.strategy,
        "dt": pred.trajectory.dt,
        "points": pred.trajectory.coords,
        "weights": [[mid, w] for mid, w in pred.weights.entries],
        "covariance": [[pred.covariance.xx, pred.covariance.xy],
                       [pred.covariance.xy, pred.covariance.yy]],
        "determinant": pred.covariance.det,
        "confidence": pred.confidence,
        "notes": list(pred.notes),
    })


def write_fused(path: str, fused: Iterable[FusedPrediction]) -> None:
    """Dump fused predictions as NDJSON sorted by sample_id, full precision."""
    write_lines(path, map(fused_line, fused), "fused prediction")


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
    *,
    held: Held | None = None,
) -> None:
    """Write a summary table or overlap report as CSV (2 decimals) or JSON.

    CSV is for eyeballs and spreadsheets, so errors are rounded the way
    result tables usually print them; JSON keeps full float precision
    for downstream tooling.  An empty summary yields a header-only CSV.
    ``k_list`` only matters for that empty-summary header.  ``held``
    comes from ``replacing_together``.
    """
    _check_format(fmt)
    if isinstance(report, OverlapReport):
        if fmt == "json":
            _write_json(path, report.as_dict(), held=held)
            return
        with _replacing(path, newline="", held=held) as f:
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
        _write_json(path, rows, held=held)
        return
    header = list(rows[0].keys()) if rows else _report_header(k_list)
    with _replacing(path, newline="", held=held) as f:
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


def _write_json(path: str, payload: object, held: Held | None = None) -> None:
    with _replacing(path, newline="\n", held=held) as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True))
        f.write("\n")
