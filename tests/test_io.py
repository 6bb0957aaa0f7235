"""Manifest, NDJSON, and report file formats."""

from __future__ import annotations

import copy
import errno
import json
import os
import stat
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajfuse.core import Mode, ModelOutput, Sample, Trajectory
from trajfuse.errors import (
    HorizonMismatch,
    InvalidInput,
    ParseError,
    TrajfuseError,
    ZeroConfidenceWarning,
)
from trajfuse.fusion import fuse_threshold, fuse_weighted
from trajfuse import io
from trajfuse.io import (
    FORMAT_VERSION,
    DatasetManifest,
    GroundTruthRecord,
    SampleRange,
    load_fused,
    load_ground_truth,
    load_manifest,
    load_predictions,
    write_fused,
    write_ground_truth,
    write_manifest,
    write_predictions,
    write_report,
)
from trajfuse.metrics import overlap_report


def traj(*pts: tuple[float, float], dt: float = 1.0) -> Trajectory:
    return Trajectory(pts, dt=dt)


def one_mode_sample(*members, sample_id="s0") -> Sample:
    outputs = tuple(
        ModelOutput(mid, sample_id, (Mode(t, c),)) for mid, t, c in members
    )
    return Sample(sample_id, None, outputs)


MANIFEST = DatasetManifest(
    dataset_name="unit",
    horizon=2,
    dt=0.5,
    model_ids=("cv", "ctr"),
    sample_count=2,
)


# JSON's whitespace, as bytes.
JSON_SPACE = st.text(" \t\r\n").map(str.encode)


def respelled(line: str, separators: tuple[str, str] = (",", ":")) -> str:
    """An NDJSON line re-spelled with ``separators``; the default is JSON.stringify's compact one."""
    return json.dumps(json.loads(line), separators=separators) + "\n"


def output(model_id: str, sample_id: str, *xy_lists, confs=None) -> ModelOutput:
    confs = confs or [1.0] * len(xy_lists)
    modes = tuple(
        Mode(Trajectory(pts, dt=MANIFEST.dt), c) for pts, c in zip(xy_lists, confs)
    )
    return ModelOutput(model_id, sample_id, modes)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        write_manifest(path, MANIFEST)
        assert load_manifest(path) == MANIFEST

    def test_validation(self):
        with pytest.raises(InvalidInput):
            DatasetManifest("d", 0, 0.5, ("m",), 1)
        with pytest.raises(InvalidInput):
            DatasetManifest("d", 2, 0.0, ("m",), 1)
        with pytest.raises(InvalidInput):
            DatasetManifest("d", 2, 0.5, ("m", "m"), 1)
        with pytest.raises(InvalidInput):
            DatasetManifest("d", 2, 0.5, (), 1)
        with pytest.raises(InvalidInput):
            DatasetManifest("", 2, 0.5, ("m",), 1)
        with pytest.raises(InvalidInput):
            DatasetManifest("d", 2, 0.5, ("m",), -1)
        with pytest.raises(InvalidInput):
            DatasetManifest("d", 2, 0.5, ("m",), 1, format_version=99)

    def write_raw(self, tmp_path, payload: dict) -> str:
        path = str(tmp_path / "manifest.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        return path

    def base_payload(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "dataset_name": "unit",
            "horizon": 2,
            "dt": 0.5,
            "model_ids": ["cv", "ctr"],
            "sample_count": 2,
        }

    def test_unknown_field_rejected(self, tmp_path):
        payload = self.base_payload() | {"extra": 1}
        with pytest.raises(ParseError, match="unknown field"):
            load_manifest(self.write_raw(tmp_path, payload))

    def test_missing_field_rejected(self, tmp_path):
        payload = self.base_payload()
        del payload["horizon"]
        with pytest.raises(ParseError, match="missing required field"):
            load_manifest(self.write_raw(tmp_path, payload))

    def test_bad_version_rejected(self, tmp_path):
        payload = self.base_payload() | {"format_version": 99}
        with pytest.raises(ParseError, match="format_version"):
            load_manifest(self.write_raw(tmp_path, payload))

    def test_bad_model_ids_rejected(self, tmp_path):
        payload = self.base_payload() | {"model_ids": ["cv", 7]}
        with pytest.raises(ParseError):
            load_manifest(self.write_raw(tmp_path, payload))

    def test_zero_horizon_rejected(self, tmp_path):
        payload = self.base_payload() | {"horizon": 0}
        with pytest.raises(ParseError):
            load_manifest(self.write_raw(tmp_path, payload))

    def test_bool_horizon_rejected(self, tmp_path):
        payload = self.base_payload() | {"horizon": True}
        with pytest.raises(ParseError):
            load_manifest(self.write_raw(tmp_path, payload))

    def test_non_object_rejected(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("[1, 2]")
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("{not json")
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_nan_token_rejected(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write('{"format_version": 1, "dataset_name": "d", "horizon": 2, '
                    '"dt": NaN, "model_ids": ["m"], "sample_count": 1}')
        with pytest.raises(ParseError, match="non-finite"):
            load_manifest(path)


class TestPredictions:
    def outputs(self) -> list[ModelOutput]:
        return [
            output("cv", "s0", [(0, 0), (1, 0)], [(0, 0), (0, 1)], confs=[0.7, 0.3]),
            output("ctr", "s0", [(0.5, 0.5), (1.0, 1.0)]),
            output("cv", "s1", [(2, 2), (3, 3)]),
        ]

    def test_roundtrip_identity(self, tmp_path):
        path = str(tmp_path / "pred.ndjson")
        write_predictions(path, self.outputs())
        loaded = list(load_predictions(path, MANIFEST))
        assert sorted(loaded, key=lambda o: (o.sample_id, o.model_id)) == sorted(
            self.outputs(), key=lambda o: (o.sample_id, o.model_id)
        )

    def test_writer_sorts_records(self, tmp_path):
        path = str(tmp_path / "pred.ndjson")
        write_predictions(path, self.outputs())
        keys = []
        with open(path, encoding="utf-8") as f:
            for line in f:
                obj = json.loads(line)
                keys.append((obj["sample_id"], obj["model_id"]))
        assert keys == sorted(keys)

    def test_writer_rejects_duplicates(self, tmp_path):
        path = str(tmp_path / "pred.ndjson")
        out = output("cv", "s0", [(0, 0), (1, 0)])
        with pytest.raises(InvalidInput):
            write_predictions(path, [out, out])

    def test_empty_file_yields_nothing(self, tmp_path):
        path = str(tmp_path / "pred.ndjson")
        write_predictions(path, [])
        assert list(load_predictions(path, MANIFEST)) == []

    def write_lines(self, tmp_path, *lines: str) -> str:
        path = str(tmp_path / "pred.ndjson")
        with open(path, "w", encoding="utf-8") as f:
            for line in lines:
                f.write(line + "\n")
        return path

    def record(self, **overrides) -> str:
        obj = {
            "sample_id": "s0",
            "model_id": "cv",
            "modes": [{"confidence": 1.0, "points": [[0.0, 0.0], [1.0, 0.0]]}],
        }
        obj.update(overrides)
        return json.dumps(obj)

    def test_nan_token_rejected(self, tmp_path):
        line = ('{"sample_id": "s0", "model_id": "cv", '
                '"modes": [{"confidence": NaN, "points": [[0, 0], [1, 0]]}]}')
        path = self.write_lines(tmp_path, line)
        with pytest.raises(ParseError, match="non-finite"):
            list(load_predictions(path, MANIFEST))

    def test_infinity_token_rejected(self, tmp_path):
        line = ('{"sample_id": "s0", "model_id": "cv", '
                '"modes": [{"confidence": 1.0, "points": [[Infinity, 0], [1, 0]]}]}')
        path = self.write_lines(tmp_path, line)
        with pytest.raises(ParseError):
            list(load_predictions(path, MANIFEST))

    def test_unknown_model_rejected(self, tmp_path):
        path = self.write_lines(tmp_path, self.record(model_id="mystery"))
        with pytest.raises(ParseError, match="not listed in manifest"):
            list(load_predictions(path, MANIFEST))

    def test_duplicate_record_rejected(self, tmp_path):
        path = self.write_lines(tmp_path, self.record(), self.record())
        with pytest.raises(ParseError, match="duplicate"):
            list(load_predictions(path, MANIFEST))

    def test_horizon_mismatch(self, tmp_path):
        short = self.record(modes=[{"confidence": 1.0, "points": [[0.0, 0.0]]}])
        path = self.write_lines(tmp_path, short)
        with pytest.raises(HorizonMismatch):
            list(load_predictions(path, MANIFEST))

    def test_unknown_key_rejected(self, tmp_path):
        obj = json.loads(self.record())
        obj["surprise"] = 1
        path = self.write_lines(tmp_path, json.dumps(obj))
        with pytest.raises(ParseError, match="unknown field"):
            list(load_predictions(path, MANIFEST))

    def test_missing_key_rejected(self, tmp_path):
        obj = json.loads(self.record())
        del obj["modes"]
        path = self.write_lines(tmp_path, json.dumps(obj))
        with pytest.raises(ParseError, match="missing required field"):
            list(load_predictions(path, MANIFEST))

    def test_empty_modes_rejected(self, tmp_path):
        path = self.write_lines(tmp_path, self.record(modes=[]))
        with pytest.raises(ParseError, match="nonempty"):
            list(load_predictions(path, MANIFEST))

    def test_negative_confidence_rejected(self, tmp_path):
        bad = self.record(modes=[{"confidence": -0.5, "points": [[0.0, 0.0], [1.0, 0.0]]}])
        path = self.write_lines(tmp_path, bad)
        with pytest.raises(ParseError):
            list(load_predictions(path, MANIFEST))

    def test_bool_confidence_rejected(self, tmp_path):
        bad = self.record(modes=[{"confidence": True, "points": [[0.0, 0.0], [1.0, 0.0]]}])
        path = self.write_lines(tmp_path, bad)
        with pytest.raises(ParseError, match="expected a number"):
            list(load_predictions(path, MANIFEST))

    def test_blank_line_rejected(self, tmp_path):
        path = self.write_lines(tmp_path, self.record(), "")
        with pytest.raises(ParseError, match="blank line"):
            list(load_predictions(path, MANIFEST))

    def test_non_object_line_rejected(self, tmp_path):
        path = self.write_lines(tmp_path, "[1, 2, 3]")
        with pytest.raises(ParseError, match="JSON object"):
            list(load_predictions(path, MANIFEST))

    def test_error_carries_location(self, tmp_path):
        path = self.write_lines(tmp_path, self.record(),
                                self.record(sample_id="s1", model_id="mystery"))
        with pytest.raises(ParseError) as exc:
            list(load_predictions(path, MANIFEST))
        assert exc.value.line == 2
        assert exc.value.path == path


class TestRepeatedMemberName:
    """A JSON object that names a member twice is ambiguous, so it is refused."""

    def write(self, tmp_path, text: str) -> str:
        path = str(tmp_path / "file.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        return path

    def test_prediction_line(self, tmp_path):
        path = self.write(tmp_path, '{"sample_id": "s0", "model_id": "cv", "modes": '
                                    '[{"confidence": 1.0, "points": [[0.0, 0.0], [1.0, 0.0]]}], '
                                    '"sample_id": "s5"}')
        with pytest.raises(ParseError, match=f"{path}: line 1: member name 'sample_id' "
                                             "repeats in one JSON object"):
            list(load_predictions(path, MANIFEST))

    def test_ground_truth_line(self, tmp_path):
        path = self.write(tmp_path, '{"sample_id": "s0", "points": [[0.0, 0.0], [1.0, 0.0]], '
                                    '"points": [[0.0, 0.0], [2.0, 0.0]]}')
        with pytest.raises(ParseError, match="line 1: member name 'points' repeats"):
            list(load_ground_truth(path, MANIFEST))

    def test_manifest(self, tmp_path):
        text = json.dumps(TestManifest().base_payload())
        path = self.write(tmp_path, text[:-1] + ', "horizon": 3}')
        with pytest.raises(ParseError, match="member name 'horizon' repeats"):
            load_manifest(path)


class TestSampleRanges:
    """A dump in any line order splits into ranges that each read only their own records."""

    def dump(self, tmp_path, sizes: list[int]) -> tuple[str, list[ModelOutput]]:
        """A dump with ``sizes[i]`` modes for sample i, from both manifest models."""
        outputs = [output(mid, f"s{i:03d}", *[[(i, k), (k, i)] for k in range(n)])
                   for i, n in enumerate(sizes) for mid in MANIFEST.model_ids]
        path = str(tmp_path / "pred.ndjson")
        write_predictions(path, outputs)
        return path, outputs

    def reorder(self, path: str, order) -> None:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(lines[i] for i in order)

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=6), max_size=25),
           parts=st.integers(min_value=1, max_value=6), data=st.data())
    def test_ranges_partition_the_records(self, tmp_path_factory, sizes, parts, data):
        path, outputs = self.dump(tmp_path_factory.mktemp("ranges"), sizes)
        self.reorder(path, data.draw(st.permutations(range(len(outputs))), label="order"))
        ranges = io._sample_ranges(path, parts)
        assert 1 <= len(ranges) <= max(1, min(parts, len(sizes)))
        cuts = [r.lo for r in ranges[1:]]
        assert cuts == sorted(set(cuts)) and ranges[0].lo is None and ranges[-1].hi is None
        assert all(a.hi == b.lo for a, b in zip(ranges, ranges[1:]))
        whole = list(load_predictions(path, MANIFEST))
        by_range = [list(load_predictions(path, MANIFEST, ids)) for ids in ranges]
        # Each range keeps the file's line order; together they read every record once.
        assert [out for out in whole if out in by_range[0]] == by_range[0]
        key = attrgetter("sample_id", "model_id")
        assert (sorted((out for part in by_range for out in part), key=key)
                == sorted(outputs, key=key))
        assert all(by_range) or not sizes  # no range is empty
        assert all(out.sample_id in ids for ids, part in zip(ranges, by_range) for out in part)

    def test_unsorted_dump_splits_and_each_record_is_read_once(self, tmp_path):
        path, outputs = self.dump(tmp_path, [1] * 6)
        self.reorder(path, [*range(6, 12), *range(6)])  # s003..s005, then s000..s002
        ranges = io._sample_ranges(path, 2)
        assert len(ranges) == 2
        read = [(out.sample_id, out.model_id)
                for ids in ranges for out in load_predictions(path, MANIFEST, ids)]
        assert sorted(read) == sorted((out.sample_id, out.model_id) for out in outputs)

    @pytest.mark.parametrize("separators", [(",", ":"), (" ,\t", "\r: ")])
    def test_any_json_spelling_decodes_each_line_in_one_part(self, tmp_path, monkeypatch,
                                                              separators):
        """The scan finds ids in any JSON whitespace, so the parts split the decoding."""
        path, _ = self.dump(tmp_path, [1] * 6)
        with open(path, encoding="utf-8") as f:
            spaced = f.readlines()
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(respelled(line, separators) for line in spaced)
        whole = list(load_predictions(path, MANIFEST))
        decode, decoded = io._decode, []

        def counting(raw: bytes, path: str, line: int | None) -> dict:
            decoded.append(line)
            return decode(raw, path, line)

        monkeypatch.setattr(io, "_decode", counting)
        ranges = [SampleRange(None, "s003"), SampleRange("s003", None)]
        assert [out for ids in ranges for out in load_predictions(path, MANIFEST, ids)] == whole
        assert sorted(decoded) == list(range(1, len(spaced) + 1))
        assert len(io._sample_ranges(path, 2)) == 2

    def test_escaped_ids_split_and_decode_each_line_in_one_part(self, tmp_path, monkeypatch):
        """``json.dumps`` writes é as ``\\u00e9``; the scan reads such ids, so the dump splits."""
        outputs = [output(mid, f"é{i:03d}", [(i, 0), (0, i)])
                   for i in range(200) for mid in MANIFEST.model_ids]
        path = str(tmp_path / "pred.ndjson")
        write_predictions(path, outputs)
        with open(path, encoding="utf-8") as f:
            assert '"sample_id": "\\u00e9000"' in f.readline()
        ranges = io._sample_ranges(path, 2)
        assert len(ranges) == 2
        decode, decoded = io._decode, []

        def counting(raw: bytes, path: str, line: int | None) -> dict:
            decoded.append(line)
            return decode(raw, path, line)

        monkeypatch.setattr(io, "_decode", counting)
        read = [out for ids in ranges for out in load_predictions(path, MANIFEST, ids)]
        key = attrgetter("sample_id", "model_id")
        assert sorted(read, key=key) == sorted(outputs, key=key)
        assert sorted(decoded) == list(range(1, len(outputs) + 1))

    def test_misread_line_is_refused(self, tmp_path):
        """A line the scan places in a range but that decodes outside it is not dropped."""
        path, _ = self.dump(tmp_path, [1] * 4)
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
        # A decoy sample_id in the mode object, before the record's own.
        lines[-1] = lines[-1].replace('{"confidence"', '{"sample_id": "s000", "confidence"', 1)
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(lines)
        with pytest.raises(io._Misread, match=f"{path}: line {len(lines)}: the scan read "
                                              "sample 's000', the decoder 's003'"):
            list(load_predictions(path, MANIFEST, SampleRange(None, "s002")))
        assert len(list(load_predictions(path, MANIFEST, SampleRange("s002", None)))) == 3
        with pytest.raises(ParseError, match="unknown field"):
            list(load_predictions(path, MANIFEST))

    @settings(max_examples=200, deadline=None)
    @given(sample_id=st.text(min_size=1), model_id=st.text(min_size=1))
    def test_scanned_id_is_none_or_the_decoded_id(self, sample_id, model_id):
        trajectory = Trajectory(((0.0, 0.0), (1.0, 0.0)), dt=MANIFEST.dt)
        for _, line in (
                io.prediction_line(ModelOutput(model_id, sample_id, (Mode(trajectory, 1.0),))),
                io.ground_truth_line(GroundTruthRecord(sample_id, trajectory))):
            for spelled in (line, respelled(line)):
                assert io._scanned_id(spelled.encode()) in (None, json.loads(line)["sample_id"])

    @given(sample_id=st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                                           blacklist_characters='"\\'), min_size=1))
    def test_scan_finds_every_plain_ascii_id(self, sample_id):
        _, line = io.ground_truth_line(GroundTruthRecord(
            sample_id, Trajectory(((0.0, 0.0), (1.0, 0.0)), dt=MANIFEST.dt)))
        assert io._scanned_id(line.encode()) == sample_id
        assert io._scanned_id(respelled(line).encode()) == sample_id

    @given(sample_id=st.text(min_size=1))
    def test_scan_finds_every_id_json_dumps_escapes(self, sample_id):
        _, line = io.ground_truth_line(GroundTruthRecord(
            sample_id, Trajectory(((0.0, 0.0), (1.0, 0.0)), dt=MANIFEST.dt)))
        assert io._scanned_id(line.encode()) == sample_id
        assert io._scanned_id(respelled(line).encode()) == sample_id

    @pytest.mark.parametrize("raw", [rb'{"sample_id": "s\x00"}', rb'{"sample_id": "s\u00"}',
                                     rb'{"sample\u005fid": "s0"}'],
                             ids=["bad_escape", "short_unicode_escape", "escaped_member_name"])
    def test_scan_finds_no_id(self, raw):
        assert io._scanned_id(raw) is None

    @given(raw=st.binary() | st.builds(
        lambda a, before, after, b: a + b'"sample_id"' + before + b":" + after + b'"' + b,
        st.binary(), JSON_SPACE, JSON_SPACE, st.binary()))
    def test_scan_never_raises(self, raw):
        found = io._scanned_id(raw)
        assert found is None or isinstance(found, str)

    def test_unreadable_or_empty_file_is_one_range(self, tmp_path):
        assert io._sample_ranges(str(tmp_path / "missing.ndjson"), 4) == [SampleRange()]
        (tmp_path / "empty.ndjson").write_text("")
        assert io._sample_ranges(str(tmp_path / "empty.ndjson"), 4) == [SampleRange()]
        (tmp_path / "junk.ndjson").write_text("[1]\n" * 100)
        assert io._sample_ranges(str(tmp_path / "junk.ndjson"), 4) == [SampleRange()]

    def test_str_names_the_ids(self):
        assert str(SampleRange()) == "[start, end)"
        assert str(SampleRange("s1", "s2")) == "['s1', 's2')"
        assert "s1" in SampleRange("s1", "s2") and "s2" not in SampleRange("s1", "s2")

    @pytest.mark.parametrize("threads", [1, 3])
    def test_unlabeled_samples_are_counted_over_every_part(self, tmp_path, three_workers,
                                                           threads):
        """Ground truth that swaps a predicted sample for another: the message counts it."""
        predictions, _ = self.dump(tmp_path, [1] * 30)
        truth = str(tmp_path / "gt.ndjson")
        labeled = [f"s{i:03d}" for i in range(1, 30)] + ["s999"]  # s000 swapped for s999
        write_ground_truth(truth, [GroundTruthRecord(sample_id, traj((0, 0), (1, 0), dt=0.5))
                                   for sample_id in labeled])
        manifest = replace(MANIFEST, sample_count=30)
        with pytest.raises(InvalidInput) as caught:
            io.map_sample_ranges(manifest, [predictions], truth, len, threads, "t")
        assert str(caught.value) == ("ground truth has 30 samples for 30 predicted; "
                                     "1 predicted samples have no ground truth")
        assert len(three_workers) == (3 if threads == 3 else 0)


class TestGroundTruth:
    def records(self) -> list[GroundTruthRecord]:
        return [
            GroundTruthRecord("s1", traj((2, 2), (3, 3), dt=MANIFEST.dt)),
            GroundTruthRecord("s0", traj((0, 0), (1, 0), dt=MANIFEST.dt)),
        ]

    def test_roundtrip_sorted(self, tmp_path):
        path = str(tmp_path / "gt.ndjson")
        write_ground_truth(path, self.records())
        loaded = list(load_ground_truth(path, MANIFEST))
        assert [r.sample_id for r in loaded] == ["s0", "s1"]
        assert loaded[1].trajectory.coords == ((2.0, 2.0), (3.0, 3.0))

    def test_duplicate_rejected_on_write(self, tmp_path):
        rec = self.records()[0]
        with pytest.raises(InvalidInput):
            write_ground_truth(str(tmp_path / "gt.ndjson"), [rec, rec])

    def test_duplicate_rejected_on_read(self, tmp_path):
        path = str(tmp_path / "gt.ndjson")
        line = json.dumps({"sample_id": "s0", "points": [[0.0, 0.0], [1.0, 0.0]]})
        with open(path, "w", encoding="utf-8") as f:
            f.write(line + "\n" + line + "\n")
        with pytest.raises(ParseError, match="duplicate"):
            list(load_ground_truth(path, MANIFEST))

    def test_horizon_enforced(self, tmp_path):
        path = str(tmp_path / "gt.ndjson")
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"sample_id": "s0", "points": [[0.0, 0.0]]}) + "\n")
        with pytest.raises(HorizonMismatch):
            list(load_ground_truth(path, MANIFEST))

    def test_missing_field_rejected(self, tmp_path):
        path = str(tmp_path / "gt.ndjson")
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"sample_id": "s0"}) + "\n")
        with pytest.raises(ParseError, match="missing required field"):
            list(load_ground_truth(path, MANIFEST))


class TestFused:
    def predictions(self):
        weighted = fuse_weighted(one_mode_sample(
            ("cv", traj((0, 0), (1, 0)), 1.0),
            ("ctr", traj((4, 0), (5, 2)), 3.0),
            sample_id="s0",
        ))
        sample = one_mode_sample(
            ("cv", traj((0, 1), (1, 1)), 0.9),
            ("ctr", traj((0, 0), (2, 2)), 0.2),
            sample_id="s1",
        )
        fired = fuse_threshold(sample, "cv", tau=0.5)
        assert fired.strategy == "threshold"
        return [weighted, fired]

    def test_roundtrip_identity(self, tmp_path):
        path = str(tmp_path / "fused.ndjson")
        write_fused(path, self.predictions())
        assert list(load_fused(path)) == self.predictions()

    def test_notes_roundtrip(self, tmp_path):
        with pytest.warns(ZeroConfidenceWarning):
            pred = fuse_weighted(one_mode_sample(
                ("cv", traj((0, 0)), 0.0), ("ctr", traj((1, 1)), 0.0),
            ))
        path = str(tmp_path / "fused.ndjson")
        write_fused(path, [pred])
        loaded = list(load_fused(path))
        assert loaded == [pred]
        assert loaded[0].notes == pred.notes

    def test_sorted_by_sample_id(self, tmp_path):
        path = str(tmp_path / "fused.ndjson")
        write_fused(path, list(reversed(self.predictions())))
        with open(path, encoding="utf-8") as f:
            ids = [json.loads(line)["sample_id"] for line in f]
        assert ids == ["s0", "s1"]

    def test_rerun_is_byte_identical(self, tmp_path):
        a = str(tmp_path / "a.ndjson")
        b = str(tmp_path / "b.ndjson")
        write_fused(a, self.predictions())
        write_fused(b, self.predictions())
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_writer_rejects_duplicates(self, tmp_path):
        pred = self.predictions()[0]
        with pytest.raises(InvalidInput):
            write_fused(str(tmp_path / "fused.ndjson"), [pred, pred])

    def corrupt(self, tmp_path, mutate) -> str:
        path = str(tmp_path / "fused.ndjson")
        write_fused(path, self.predictions()[:1])
        with open(path, encoding="utf-8") as f:
            obj = json.loads(f.read())
        mutate(obj)
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(obj) + "\n")
        return path

    def test_unknown_strategy_rejected(self, tmp_path):
        path = self.corrupt(tmp_path, lambda o: o.update(strategy="median"))
        with pytest.raises(ParseError, match="strategy"):
            list(load_fused(path))

    def test_determinant_crosscheck(self, tmp_path):
        path = self.corrupt(tmp_path, lambda o: o.update(determinant=o["determinant"] + 0.5))
        with pytest.raises(ParseError, match="determinant"):
            list(load_fused(path))

    def test_confidence_crosscheck(self, tmp_path):
        path = self.corrupt(tmp_path, lambda o: o.update(confidence=0.123))
        with pytest.raises(ParseError, match="confidence"):
            list(load_fused(path))

    def test_asymmetric_covariance_rejected(self, tmp_path):
        def mutate(o):
            o["covariance"][0][1] += 0.5
        path = self.corrupt(tmp_path, mutate)
        with pytest.raises(ParseError, match="asymmetric"):
            list(load_fused(path))

    def test_covariance_determinant_below_tolerance_rejected(self, tmp_path):
        def mutate(o):
            o["covariance"] = [[1.0, 1.0 + 8e-10], [1.0 + 8e-10, 1.0]]
        path = self.corrupt(tmp_path, mutate)
        with pytest.raises(ParseError) as caught:
            list(load_fused(path))
        assert str(caught.value) == (f"{path}: line 1: covariance determinant "
                                     "-1.6000001323845936e-09 below tolerance")

    def test_bad_weights_rejected(self, tmp_path):
        path = self.corrupt(tmp_path, lambda o: o.update(weights=[["cv", 0.4], ["ctr", 0.4]]))
        with pytest.raises(ParseError, match="sum to 1"):
            list(load_fused(path))

    def test_bad_weight_entry_rejected(self, tmp_path):
        path = self.corrupt(tmp_path, lambda o: o.update(weights=[["cv", "heavy"]]))
        with pytest.raises(ParseError, match="weight entry"):
            list(load_fused(path))

    def test_unknown_field_rejected(self, tmp_path):
        path = self.corrupt(tmp_path, lambda o: o.update(bonus=1))
        with pytest.raises(ParseError, match="unknown field"):
            list(load_fused(path))

    def test_duplicate_rejected_on_read(self, tmp_path):
        path = str(tmp_path / "fused.ndjson")
        write_fused(path, self.predictions()[:1])
        line = Path(path).read_text(encoding="utf-8")
        with open(path, "w", encoding="utf-8") as f:
            f.write(line + line)
        with pytest.raises(ParseError, match="duplicate"):
            list(load_fused(path))


class TestWriteReport:
    def rows(self):
        return [
            {"method": "a", "top10_ade": 1.234, "top10_fde": 2.345,
             "overall_ade": 0.5, "overall_fde": 1.0},
            {"method": "b", "top10_ade": 9.876, "top10_fde": 8.7,
             "overall_ade": 3.0, "overall_fde": 4.0},
        ]

    def test_csv_rounds_to_two_decimals(self, tmp_path):
        path = str(tmp_path / "report.csv")
        write_report(path, self.rows(), fmt="csv")
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "method,top10_ade,top10_fde,overall_ade,overall_fde"
        assert lines[1] == "a,1.23,2.35,0.50,1.00"
        assert lines[2] == "b,9.88,8.70,3.00,4.00"

    def test_json_keeps_full_precision(self, tmp_path):
        path = str(tmp_path / "report.json")
        write_report(path, self.rows(), fmt="json")
        assert json.loads(Path(path).read_text(encoding="utf-8")) == self.rows()

    def test_csv_matches_json_after_rounding(self, tmp_path):
        csv_path = str(tmp_path / "report.csv")
        json_path = str(tmp_path / "report.json")
        write_report(csv_path, self.rows(), fmt="csv")
        write_report(json_path, self.rows(), fmt="json")
        csv_cells = Path(csv_path).read_text(encoding="utf-8").splitlines()[1].split(",")
        row = json.loads(Path(json_path).read_text(encoding="utf-8"))[0]
        assert csv_cells[1] == f"{row['top10_ade']:.2f}"

    def test_empty_rows_write_header_only(self, tmp_path):
        path = str(tmp_path / "report.csv")
        write_report(path, [], fmt="csv", k_list=(1, 10))
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        assert lines == ["method,top1_ade,top1_fde,top10_ade,top10_fde,overall_ade,overall_fde"]

    def test_inconsistent_columns_rejected(self, tmp_path):
        rows = [{"method": "a", "overall_ade": 1.0}, {"method": "b", "top1_ade": 1.0}]
        with pytest.raises(InvalidInput):
            write_report(str(tmp_path / "report.csv"), rows, fmt="csv")

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            write_report(str(tmp_path / "report.txt"), self.rows(), fmt="txt")

    def overlap(self):
        return overlap_report({
            "A": frozenset({"1", "2", "3"}),
            "B": frozenset({"2", "3", "4"}),
            "C": frozenset({"3", "4", "5"}),
        })

    def test_overlap_csv(self, tmp_path):
        path = str(tmp_path / "overlap.csv")
        write_report(path, self.overlap(), fmt="csv")
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "kind,models,count,pct_of_each"
        assert lines[1] == "union,A|B|C,5,"
        assert "exclusive,B,0,0.00" in lines
        assert "pairwise,A|B,2,66.67|66.67" in lines
        assert lines[-1] == "common_all,A|B|C,1,33.33|33.33|33.33"

    def test_overlap_json(self, tmp_path):
        path = str(tmp_path / "overlap.json")
        write_report(path, self.overlap(), fmt="json")
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        assert payload["union_size"] == 5
        assert payload["common_all"]["count"] == 1


class TestAtomicWrites:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report(str(path), TestWriteReport().rows(), fmt="csv")
        before = path.read_bytes()
        # The second row's columns differ, so the writer raises after it has
        # written the header and the first row.
        rows = [{"method": "a", "overall_ade": 1.0}, {"method": "b", "top1_ade": 1.0}]
        with pytest.raises(InvalidInput, match="inconsistent"):
            write_report(str(path), rows, fmt="csv")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    def test_new_file_gets_plain_open_mode(self, tmp_path):
        plain = tmp_path / "plain.json"
        plain.write_text("{}\n")
        written = tmp_path / "manifest.json"
        write_manifest(str(written), MANIFEST)
        assert stat.S_IMODE(written.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    def test_directory_synced_after_rename(self, tmp_path, monkeypatch):
        path = tmp_path / "manifest.json"
        synced = []  # (fd is a directory, destination exists) per fsync call
        fsync = os.fsync

        def recording_fsync(fd):
            synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), path.exists()))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        write_manifest(str(path), MANIFEST)
        assert synced == [(False, False), (True, True)]

    def test_failed_rename_of_a_set_names_its_destination(self, tmp_path, monkeypatch):
        """The 2nd of three held renames fails: the 1st stays replaced, no temporary file stays."""
        paths = [str(tmp_path / f"manifest{i}.json") for i in range(3)]
        rename = os.replace
        renamed = []

        def refusing_second(src, dst):
            renamed.append(dst)
            if len(renamed) == 2:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src, None, dst)
            rename(src, dst)

        monkeypatch.setattr(os, "replace", refusing_second)
        with pytest.raises(OSError) as caught:
            with io.replacing_together() as held:
                for path in paths:
                    write_manifest(path, MANIFEST, held=held)
        assert (caught.value.errno, caught.value.filename) == (errno.EACCES, paths[1])
        assert renamed == paths[:2]
        assert sorted(tmp_path.iterdir()) == [Path(paths[0])]
        assert load_manifest(paths[0]) == MANIFEST


# Any JSON value: nulls, booleans, integers (some far beyond float range),
# floats (NaN and infinities too, which json.dumps spells as bare tokens),
# text, and nested lists and objects.
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2 ** 1100)
            | st.integers(max_value=-2 ** 1100) | st.floats() | st.text())
_ANY_JSON = _SCALARS | st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


_FUSED_RECORD = {
    "sample_id": "s0", "strategy": "weighted", "dt": 1.0,
    "points": [[2.5, 1.5], [3.5, 1.5]], "weights": [["cv", 0.25], ["ctr", 0.75]],
    "covariance": [[0.75, 0.0], [0.0, 0.75]], "determinant": 0.5625,
    "confidence": 0.64, "notes": [],
}


# Per record kind: a valid record (each loads as it is), the places one
# value can be replaced, and how the record is loaded.
_KINDS = {
    "prediction": (
        {"sample_id": "s0", "model_id": "cv",
         "modes": [{"confidence": 1.0, "points": [[0.0, 0.0], [1.0, 0.0]]}]},
        [("sample_id",), ("model_id",), ("modes",), ("modes", 0), ("modes", 0, "confidence"),
         ("modes", 0, "points"), ("modes", 0, "points", 1), ("modes", 0, "points", 1, 0)],
        lambda path: list(load_predictions(path, MANIFEST)),
    ),
    "ground_truth": (
        {"sample_id": "s0", "points": [[0.0, 0.0], [1.0, 0.0]]},
        [("sample_id",), ("points",), ("points", 0), ("points", 0, 1)],
        lambda path: list(load_ground_truth(path, MANIFEST)),
    ),
    "fused": (
        _FUSED_RECORD,
        [(key,) for key in _FUSED_RECORD]
        + [("points", 0, 0), ("weights", 0), ("weights", 1, 1), ("covariance", 0),
           ("covariance", 0, 0), ("covariance", 1, 0)],
        lambda path: list(load_fused(path)),
    ),
    "manifest": (
        TestManifest().base_payload(),
        [(key,) for key in TestManifest().base_payload()] + [("model_ids", 0)],
        load_manifest,
    ),
}


class TestAnyValueInAnyField:
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_loads_or_raises_a_trajfuse_error(self, tmp_path_factory, kind, data):
        record, places, load = _KINDS[kind]
        keys = data.draw(st.sampled_from(places), label="field")
        target = record = copy.deepcopy(record)
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = data.draw(_ANY_JSON, label="value")
        path = tmp_path_factory.getbasetemp() / f"any_value_{kind}"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        try:
            load(str(path))
        except TrajfuseError:
            pass
