"""End-to-end command-line behavior, run in process."""

from __future__ import annotations

import csv
import errno
import gc
import json
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from conftest import reaped
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import trajfuse
from trajfuse import cli, fusion, io, synth, workers
from trajfuse.cli import OUT_DIR_ENV, main
from trajfuse.errors import NumericalError
from trajfuse.io import load_fused, load_manifest
from trajfuse.synth import pinned_config


SYNTH_ARGV = ["synth", "--samples", "30", "--horizon", "6", "--seed", "123",
              "--threads", "1"]

SYNTH_FILES = {
    "manifest.json", "predictions.ndjson", "ground_truth.ndjson",
    "fused_weighted.ndjson", "fused_simple.ndjson", "fused_threshold.ndjson",
    "summary.csv", "overlap.csv",
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("synth_data")
    assert main(SYNTH_ARGV + ["--out", str(out)]) == 0
    return out


def eval_argv(dataset: Path, out: str, *extra: str) -> list[str]:
    return [
        "eval",
        "--manifest", str(dataset / "manifest.json"),
        "--predictions", str(dataset / "predictions.ndjson"),
        "--ground-truth", str(dataset / "ground_truth.ndjson"),
        "--out", out,
        *extra,
    ]


def stderr_payload(capsys) -> dict:
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


# Signals that kill a worker, each with how the error names it: one the enum
# names, and on Linux a real-time one that it does not.
DEATHS = [(signal.SIGKILL, "SIGKILL")]
if hasattr(signal, "SIGRTMIN"):
    DEATHS.append((signal.SIGRTMIN + 1, f"signal {signal.SIGRTMIN + 1}"))


class TestSynth:
    def test_writes_the_full_file_set(self, dataset):
        assert {p.name for p in dataset.iterdir()} == SYNTH_FILES

    def test_manifest_matches_run(self, dataset):
        manifest = load_manifest(str(dataset / "manifest.json"))
        assert manifest.sample_count == 30
        assert manifest.horizon == 6
        assert manifest.model_ids == ("const_velocity", "const_turn_rate", "noisy_oracle")

    def test_fused_files_cover_every_sample(self, dataset):
        for name in ("fused_weighted", "fused_simple", "fused_threshold"):
            fused = list(load_fused(str(dataset / f"{name}.ndjson")))
            assert len(fused) == 30
            assert [f.sample_id for f in fused] == sorted(f.sample_id for f in fused)

    def test_summary_lists_members_and_ensembles(self, dataset):
        with open(dataset / "summary.csv", encoding="utf-8", newline="") as f:
            methods = [row["method"] for row in csv.DictReader(f)]
        assert methods == ["const_turn_rate", "const_velocity", "ensemble_simple",
                           "ensemble_threshold", "ensemble_weighted", "noisy_oracle"]

    def test_reruns_are_byte_identical_across_thread_counts(self, dataset, tmp_path):
        serial = tmp_path / "serial"
        threaded = tmp_path / "threaded"
        base = ["synth", "--samples", "30", "--horizon", "6", "--seed", "123"]
        assert main(base + ["--threads", "1", "--out", str(serial)]) == 0
        assert main(base + ["--threads", "4", "--out", str(threaded)]) == 0
        for name in SYNTH_FILES:
            assert (serial / name).read_bytes() == (threaded / name).read_bytes(), name
            assert (serial / name).read_bytes() == (dataset / name).read_bytes(), name

    def test_killed_worker_fails_cleanly(self, tmp_path, capsys, monkeypatch, three_workers):
        """A worker that dies is an error naming its samples and signal; nothing is written."""
        parent = os.getpid()
        encode = io.prediction_line
        death = {}

        def dying(out):
            if os.getpid() != parent and out.sample_id == "s000015":
                os.kill(os.getpid(), death["signal"])
            return encode(out)

        monkeypatch.setattr(io, "prediction_line", dying)
        out = tmp_path / "o"
        for runs, (sig, name) in enumerate(DEATHS, start=1):
            death["signal"] = sig
            assert main(["synth", "--samples", "30", "--horizon", "6", "--threads", "3",
                         "--out", str(out)]) == 1
            assert stderr_payload(capsys) == {
                "error": "TrajfuseError",
                "message": f"synth worker for samples [10, 20) was killed by {name} "
                           "without a result"}
            assert not out.exists()
            assert len(three_workers) == 3 * runs
            assert all(reaped(pid) for pid in three_workers)

    @pytest.mark.parametrize("blocked", ["ground_truth.ndjson.{pid}.tmp", "overlap.csv"],
                             ids=["temporary_file", "destination"])
    def test_failed_write_keeps_the_previous_set(self, tmp_path, capsys, blocked):
        """A synth whose one write fails changes no file of the set already there.

        A directory stands where a file of the set, or its temporary file,
        would go.  Any error names the destination, never a temporary file.
        """
        out = tmp_path / "o"
        argv = ["synth", "--samples", "30", "--horizon", "6", "--threads", "1", "--out", str(out)]
        assert main([*argv, "--seed", "1"]) == 0
        block = out / blocked.format(pid=os.getpid())
        if block.exists():
            block.unlink()
        block.mkdir()
        before = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
        capsys.readouterr()
        assert main([*argv, "--seed", "2"]) == 2
        destination = out / blocked.removesuffix(".{pid}.tmp")
        assert stderr_payload(capsys) == {
            "error": "IOError",
            "message": f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{destination}'"}
        assert {path.name for path in out.iterdir()} == {*before, block.name}
        assert all((out / name).read_bytes() == data for name, data in before.items())

    def test_threads_default_to_usable_cpus(self, monkeypatch):
        parser, _ = cli.build_parser()
        args = parser.parse_args(["synth"])
        cli._resolve(args)
        assert args.threads == workers.usable_cpus()
        assert args.scenario == pinned_config()
        # The count is read when the command runs, not when the parser is built.
        monkeypatch.setattr(workers, "usable_cpus", lambda: 5)
        args = parser.parse_args(["synth"])
        cli._resolve(args)
        assert args.threads == 5

    def test_bad_samples_rejected(self, tmp_path, capsys):
        assert main(["synth", "--samples", "0", "--out", str(tmp_path / "o")]) == 1
        assert stderr_payload(capsys)["error"] == "InvalidInput"

    def test_bad_mix_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main(["synth", "--samples", "5", "--mix", "1,2", "--out", out]) == 1
        assert main(["synth", "--samples", "5", "--mix", "0.5,0.4,0.2", "--out", out]) == 1
        assert stderr_payload(capsys)["error"] == "InvalidInput"

    def test_explicit_primary_model(self, tmp_path):
        out = tmp_path / "o"
        assert main(["synth", "--samples", "5", "--strategy", "threshold",
                     "--primary-model", "noisy_oracle", "--tau", "0.9",
                     "--out", str(out)]) == 0
        assert (out / "fused_threshold.ndjson").exists()

    def test_unknown_primary_model(self, tmp_path, capsys):
        assert main(["synth", "--samples", "5", "--strategy", "threshold",
                     "--primary-model", "stranger", "--out", str(tmp_path / "o")]) == 1
        assert stderr_payload(capsys)["error"] == "InvalidInput"


class TestFuse:
    def test_fuses_to_sorted_ndjson(self, dataset, tmp_path):
        out = str(tmp_path / "fused.ndjson")
        assert main(["fuse",
                     "--manifest", str(dataset / "manifest.json"),
                     "--predictions", str(dataset / "predictions.ndjson"),
                     "--out", out]) == 0
        fused = list(load_fused(out))
        assert len(fused) == 30
        assert all(f.strategy == "weighted" for f in fused)

    def test_matches_synth_dump(self, dataset, tmp_path):
        # Fusing the written predictions reproduces the synth run's file.
        out = tmp_path / "refused.ndjson"
        assert main(["fuse",
                     "--manifest", str(dataset / "manifest.json"),
                     "--predictions", str(dataset / "predictions.ndjson"),
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (dataset / "fused_weighted.ndjson").read_bytes()

    def test_threshold_strategy(self, dataset, tmp_path):
        out = str(tmp_path / "fused.ndjson")
        assert main(["fuse",
                     "--manifest", str(dataset / "manifest.json"),
                     "--predictions", str(dataset / "predictions.ndjson"),
                     "--strategy", "threshold", "--primary-model", "const_turn_rate",
                     "--tau", "0.5", "--out", out]) == 0
        strategies = {f.strategy for f in load_fused(out)}
        assert strategies <= {"threshold", "weighted"}

    def test_all_is_not_a_fuse_strategy(self, dataset, tmp_path, capsys):
        assert main(["fuse",
                     "--manifest", str(dataset / "manifest.json"),
                     "--predictions", str(dataset / "predictions.ndjson"),
                     "--strategy", "all", "--out", str(tmp_path / "f")]) == 1
        assert stderr_payload(capsys)["error"] == "UsageError"

    def test_tau_without_threshold_rejected(self, dataset, tmp_path, capsys):
        assert main(["fuse",
                     "--manifest", str(dataset / "manifest.json"),
                     "--predictions", str(dataset / "predictions.ndjson"),
                     "--tau", "0.5", "--out", str(tmp_path / "f")]) == 1
        payload = stderr_payload(capsys)
        assert payload["error"] == "InvalidInput"
        assert "tau" in payload["message"]

    def test_primary_without_threshold_rejected(self, dataset, tmp_path, capsys):
        assert main(["fuse",
                     "--manifest", str(dataset / "manifest.json"),
                     "--predictions", str(dataset / "predictions.ndjson"),
                     "--primary-model", "const_velocity",
                     "--out", str(tmp_path / "f")]) == 1
        assert stderr_payload(capsys)["error"] == "InvalidInput"

    def test_duplicate_across_prediction_files_rejected(self, dataset, tmp_path, capsys):
        pred = str(dataset / "predictions.ndjson")
        assert main(["fuse",
                     "--manifest", str(dataset / "manifest.json"),
                     "--predictions", pred, pred,
                     "--out", str(tmp_path / "f")]) == 1
        assert "twice" in stderr_payload(capsys)["message"]

    def test_missing_manifest_is_io_error(self, dataset, tmp_path, capsys):
        assert main(["fuse",
                     "--manifest", str(tmp_path / "nope.json"),
                     "--predictions", str(dataset / "predictions.ndjson"),
                     "--out", str(tmp_path / "f")]) == 2
        assert stderr_payload(capsys)["error"] == "IOError"

    def test_malformed_prediction_line(self, dataset, tmp_path, capsys):
        broken = tmp_path / "broken.ndjson"
        broken.write_text((dataset / "predictions.ndjson").read_text()
                          + '{"sample_id": "sX"}\n')
        assert main(["fuse",
                     "--manifest", str(dataset / "manifest.json"),
                     "--predictions", str(broken),
                     "--out", str(tmp_path / "f")]) == 1
        assert stderr_payload(capsys)["error"] == "ParseError"


# The package modules each command loads: start-up is a large share of a
# short command's time, so each loads only what it runs.
_DUMP_MODULES = {"trajfuse", "trajfuse.cli", "trajfuse.errors", "trajfuse.core",
                 "trajfuse.fusion", "trajfuse.io", "trajfuse.metrics"}
_PARSER_MODULES = {"trajfuse", "trajfuse.cli", "trajfuse.errors"}
_FORKING_MODULES = _DUMP_MODULES | {"trajfuse.workers"}

# Runs the CLI on sys.argv[1:] and prints last on stdout its exit code and
# the trajfuse, numpy and dataclasses modules it loaded.
_IMPORT_MAP = """\
import json, sys
from trajfuse.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as e:
    code = e.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "trajfuse"
                               or m in ("numpy", "dataclasses"))]))
"""


_IMPORT_CASES = [
    ("--help", 0, _PARSER_MODULES),
    ("eval --help", 0, _PARSER_MODULES),
    ("usage_error", 1, _PARSER_MODULES),
    ("fuse", 0, _FORKING_MODULES),
    ("eval --strategy all", 0, _FORKING_MODULES),
    ("overlap", 0, _FORKING_MODULES),
    ("flags", 0, _DUMP_MODULES),
    ("synth", 0, _FORKING_MODULES | {"trajfuse.synth"}),
]


@pytest.mark.parametrize("case, code, modules", _IMPORT_CASES,
                         ids=[case for case, _, _ in _IMPORT_CASES])
def test_imports_only_what_it_runs(dataset, tmp_path, case, code, modules):
    """In a fresh interpreter, each command loads only the package modules it runs.

    ``--help`` and a usage error load no module but the parser's (and not
    ``dataclasses``); only ``synth`` loads ``synth`` or numpy, and ``flags``,
    which never forks, loads no ``workers``.
    """
    out = str(tmp_path / "out")
    inputs = ["--manifest", str(dataset / "manifest.json"),
              "--predictions", str(dataset / "predictions.ndjson")]
    truth = ["--ground-truth", str(dataset / "ground_truth.ndjson")]
    argv = {
        "usage_error": ["eval", *inputs[2:], *truth, "--out", out],
        "fuse": ["fuse", *inputs, "--out", out],
        "eval --strategy all": ["eval", *inputs, *truth, "--strategy", "all",
                                "--primary-model", "const_turn_rate", "--out", out],
        "overlap": ["overlap", *inputs, *truth, "--out", out],
        "flags": ["flags", "--fused", str(dataset / "fused_weighted.ndjson"), "--out", out],
        "synth": [*SYNTH_ARGV, "--out", out],
    }.get(case, case.split())
    env = {**os.environ, "PYTHONPATH": str(Path(trajfuse.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _IMPORT_MAP, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got_code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert got_code == code, done.stderr
    if case == "usage_error":
        assert json.loads(done.stderr) == {
            "error": "UsageError", "message": "the following arguments are required: --manifest"}
    assert {m for m in loaded if m.startswith("trajfuse")} == modules
    if modules == _PARSER_MODULES:
        assert "dataclasses" not in loaded
    if case != "synth":
        assert "numpy" not in loaded


def test_synth_module_loads_no_io():
    """``trajfuse.synth`` takes its process pool from ``workers``, not from the file formats."""
    env = {**os.environ, "PYTHONPATH": str(Path(trajfuse.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys, trajfuse.synth; print(json.dumps(sorted("
                               "m for m in sys.modules if m.startswith('trajfuse'))))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "trajfuse.workers" in loaded and "trajfuse.io" not in loaded


class TestEval:
    def test_default_summary(self, dataset, tmp_path):
        out = tmp_path / "summary.csv"
        assert main(eval_argv(dataset, str(out))) == 0
        with open(out, encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["method"] for r in rows] == [
            "const_turn_rate", "const_velocity", "ensemble_weighted", "noisy_oracle",
        ]
        assert "top10_ade" in rows[0]

    def test_strategy_all_needs_primary(self, dataset, tmp_path, capsys):
        assert main(eval_argv(dataset, str(tmp_path / "s.csv"),
                              "--strategy", "all")) == 1
        assert "primary" in stderr_payload(capsys)["message"]

    def test_strategy_all_with_primary(self, dataset, tmp_path):
        out = tmp_path / "summary.csv"
        assert main(eval_argv(dataset, str(out), "--strategy", "all",
                              "--primary-model", "const_turn_rate")) == 0
        with open(out, encoding="utf-8", newline="") as f:
            methods = {r["method"] for r in csv.DictReader(f)}
        assert {"ensemble_weighted", "ensemble_simple", "ensemble_threshold"} <= methods

    def test_matches_synth_summary(self, dataset, tmp_path):
        # Evaluating the dumped files reproduces the synth run's summary.
        out = tmp_path / "summary.csv"
        assert main(eval_argv(dataset, str(out), "--strategy", "all",
                              "--primary-model", "const_turn_rate")) == 0
        assert out.read_bytes() == (dataset / "summary.csv").read_bytes()

    def test_k_list_controls_columns(self, dataset, tmp_path):
        out = tmp_path / "summary.csv"
        assert main(eval_argv(dataset, str(out), "--k-list", "5,50")) == 0
        header = out.read_text().splitlines()[0]
        assert header == "method,top5_ade,top5_fde,top50_ade,top50_fde,overall_ade,overall_fde"

    def test_json_format(self, dataset, tmp_path):
        out = tmp_path / "summary.json"
        assert main(eval_argv(dataset, str(out), "--format", "json")) == 0
        rows = json.loads(Path(out).read_text(encoding="utf-8"))
        assert all(isinstance(r["overall_ade"], float) for r in rows)

    def test_sort_by_ade_runs(self, dataset, tmp_path):
        assert main(eval_argv(dataset, str(tmp_path / "s.csv"), "--sort-by-ade")) == 0

    def test_bad_k_list(self, dataset, tmp_path, capsys):
        assert main(eval_argv(dataset, str(tmp_path / "s.csv"),
                              "--k-list", "abc")) == 1
        assert main(eval_argv(dataset, str(tmp_path / "s.csv"),
                              "--k-list", "0")) == 1
        assert stderr_payload(capsys)["error"] == "InvalidInput"

    def test_missing_ground_truth_record(self, dataset, tmp_path, capsys):
        trimmed = tmp_path / "gt.ndjson"
        lines = (dataset / "ground_truth.ndjson").read_text().splitlines()
        trimmed.write_text("\n".join(lines[:-1]) + "\n")
        argv = eval_argv(dataset, str(tmp_path / "s.csv"))
        argv[argv.index("--ground-truth") + 1] = str(trimmed)
        assert main(argv) == 1
        assert "no ground truth" in stderr_payload(capsys)["message"]

    @staticmethod
    def with_extra_ground_truth(dataset: Path, tmp_path: Path, *extra: str) -> list[str]:
        """eval argv whose ground truth also labels a sample, s999999, that has no predictions."""
        extended = tmp_path / "gt.ndjson"
        text = (dataset / "ground_truth.ndjson").read_text()
        last = json.loads(text.splitlines()[-1])
        last["sample_id"] = "s999999"
        extended.write_text(text + json.dumps(last) + "\n")
        argv = eval_argv(dataset, str(tmp_path / "s.csv"), *extra)
        argv[argv.index("--ground-truth") + 1] = str(extended)
        return argv

    def test_extra_ground_truth_record(self, dataset, tmp_path, capsys):
        assert main(self.with_extra_ground_truth(dataset, tmp_path)) == 1
        assert "ground truth has 31 samples for 30 predicted" in stderr_payload(capsys)["message"]

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_extra_ground_truth_message_names_no_unlabeled_samples(self, dataset, tmp_path,
                                                                   capsys, three_workers,
                                                                   threads):
        argv = self.with_extra_ground_truth(dataset, tmp_path, "--threads", threads)
        assert main(argv) == 1
        assert stderr_payload(capsys) == {
            "error": "InvalidInput", "message": "ground truth has 31 samples for 30 predicted"}
        assert len(three_workers) == (3 if threads == "3" else 0)

    def test_threads_flag_does_not_change_output(self, dataset, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(eval_argv(dataset, str(a), "--threads", "1")) == 0
        assert main(eval_argv(dataset, str(b), "--threads", "4")) == 0
        assert a.read_bytes() == b.read_bytes()


class TestOverlap:
    def argv(self, dataset: Path, out: str, *extra: str) -> list[str]:
        return [
            "overlap",
            "--manifest", str(dataset / "manifest.json"),
            "--predictions", str(dataset / "predictions.ndjson"),
            "--ground-truth", str(dataset / "ground_truth.ndjson"),
            "--out", out,
            *extra,
        ]

    def test_matches_synth_overlap(self, dataset, tmp_path):
        out = tmp_path / "overlap.csv"
        assert main(self.argv(dataset, str(out))) == 0
        assert out.read_bytes() == (dataset / "overlap.csv").read_bytes()

    def test_json_format(self, dataset, tmp_path):
        out = tmp_path / "overlap.json"
        assert main(self.argv(dataset, str(out), "--format", "json")) == 0
        payload = json.loads(Path(out).read_text(encoding="utf-8"))
        assert set(payload["sizes"]) == {"const_velocity", "const_turn_rate", "noisy_oracle"}

    def test_overlap_k_bounds(self, dataset, tmp_path, capsys):
        assert main(self.argv(dataset, str(tmp_path / "o.csv"),
                              "--overlap-k", "0")) == 1
        assert main(self.argv(dataset, str(tmp_path / "o.csv"),
                              "--overlap-k", "101")) == 1
        assert stderr_payload(capsys)["error"] == "InvalidInput"

    def test_single_model_manifest_rejected(self, dataset, tmp_path, capsys):
        manifest = json.loads((dataset / "manifest.json").read_text(encoding="utf-8"))
        manifest["model_ids"] = ["const_velocity"]
        lone = tmp_path / "manifest.json"
        lone.write_text(json.dumps(manifest))
        argv = self.argv(dataset, str(tmp_path / "o.csv"))
        argv[argv.index("--manifest") + 1] = str(lone)
        assert main(argv) == 1
        assert "at least 2" in stderr_payload(capsys)["message"]


class TestIncompleteDumps:
    """A dump missing records is refused, never scored as if it were whole."""

    @pytest.mark.parametrize("command", ["fuse", "eval", "overlap"])
    @pytest.mark.parametrize("damage, message", [
        ("sample", "predictions cover 29 samples, manifest declares 30"),
        ("record", "sample 's000000' has 2 of 3 manifest models (missing const_velocity)"),
    ], ids=["whole_sample", "one_record"])
    def test_refused(self, dataset, tmp_path, capsys, three_workers, command, damage, message):
        # Records are sorted by (sample_id, model_id): the first three are
        # s000000 from const_turn_rate, const_velocity and noisy_oracle.
        # At three workers the sample count is checked on the workers' summed
        # counts, and the incomplete sample's error reruns the dump as one range.
        lines = (dataset / "predictions.ndjson").read_text().splitlines(keepends=True)
        cut = tmp_path / "predictions.ndjson"
        cut.write_text("".join(lines[3:] if damage == "sample" else lines[:1] + lines[2:]))
        out = tmp_path / "out"
        argv = [command, "--manifest", str(dataset / "manifest.json"),
                "--predictions", str(cut), "--out", str(out), "--threads", "3"]
        if command != "fuse":
            argv += ["--ground-truth", str(dataset / "ground_truth.ndjson")]
        assert main(argv) == 1
        payload = stderr_payload(capsys)
        assert payload == {"error": "InvalidInput", "message": message}
        assert not out.exists()
        assert len(three_workers) == 3


    @pytest.mark.parametrize("command, message", [
        ("eval", "no samples to evaluate"),
        ("overlap", "no samples to analyze"),
    ])
    def test_empty_dataset_refused(self, dataset, tmp_path, capsys, command, message):
        manifest = json.loads((dataset / "manifest.json").read_text())
        manifest["sample_count"] = 0
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "empty.ndjson").write_text("")
        out = tmp_path / "out"
        assert main([command, "--manifest", str(tmp_path / "manifest.json"),
                     "--predictions", str(tmp_path / "empty.ndjson"),
                     "--ground-truth", str(tmp_path / "empty.ndjson"),
                     "--out", str(out)]) == 1
        assert stderr_payload(capsys) == {"error": "InvalidInput", "message": message}
        assert not out.exists()


def _dump_argv(command: str, manifest: Path, predictions: list[Path], truth: Path,
               out: Path, *extra: str) -> list[str]:
    argv = [command, "--manifest", str(manifest),
            "--predictions", *map(str, predictions), "--out", str(out), *extra]
    if command == "eval":
        argv += ["--strategy", "all", "--primary-model", "const_turn_rate"]
    if command != "fuse":
        argv += ["--ground-truth", str(truth)]
    return argv


def _reordered(lines: list[str], order: str) -> list[str]:
    return {"sorted": lines, "reversed": lines[::-1],
            "shuffled": lines[1::2] + lines[::2]}[order]


def _zero_confidence(predictions: Path) -> list[str]:
    """The lines of ``predictions`` with every mode's confidence set to 0."""
    lines = []
    for line in predictions.read_text().splitlines():
        record = json.loads(line)
        for mode in record["modes"]:
            mode["confidence"] = 0.0
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return lines


# A number token of an encoded record: each follows "[" or a space.
_NUMBER = re.compile(rb"(?<=[\[ ])-?[0-9][0-9.eE+-]*")


class TestDumpWorkers:
    """fuse, eval and overlap split the dataset by sample id over --threads workers."""

    DUMP_COMMANDS = ("fuse", "eval", "overlap")

    def outputs(self, tmp_path: Path, predictions: list[Path], truth: Path,
                manifest: Path, threads: int) -> dict[str, bytes]:
        """Each command's output at ``threads``; beyond one, a serial rerun is a failure."""
        load = io._load

        def no_rerun(manifest, prediction_paths, ground_truth_path, ids):
            if ids is io._WHOLE:
                raise AssertionError("the dataset was read again as one range")
            return load(manifest, prediction_paths, ground_truth_path, ids)

        got = {}
        for command in self.DUMP_COMMANDS:
            out = tmp_path / f"{command}-{threads}"
            with pytest.MonkeyPatch.context() as patch:
                if threads > 1:
                    patch.setattr(io, "_load", no_rerun)
                assert main(_dump_argv(command, manifest, predictions, truth, out,
                                       "--threads", str(threads))) == 0
            got[command] = out.read_bytes()
        return got

    @pytest.mark.parametrize("layout", [
        "sorted", "shuffled_predictions", "shuffled_ground_truth", "reversed", "per_model_sorted",
        "per_model_in_different_orders", "compact", "escaped",
    ])
    def test_same_bytes_at_one_two_and_three_workers(self, dataset, tmp_path, three_workers,
                                                     layout):
        predictions = (dataset / "predictions.ndjson").read_text().splitlines(keepends=True)
        truth = (dataset / "ground_truth.ndjson").read_text().splitlines(keepends=True)
        fused = (dataset / "fused_weighted.ndjson").read_bytes()
        if layout == "compact":  # as JSON.stringify spells it
            predictions, truth = ([json.dumps(json.loads(line), separators=(",", ":")) + "\n"
                                   for line in lines] for lines in (predictions, truth))
        if layout == "escaped":
            # Each id starts with an é, which json.dumps writes as an escape;
            # each ground-truth line spells its member name sample_id with an
            # escape too, so no scan reads its id and every part decodes it.
            predictions = [line.replace('"sample_id": "s', '"sample_id": "\\u00e9s')
                           for line in predictions]
            truth = [line.replace('"sample_id": "s', '"sample\\u005fid": "\\u00e9s')
                     for line in truth]
            fused = fused.replace(b'"sample_id": "s', b'"sample_id": "\\u00e9s')
        pred_paths = [tmp_path / "predictions.ndjson"]
        if layout.startswith("per_model"):
            # One file per model; the later ones reversed and interleaved.
            orders = (("sorted",) * 3 if layout == "per_model_sorted"
                      else ("sorted", "reversed", "shuffled"))
            pred_paths = []
            for model, order in zip(("const_turn_rate", "const_velocity", "noisy_oracle"),
                                    orders):
                path = tmp_path / f"predictions_{model}.ndjson"
                path.write_text("".join(_reordered(
                    [line for line in predictions if f'"model_id": "{model}"' in line], order)))
                pred_paths.append(path)
        else:
            pred_paths[0].write_text("".join(_reordered(predictions, {
                "shuffled_predictions": "shuffled", "reversed": "reversed"}.get(layout, "sorted"))))
        (tmp_path / "ground_truth.ndjson").write_text("".join(_reordered(truth, {
            "shuffled_ground_truth": "shuffled", "reversed": "reversed"}.get(layout, "sorted"))))
        runs = [self.outputs(tmp_path, pred_paths, tmp_path / "ground_truth.ndjson",
                             dataset / "manifest.json", threads) for threads in (1, 2, 3)]
        assert runs[0]["fuse"] == fused
        assert runs[0]["eval"] == (dataset / "summary.csv").read_bytes()
        assert runs[0]["overlap"] == (dataset / "overlap.csv").read_bytes()
        assert runs[1] == runs[0] and runs[2] == runs[0]
        # In any line order, two and three workers fork two and three children
        # for each command.
        assert len(three_workers) == 3 * (2 + 3)
        assert all(reaped(pid) for pid in three_workers)

    @pytest.mark.parametrize("command", DUMP_COMMANDS)
    def test_killed_worker_fails_cleanly(self, dataset, tmp_path, capsys, monkeypatch,
                                         three_workers, command):
        """A dump worker that dies is an error naming its ids and signal; nothing is written."""
        parent = os.getpid()
        load = io.load_predictions
        death = {}

        def dying(path, manifest, ids=io.SampleRange()):
            if os.getpid() != parent and "s000015" in ids:
                os.kill(os.getpid(), death["signal"])
            return load(path, manifest, ids)

        monkeypatch.setattr(io, "load_predictions", dying)
        predictions = dataset / "predictions.ndjson"
        dying_range, = [ids for ids in io._sample_ranges(str(predictions), 3)
                        if "s000015" in ids]
        assert dying_range.lo is not None and dying_range.hi is not None
        out = tmp_path / "out"
        for runs, (sig, name) in enumerate(DEATHS, start=1):
            death["signal"] = sig
            assert main(_dump_argv(command, dataset / "manifest.json", [predictions],
                                   dataset / "ground_truth.ndjson", out, "--threads", "3")) == 1
            assert stderr_payload(capsys) == {
                "error": "TrajfuseError",
                "message": f"{command} worker for sample ids "
                           f"['{dying_range.lo}', '{dying_range.hi}') was killed by {name} "
                           "without a result"}
            assert not out.exists()
            assert len(three_workers) == 3 * runs
            assert all(reaped(pid) for pid in three_workers)

    def errors(self, dataset: Path, tmp_path: Path, capsys, command: str,
               lines: list[str]) -> tuple[Path, list[dict]]:
        """The error of ``command`` on a predictions file of ``lines``, at 1, 2 and 3 workers."""
        broken = tmp_path / "predictions.ndjson"
        broken.write_text("".join(lines))
        errors = []
        for threads in ("1", "2", "3"):
            out = tmp_path / f"out-{threads}"
            assert main(_dump_argv(command, dataset / "manifest.json", [broken],
                                   dataset / "ground_truth.ndjson", out,
                                   "--threads", threads)) == 1
            errors.append(stderr_payload(capsys))
            assert not out.exists()
        return broken, errors

    @pytest.mark.parametrize("command", DUMP_COMMANDS)
    def test_malformed_line_in_the_last_range(self, dataset, tmp_path, capsys, three_workers,
                                              command):
        """The error names the line as the whole file numbers it, at any worker count."""
        lines = (dataset / "predictions.ndjson").read_text().splitlines(keepends=True)
        lines[-2] = lines[-2].replace('"modes"', '"modez"')
        broken, errors = self.errors(dataset, tmp_path, capsys, command, lines)
        assert errors == [{"error": "ParseError",
                           "message": f"{broken}: line {len(lines) - 1}: field 'modes': "
                                      "missing required field"}] * 3
        assert len(three_workers) == 2 + 3
        assert all(reaped(pid) for pid in three_workers)

    @pytest.mark.parametrize("command", DUMP_COMMANDS)
    @pytest.mark.parametrize("case", ["no_samples_declared", "empty_first_file",
                                      "fewer_samples_than_workers", "one_sample_of_30"])
    def test_edge_cases_run_as_one_range(self, dataset, tmp_path, capsys, three_workers,
                                         command, case):
        manifest = json.loads((dataset / "manifest.json").read_text())
        lines = (dataset / "predictions.ndjson").read_text().splitlines(keepends=True)
        truth = (dataset / "ground_truth.ndjson").read_text().splitlines(keepends=True)
        # First file, and the manifest's sample_count, for each case.
        first, manifest["sample_count"] = {
            "no_samples_declared": ([], 0),
            "empty_first_file": ([], 1),
            "fewer_samples_than_workers": (lines[:3], 1),
            "one_sample_of_30": (lines[:3], 30),
        }[case]
        pred_paths = [tmp_path / "first.ndjson"]
        pred_paths[0].write_text("".join(first))
        if case == "empty_first_file":
            pred_paths.append(tmp_path / "second.ndjson")
            pred_paths[1].write_text("".join(lines[:3]))
        (tmp_path / "ground_truth.ndjson").write_text("".join(truth[:manifest["sample_count"]]))
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        results = []
        for threads in ("1", "2"):
            out = tmp_path / f"out-{threads}"
            code = main(_dump_argv(command, tmp_path / "manifest.json", pred_paths,
                                   tmp_path / "ground_truth.ndjson", out, "--threads", threads))
            err = capsys.readouterr().err
            results.append((code, err, out.read_bytes() if out.exists() else None))
        assert results[0] == results[1]
        message = {"no_samples_declared": "no samples to evaluate" if command == "eval"
                   else "no samples to analyze" if command == "overlap" else None,
                   "one_sample_of_30": "predictions cover 1 samples, manifest declares 30",
                   }.get(case)
        if message is None:
            assert results[0][0] == 0
        else:
            assert results[0][:2] == (1, json.dumps({"error": "InvalidInput",
                                                     "message": message}) + "\n")
        assert three_workers == []

    @pytest.mark.parametrize("command", DUMP_COMMANDS)
    def test_decoy_sample_id_gives_the_serial_error(self, dataset, tmp_path, capsys,
                                                    three_workers, command):
        """A mode object's "sample_id", before the record's own, misleads the scan.

        The range of the decoy's id decodes the line, finds it belongs
        elsewhere and refuses it, so the dataset runs again as one range.
        """
        lines = (dataset / "predictions.ndjson").read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if '"sample_id": "s000025"' in line)
        lines[at] = lines[at].replace('{"confidence"', '{"sample_id": "s000000", "confidence"', 1)
        broken, errors = self.errors(dataset, tmp_path, capsys, command, lines)
        assert errors == [{"error": "ParseError",
                           "message": f"{broken}: line {at + 1}: unknown field(s): sample_id"}] * 3
        assert len(three_workers) == 2 + 3
        assert all(reaped(pid) for pid in three_workers)

    def fuse_stderr(self, dataset: Path, tmp_path: Path, capsys, predictions: Path,
                    code: int) -> list[str]:
        """``fuse``'s stderr, every warning shown, at 1 and 3 workers; each run exits ``code``."""
        def show(message, category, filename, lineno, file=None, line=None):
            sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

        errs = []
        for threads in ("1", "3"):
            with warnings.catch_warnings():
                warnings.simplefilter("default")
                warnings.showwarning = show
                assert main(_dump_argv("fuse", dataset / "manifest.json", [predictions],
                                       dataset / "ground_truth.ndjson",
                                       tmp_path / f"fused-{threads}", "--threads", threads)) == code
            errs.append(capsys.readouterr().err)
        return errs

    def test_worker_warnings_in_sample_order(self, dataset, tmp_path, capsys, three_workers):
        """Zero-confidence warnings from every range reach stderr as a serial run prints them."""
        predictions = tmp_path / "predictions.ndjson"
        predictions.write_text("".join(_zero_confidence(dataset / "predictions.ndjson")))
        errs = self.fuse_stderr(dataset, tmp_path, capsys, predictions, 0)
        assert errs[0] == errs[1]
        warned = [line.split("'")[1] for line in errs[0].splitlines()
                  if "all member confidences are zero" in line]
        assert warned == [f"s{i:06d}" for i in range(30)]
        assert len(three_workers) == 3

    def test_failed_range_shows_no_worker_warnings(self, dataset, tmp_path, capsys,
                                                   three_workers):
        """A failed range discards every range's warnings; the serial rerun's error comes alone.

        The dump's confidences are all zero, so every fused sample warns,
        and its last line is malformed, so the serial loader fails before
        anything is fused.
        """
        lines = _zero_confidence(dataset / "predictions.ndjson")
        lines[-1] = lines[-1].replace('"modes"', '"modez"')
        predictions = tmp_path / "predictions.ndjson"
        predictions.write_text("".join(lines))
        errs = self.fuse_stderr(dataset, tmp_path, capsys, predictions, 1)
        assert errs[0] == errs[1]
        assert json.loads(errs[0]) == {
            "error": "ParseError",
            "message": f"{predictions}: line {len(lines)}: field 'modes': missing required field"}
        assert len(three_workers) == 3
        assert all(reaped(pid) for pid in three_workers)

    @pytest.mark.parametrize("command", ["eval", "overlap"])
    def test_file_defect_before_whole_dataset_rule(self, dataset, tmp_path, capsys,
                                                   three_workers, command):
        """A malformed line is reported before a wrong sample count, at any worker count."""
        manifest = json.loads((dataset / "manifest.json").read_text())
        manifest["sample_count"] += 1
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        truth = (dataset / "ground_truth.ndjson").read_text().splitlines(keepends=True)
        truth[10] = truth[10].replace('"points"', '"pointz"')
        broken = tmp_path / "ground_truth.ndjson"
        broken.write_text("".join(truth))
        errors = []
        for threads in ("1", "3"):
            out = tmp_path / f"out-{threads}"
            assert main(_dump_argv(command, tmp_path / "manifest.json",
                                   [dataset / "predictions.ndjson"], broken, out,
                                   "--threads", threads)) == 1
            errors.append(stderr_payload(capsys))
            assert not out.exists()
        assert errors == [{"error": "ParseError",
                           "message": f"{broken}: line 11: field 'points': "
                                      "missing required field"}] * 2
        assert len(three_workers) == 3
        assert all(reaped(pid) for pid in three_workers)

    def assert_same_at_one_and_three_workers(self, dataset: Path, work: Path, manifest: Path,
                                             paths: dict[str, Path], capsys,
                                             keeps_records: bool) -> None:
        """Every command gives the same exit code, stderr and output bytes at 1 and 3 workers.

        A failure is one JSON error of a documented kind and writes no
        output; where ``keeps_records``, the outputs are the unmutated ones.
        """
        for command in self.DUMP_COMMANDS:
            results = []
            for threads in ("1", "3"):
                out = work / f"{command}-{threads}"
                code = main(_dump_argv(command, manifest, [paths["predictions"]],
                                       paths["ground_truth"], out, "--threads", threads))
                results.append((code, capsys.readouterr().err,
                                out.read_bytes() if out.exists() else None))
            assert results[0] == results[1]
            code, err, written = results[0]
            assert code in (0, 1) and (code == 0) == (written is not None)
            if code:
                assert json.loads(err)["error"] in ("ParseError", "InvalidInput",
                                                    "HorizonMismatch")
            if keeps_records:
                expected = {"fuse": "fused_weighted.ndjson", "eval": "summary.csv",
                            "overlap": "overlap.csv"}[command]
                assert results[0] == (0, "", (dataset / expected).read_bytes())

    @pytest.mark.parametrize("target", ["predictions", "ground_truth"])
    @pytest.mark.parametrize("mutation", [
        "drop", "duplicate", "swap", "truncate", "crlf", "bom", "blank", "no_final_newline",
        "0xff", "token_nan", "token_infinity", "token_1e999", "token_true", "token_string",
    ])
    @settings(max_examples=3, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_dump_same_at_one_and_three_workers(self, dataset, tmp_path_factory,
                                                        capsys, three_workers, target,
                                                        mutation, data):
        """A damaged or reordered file gives the same exit code, stderr and output bytes.

        A mutation that keeps every record gives the unmutated outputs.
        """
        lines = (dataset / f"{target}.ndjson").read_bytes().splitlines(keepends=True)

        def line(label: str = "line") -> int:
            return data.draw(st.integers(0, len(lines) - 1), label=label)

        if mutation == "drop":
            del lines[line()]
        elif mutation == "duplicate":
            i = line()
            lines.insert(i, lines[i])
        elif mutation == "swap":
            i, j = line(), line("other line")
            lines[i], lines[j] = lines[j], lines[i]
        elif mutation == "truncate":
            i = line()
            lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i]) - 2), label="byte")] + b"\n"
        elif mutation == "crlf":
            lines = [raw.replace(b"\n", b"\r\n") for raw in lines]
        elif mutation == "bom":
            lines[0] = b"\xef\xbb\xbf" + lines[0]
        elif mutation == "blank":
            lines.insert(line(), b"\n")
        elif mutation == "no_final_newline":
            lines[-1] = lines[-1].rstrip(b"\n")
        elif mutation == "0xff":
            i = line()
            at = data.draw(st.integers(0, len(lines[i]) - 1), label="byte")
            lines[i] = lines[i][:at] + b"\xff" + lines[i][at:]
        else:
            i = line()
            numbers = list(_NUMBER.finditer(lines[i]))
            number = numbers[data.draw(st.integers(0, len(numbers) - 1), label="number")]
            token = {"token_nan": b"NaN", "token_infinity": b"Infinity",
                     "token_1e999": b"1e999", "token_true": b"true",
                     "token_string": b'"x"'}[mutation]
            lines[i] = lines[i][:number.start()] + token + lines[i][number.end():]
        work = tmp_path_factory.mktemp("mutated")
        paths = {name: dataset / f"{name}.ndjson" for name in ("predictions", "ground_truth")}
        paths[target] = work / f"{target}.ndjson"
        paths[target].write_bytes(b"".join(lines))
        self.assert_same_at_one_and_three_workers(
            dataset, work, dataset / "manifest.json", paths, capsys,
            keeps_records=mutation in ("swap", "crlf", "no_final_newline"))
        assert all(reaped(pid) for pid in three_workers)

    @pytest.mark.parametrize("field", ["sample_count", "horizon"])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_mutated_manifest_same_at_one_and_three_workers(self, dataset, tmp_path, capsys,
                                                            three_workers, field, delta):
        """A manifest one off in its sample count or horizon: the same error at 1 and 3 workers."""
        manifest = json.loads((dataset / "manifest.json").read_text())
        manifest[field] += delta
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        paths = {name: dataset / f"{name}.ndjson" for name in ("predictions", "ground_truth")}
        self.assert_same_at_one_and_three_workers(dataset, tmp_path, tmp_path / "manifest.json",
                                                  paths, capsys, keeps_records=False)
        assert all(reaped(pid) for pid in three_workers)


_HUGE = 10 ** 400  # a JSON integer no float can hold
_DEEP = b"[" * 200_000  # nested past the decoder's recursion limit


def _overflowing(*keys):
    """Damage: spell one number of a file's first record as 1e999 (infinity once decoded)."""
    def damage(data: bytes) -> bytes:
        return _first_record((keys, math.inf))(data).replace(b"Infinity", b"1e999", 1)
    return damage


def _first_record(*edits):
    """Damage: set each (key path, value) of ``edits`` in a file's first record."""
    def damage(data: bytes) -> bytes:
        first, rest = data.split(b"\n", 1)
        record = json.loads(first)
        for keys, value in edits:
            target = record
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
        return json.dumps(record).encode() + b"\n" + rest
    return damage


class TestMalformedFilesRefused:
    """Every malformed input file exits 1 with the JSON error, never a traceback."""

    @pytest.mark.parametrize("target, damage, error", [
        ("predictions", _first_record((("modes", 0, "points", 0, 0), _HUGE)), "ParseError"),
        ("predictions", _first_record((("modes", 0, "points", 0, 0), True)), "ParseError"),
        ("predictions", _overflowing("modes", 0, "points", 0, 0), "ParseError"),
        ("predictions", _first_record((("modes", 0, "confidence"), _HUGE)), "ParseError"),
        ("fused", _first_record((("weights", 0, 1), _HUGE)), "ParseError"),
        ("ground_truth", _overflowing("points", 0, 0), "ParseError"),
        ("fused", _overflowing("points", 0, 1), "ParseError"),
        ("manifest", lambda data: data.replace(b'"dt": 0.5', b'"dt": %d' % _HUGE),
         "ParseError"),
        ("predictions", lambda data: data.replace(b'"s0', b'"\xffs0', 1), "ParseError"),
        ("fused", lambda data: data.replace(b'"s0', b'"\xffs0', 1), "ParseError"),
        ("predictions", lambda data: _DEEP + b"\n" + data, "ParseError"),
        ("manifest", lambda data: _DEEP, "ParseError"),
        ("config", lambda data: _DEEP, "InvalidInput"),
        ("fused", _first_record((("covariance",), [["a", 0], [0, 1]])), "ParseError"),
        ("fused", _first_record((("covariance",), [[1, "x"], [0, 1]])), "ParseError"),
        ("fused", _first_record((("covariance",), [1, 2])), "ParseError"),
        ("fused", _first_record((("covariance",), [[None, 0], [0, 1]])), "ParseError"),
        ("fused", _first_record((("covariance",), [[True, 0], [0, True]]),
                                (("determinant",), 1.0), (("confidence",), 0.5)), "ParseError"),
        # xx*yy and xy*xy both overflow, so the determinant would be NaN,
        # and NaN passes every tolerance comparison.
        ("fused", _first_record((("covariance",), [[1e308, 1e307], [1e307, 1e308]]),
                                (("determinant",), 0.5), (("confidence",), 0.5)), "ParseError"),
        # Each weight is finite, but their sum passes the float range.
        ("fused", _first_record((("weights",), [["a", 1e308], ["b", 1e308]])), "ParseError"),
    ], ids=[
        "coordinate_1e400", "coordinate_true", "coordinate_1e999", "confidence_1e400",
        "weight_1e400", "ground_truth_coordinate_1e999", "fused_coordinate_1e999",
        "manifest_dt_1e400",
        "prediction_0xff", "fused_0xff", "prediction_deep", "manifest_deep", "config_deep",
        "covariance_text_entry", "covariance_text_off_diagonal", "covariance_flat",
        "covariance_null", "covariance_bool", "covariance_determinant_overflow",
        "weights_sum_overflow",
    ])
    def test_refused(self, dataset, tmp_path, capsys, target, damage, error):
        sources = {"predictions": "predictions.ndjson", "manifest": "manifest.json",
                   "ground_truth": "ground_truth.ndjson", "fused": "fused_weighted.ndjson",
                   "config": None}
        paths = {name: str(dataset / source) for name, source in sources.items() if source}
        paths[target] = str(tmp_path / f"damaged_{target}")
        original = (dataset / sources[target]).read_bytes() if sources[target] else b""
        Path(paths[target]).write_bytes(damage(original))
        out = tmp_path / "out"
        if target == "fused":
            argv = ["flags", "--fused", paths["fused"], "--out", str(out)]
        elif target == "config":
            argv = eval_argv(dataset, str(out), "--config", paths["config"])
        elif target == "ground_truth":
            argv = ["eval", "--manifest", paths["manifest"], "--predictions",
                    paths["predictions"], "--ground-truth", paths["ground_truth"],
                    "--out", str(out)]
        else:
            argv = ["fuse", "--manifest", paths["manifest"],
                    "--predictions", paths["predictions"], "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err)["error"] == error
        assert not out.exists()

    @pytest.mark.parametrize("target, keys", [
        ("predictions", ("modes", 0, "points", 0, 1)),
        ("ground_truth", ("points", 0, 1)),
    ])
    def test_infinite_coordinate_names_file_line_and_field(self, dataset, tmp_path, capsys,
                                                           target, keys):
        paths = {name: str(dataset / f"{name}.ndjson") for name in ("predictions", "ground_truth")}
        paths[target] = str(tmp_path / "damaged.ndjson")
        Path(paths[target]).write_bytes(
            _overflowing(*keys)((dataset / f"{target}.ndjson").read_bytes()))
        assert main(["eval", "--manifest", str(dataset / "manifest.json"),
                     "--predictions", paths["predictions"], "--ground-truth",
                     paths["ground_truth"], "--out", str(tmp_path / "out")]) == 1
        payload = stderr_payload(capsys)
        assert payload["error"] == "ParseError"
        assert payload["message"].startswith(f"{paths[target]}: line 1: field 'points': ")
        assert "finite" in payload["message"]

    @pytest.mark.parametrize("command, predictions, truth, named", [
        ("fuse", {"s0": {"a": (1e308, [[0, 0]]), "b": (1e308, [[1, 0]])}}, None,
         "confidences"),
        ("eval", {"s0": {"a": (1e308, [[0, 0]]), "b": (1e308, [[1, 0]])}}, {"s0": [[0, 0]]},
         "confidences"),
        # The weighted spread is +inf at one step and -inf at the other.
        ("fuse", {"s0": {"a": (1.0, [[1e200, 1e200], [1e200, -1e200]]),
                         "b": (1.0, [[-1e200, -1e200], [-1e200, 1e200]])}}, None, "spread"),
        # Each member is 1e200 from the fused point, so its squared deviation is +inf.
        ("fuse", {"s0": {"a": (1.0, [[1e200, 0]]), "b": (1.0, [[-1e200, 0]])}}, None, "spread"),
        # Each sample's error is finite; the sum of the two is not.
        ("eval", {sid: {"a": (1.0, [[8e307, 0]]), "b": (1.0, [[8e307, 0]])}
                  for sid in ("s0", "s1")},
         {"s0": [[-8e307, 0]], "s1": [[-8e307, 0]]}, "mean"),
        ("eval", {"s0": {"a": (1.0, [[8e307, 0], [8e307, 0]]),
                         "b": (1.0, [[8e307, 0], [8e307, 0]])}},
         {"s0": [[-8e307, 0], [-8e307, 0]]}, "ADE"),
        # One waypoint's difference, 3.4e308, is itself past the range.
        ("eval", {"s0": {"a": (1.0, [[1.7e308, 0]]), "b": (1.0, [[1.7e308, 0]])}},
         {"s0": [[-1.7e308, 0]]}, "ADE"),
    ], ids=["fuse_confidence_sum", "eval_confidence_sum", "fuse_spread", "fuse_spread_inf",
            "eval_mean", "eval_ade", "eval_waypoint_error"])
    def test_finite_numbers_whose_sums_overflow(self, tmp_path, capsys, command, predictions,
                                                truth, named):
        """Finite inputs whose sums pass the float range: a NumericalError, not a traceback."""
        horizon = len(predictions["s0"]["a"][1])
        manifest = {"format_version": 1, "dataset_name": "huge", "horizon": horizon, "dt": 0.5,
                    "model_ids": ["a", "b"], "sample_count": len(predictions)}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "predictions.ndjson").write_text("".join(
            json.dumps({"sample_id": sid, "model_id": mid,
                        "modes": [{"confidence": confidence, "points": points}]}) + "\n"
            for sid, by_model in predictions.items()
            for mid, (confidence, points) in by_model.items()))
        argv = [command, "--manifest", str(tmp_path / "manifest.json"),
                "--predictions", str(tmp_path / "predictions.ndjson")]
        if truth is not None:
            (tmp_path / "ground_truth.ndjson").write_text("".join(
                json.dumps({"sample_id": sid, "points": points}) + "\n"
                for sid, points in truth.items()))
            argv += ["--ground-truth", str(tmp_path / "ground_truth.ndjson")]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        payload = json.loads(err)
        assert payload["error"] == "NumericalError"
        assert named in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("pair, floats", [([0, 1], [0.0, 1.0]), ([2, 1.5], [2.0, 1.5])],
                             ids=["ints", "mixed"])
    def test_integer_coordinates_fuse_like_floats(self, dataset, tmp_path, pair, floats):
        fused = {}
        for name, value in (("spelled", pair), ("floats", floats)):
            dump = tmp_path / f"{name}.ndjson"
            dump.write_bytes(_first_record((("modes", 0, "points", 0), value))(
                (dataset / "predictions.ndjson").read_bytes()))
            fused[name] = tmp_path / f"fused_{name}.ndjson"
            assert main(["fuse", "--manifest", str(dataset / "manifest.json"),
                         "--predictions", str(dump), "--out", str(fused[name])]) == 0
        assert fused["spelled"].read_bytes() == fused["floats"].read_bytes()


# A bad flag value must be refused before any input is opened or output
# written: every input path below is missing, except the manifest that
# --primary-model is checked against.
_MISSING_DUMP = ("--manifest", "{missing}", "--predictions", "{missing}")
_MISSING_INPUTS = {
    "fuse": _MISSING_DUMP,
    "eval": (*_MISSING_DUMP, "--ground-truth", "{missing}"),
    "overlap": (*_MISSING_DUMP, "--ground-truth", "{missing}"),
    "synth": ("--samples", "5"),
    "flags": ("--fused", "{missing}"),
}
_THRESHOLD = ("--strategy", "threshold", "--primary-model", "const_velocity", "--tau", "-1")
_THREADED = ("fuse", "eval", "overlap", "synth")


class TestBadFlagsRefusedFirst:
    @pytest.mark.parametrize("argv, named", [
        (("synth", "--overlap-k", "0"), "--overlap-k"),
        (("synth", "--overlap-k", "nan"), "--overlap-k"),
        (("synth", "--strategy", "threshold", "--tau", "-1"), "--tau"),
        (("fuse", *_THRESHOLD), "--tau"),
        (("eval", *_THRESHOLD), "--tau"),
        (("eval", "--manifest", "{manifest}", "--strategy", "threshold",
          "--primary-model", "nobody"), "--primary-model"),
        (("flags", "--confidence-floor", "nan"), "--confidence-floor"),
        (("synth", "--horizon", "1000000000000000000000000"), "--horizon"),
        (("synth", "--samples", "0"), "--samples"),
        (("synth", "--dt", "0"), "--dt"),
        (("synth", "--mix", "1,1,1"), "--mix"),
        (("synth", "--mix", "a,b,c"), "--mix"),
        (("synth", "--mix", "1e308,1e308,0"), "--mix"),
        (("synth", "--seed", "-1"), "--seed"),
        (("eval", "--k-list", ","), "--k-list"),
        *(((command, "--threads", "0"), "--threads") for command in _THREADED),
    ], ids=["synth-overlap-k-0", "synth-overlap-k-nan", "synth-tau", "fuse-tau", "eval-tau",
            "eval-primary", "flags-floor-nan", "synth-horizon", "synth-samples", "synth-dt",
            "synth-mix-sum", "synth-mix-text", "synth-mix-sum-overflow", "synth-seed", "eval-k-list-empty",
            *(f"{c}-threads" for c in _THREADED)])
    def test_refused(self, dataset, tmp_path, capsys, argv, named):
        # A --manifest in argv comes after the missing one, so it wins.
        paths = {"missing": tmp_path / "missing.ndjson", "manifest": dataset / "manifest.json"}
        out = tmp_path / "out"
        argv = [argv[0], *_MISSING_INPUTS[argv[0]], *argv[1:], "--out", str(out)]
        assert main([arg.format(**paths) for arg in argv]) == 1
        payload = stderr_payload(capsys)
        assert payload["error"] == "InvalidInput"
        assert named in payload["message"]
        assert not out.exists()

    def test_flags_takes_no_threads(self, dataset, tmp_path, capsys):
        fused = ["flags", "--fused", str(dataset / "fused_weighted.ndjson")]
        out = tmp_path / "out"
        assert main([*fused, "--threads", "1", "--out", str(out)]) == 1
        payload = stderr_payload(capsys)
        assert payload["error"] == "UsageError"
        assert "--threads" in payload["message"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"threads": 1}))
        assert main([*fused, "--config", str(config), "--out", str(out)]) == 1
        assert "unknown key(s) threads" in stderr_payload(capsys)["message"]
        assert not out.exists()


class TestFlags:
    def test_floor_above_one_flags_everything(self, dataset, tmp_path):
        out = tmp_path / "flags.json"
        assert main(["flags", "--fused", str(dataset / "fused_weighted.ndjson"),
                     "--confidence-floor", "1.01", "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(Path(out).read_text(encoding="utf-8"))
        assert payload["count"] == 30

    def test_floor_zero_flags_nothing(self, dataset, tmp_path):
        out = tmp_path / "flags.csv"
        assert main(["flags", "--fused", str(dataset / "fused_weighted.ndjson"),
                     "--confidence-floor", "0", "--out", str(out)]) == 0
        assert out.read_text().splitlines() == ["sample_id,confidence"]

    def test_flagged_subset_matches_recomputation(self, dataset, tmp_path):
        fused_path = str(dataset / "fused_weighted.ndjson")
        expected = sorted(
            (p.sample_id, p.confidence)
            for p in load_fused(fused_path)
            if p.confidence < 0.9
        )
        assert 0 < len(expected) < 30
        out = tmp_path / "flags.json"
        assert main(["flags", "--fused", fused_path, "--confidence-floor", "0.9",
                     "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(Path(out).read_text(encoding="utf-8"))
        assert [(f["sample_id"], f["confidence"]) for f in payload["flagged"]] == expected

    def test_csv_confidences_roundtrip(self, dataset, tmp_path):
        fused_path = str(dataset / "fused_weighted.ndjson")
        out = tmp_path / "flags.csv"
        assert main(["flags", "--fused", fused_path, "--confidence-floor", "1.01",
                     "--out", str(out)]) == 0
        by_id = {p.sample_id: p.confidence for p in load_fused(fused_path)}
        with open(out, encoding="utf-8", newline="") as f:
            for row in csv.DictReader(f):
                assert float(row["confidence"]) == by_id[row["sample_id"]]

    def test_infinite_floor_rejected(self, dataset, tmp_path, capsys):
        assert main(["flags", "--fused", str(dataset / "fused_weighted.ndjson"),
                     "--confidence-floor", "inf", "--out", str(tmp_path / "f")]) == 1
        assert stderr_payload(capsys)["error"] == "InvalidInput"


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, dataset, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k_list": "5", "format": "json"}))
        out = tmp_path / "summary.csv"
        assert main(eval_argv(dataset, str(out), "--config", str(config),
                              "--format", "csv")) == 0
        header = out.read_text().splitlines()[0]
        # k_list came from the config; format came from the explicit flag.
        assert header == "method,top5_ade,top5_fde,overall_ade,overall_fde"

    def test_config_alone_sets_format(self, dataset, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"format": "json"}))
        out = tmp_path / "summary.json"
        assert main(eval_argv(dataset, str(out), "--config", str(config))) == 0
        assert isinstance(json.loads(Path(out).read_text(encoding="utf-8")), list)

    def test_unknown_config_key_rejected(self, dataset, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus": 1}))
        assert main(eval_argv(dataset, str(tmp_path / "s.csv"),
                              "--config", str(config))) == 1
        assert "bogus" in stderr_payload(capsys)["message"]

    def test_malformed_config_rejected(self, dataset, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{broken")
        assert main(eval_argv(dataset, str(tmp_path / "s.csv"),
                              "--config", str(config))) == 1
        assert stderr_payload(capsys)["error"] == "InvalidInput"

    @pytest.mark.parametrize("command, config, named", [
        ("eval", {"k_list": 5}, "k_list"),
        ("synth", {"mix": 3}, "mix"),
        ("flags", {"format": "xml"}, "xml"),
        ("eval", {"strategy": "bogus"}, "bogus"),
        ("eval", [], "must hold a JSON object"),
    ], ids=["k_list", "mix", "format", "strategy", "not_an_object"])
    def test_config_values_checked_like_flags(self, dataset, tmp_path, capsys,
                                              command, config, named):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = str(tmp_path / "out")
        argv = {
            "eval": eval_argv(dataset, out),
            "synth": ["synth", "--samples", "5", "--out", out],
            "flags": ["flags", "--fused", str(dataset / "fused_weighted.ndjson"),
                      "--out", out],
        }[command]
        assert main(argv + ["--config", str(path)]) == 1
        payload = stderr_payload(capsys)
        assert payload["error"] in ("InvalidInput", "UsageError")
        assert named in payload["message"]
        assert not os.path.exists(out)

    # A config value gives the bytes its flag gives.  A config list for a
    # multi-valued flag is spelled as that flag, so the explicit
    # --predictions (later on the line) still wins over the missing file.
    @pytest.mark.parametrize("config, flags", [
        ({"sort_by_ade": True}, ["--sort-by-ade"]),
        ({"predictions": ["{missing}"]}, []),
    ], ids=["switch", "multi_valued"])
    def test_config_gives_the_flag_bytes(self, dataset, tmp_path, config, flags):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace("{missing}", str(tmp_path / "missing")))
        by_config = tmp_path / "config.csv"
        by_flags = tmp_path / "flags.csv"
        assert main(eval_argv(dataset, str(by_config), "--config", str(path))) == 0
        assert main(eval_argv(dataset, str(by_flags), *flags)) == 0
        assert by_config.read_bytes() == by_flags.read_bytes()

    @pytest.mark.parametrize("command, inputs", [
        ("fuse", ("manifest", "predictions")),
        ("eval", ("manifest", "predictions", "ground_truth")),
        ("overlap", ("manifest", "predictions", "ground_truth")),
        ("flags", ("fused",)),
    ])
    def test_config_supplies_the_required_inputs(self, dataset, tmp_path, command, inputs):
        files = {"manifest": "manifest.json", "predictions": "predictions.ndjson",
                 "ground_truth": "ground_truth.ndjson", "fused": "fused_weighted.ndjson"}
        config = {name: str(dataset / files[name]) for name in inputs}
        flags = [arg for name in inputs
                 for arg in (f"--{name.replace('_', '-')}", config[name])]
        if "predictions" in config:
            config["predictions"] = [config["predictions"]]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        by_config = tmp_path / "by_config"
        by_flags = tmp_path / "by_flags"
        assert main([command, "--config", str(path), "--out", str(by_config)]) == 0
        assert main([command, *flags, "--out", str(by_flags)]) == 0
        assert by_config.read_bytes() == by_flags.read_bytes()

    @pytest.mark.parametrize("command, config, missing", [
        ("fuse", {}, "--manifest, --predictions"),
        ("fuse", {"manifest": "m.json"}, "--predictions"),
        ("eval", {"predictions": ["p.ndjson"]}, "--manifest, --ground-truth"),
        ("flags", {"format": "json"}, "--fused"),
    ])
    def test_inputs_in_neither_are_named(self, tmp_path, capsys, command, config, missing):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert stderr_payload(capsys) == {
            "error": "UsageError",
            "message": f"the following arguments are required: {missing}",
        }
        assert not out.exists()

    def test_synth_samples_from_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"samples": 7, "horizon": 4}))
        out = tmp_path / "o"
        assert main(["synth", "--config", str(config), "--seed", "5",
                     "--out", str(out)]) == 0
        manifest = load_manifest(str(out / "manifest.json"))
        assert manifest.sample_count == 7
        assert manifest.horizon == 4


class TestOutputPaths:
    def test_out_dir_env_var(self, dataset, tmp_path, monkeypatch):
        target = tmp_path / "reports"
        target.mkdir()
        monkeypatch.setenv(OUT_DIR_ENV, str(target))
        assert main(["flags", "--fused", str(dataset / "fused_weighted.ndjson"),
                     "--confidence-floor", "1.01"]) == 0
        assert (target / "flags.csv").exists()

    def test_default_out_is_cwd(self, dataset, tmp_path, monkeypatch):
        monkeypatch.delenv(OUT_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["flags", "--fused", str(dataset / "fused_weighted.ndjson"),
                     "--confidence-floor", "1.01"]) == 0
        assert (tmp_path / "flags.csv").exists()

    def test_missing_out_directory_names_the_destination(self, dataset, tmp_path, capsys):
        out = str(tmp_path / "absent" / "flags.csv")
        assert main(["flags", "--fused", str(dataset / "fused_weighted.ndjson"),
                     "--out", out]) == 2
        payload = stderr_payload(capsys)
        assert payload["error"] == "IOError"
        assert out in payload["message"]
        assert ".tmp" not in payload["message"]

    def test_stdout_reports_written_files(self, dataset, tmp_path, capsys):
        out = str(tmp_path / "flags.csv")
        assert main(["flags", "--fused", str(dataset / "fused_weighted.ndjson"),
                     "--out", out]) == 0
        assert f"wrote {out}" in capsys.readouterr().out


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert stderr_payload(capsys)["error"] == "UsageError"

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 1
        assert stderr_payload(capsys)["error"] == "UsageError"

    def test_missing_required_flag(self, capsys):
        assert main(["fuse"]) == 1
        assert stderr_payload(capsys)["error"] == "UsageError"

    @pytest.mark.parametrize("command, missing", [
        ("fuse", "--manifest, --predictions"),
        ("eval", "--manifest, --predictions, --ground-truth"),
        ("overlap", "--manifest, --predictions, --ground-truth"),
        ("flags", "--fused"),
    ])
    def test_missing_inputs_named_like_argparse(self, tmp_path, capsys, command, missing):
        assert main([command, "--out", str(tmp_path / "out")]) == 1
        assert stderr_payload(capsys) == {
            "error": "UsageError",
            "message": f"the following arguments are required: {missing}",
        }

    def test_bad_choice(self, dataset, capsys):
        assert main(eval_argv(dataset, "x", "--format", "yaml")) == 1
        assert stderr_payload(capsys)["error"] == "UsageError"

    def test_bad_threads(self, dataset, tmp_path, capsys):
        assert main(eval_argv(dataset, str(tmp_path / "s.csv"),
                              "--threads", "0")) == 1
        assert stderr_payload(capsys)["error"] == "InvalidInput"

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--help"])
        assert exc.value.code == 0

    def test_errors_are_json_on_stderr(self, tmp_path, capsys):
        assert main(["flags", "--fused", str(tmp_path / "missing.ndjson"),
                     "--out", str(tmp_path / "f")]) == 2
        payload = stderr_payload(capsys)
        assert set(payload) == {"error", "message"}


def _refuse_spread(*args):
    raise NumericalError("spread measured")


class TestSpreadOnlyWhereRecorded:
    """eval writes no fused records, so it never measures their covariance."""

    def test_eval_never_measures_it(self, dataset, tmp_path, monkeypatch):
        flags = ("--strategy", "all", "--primary-model", "const_turn_rate")
        expected = tmp_path / "expected.csv"
        got = tmp_path / "got.csv"
        assert main(eval_argv(dataset, str(expected), *flags)) == 0
        monkeypatch.setattr(fusion, "_spread", _refuse_spread)
        assert main(eval_argv(dataset, str(got), *flags)) == 0
        assert got.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("command", ["fuse", "synth"])
    def test_fuse_and_synth_still_do(self, dataset, tmp_path, monkeypatch, capsys, command):
        out = tmp_path / "out"
        argv = {
            "fuse": ["fuse", "--manifest", str(dataset / "manifest.json"),
                     "--predictions", str(dataset / "predictions.ndjson")],
            "synth": ["synth", "--samples", "3"],
        }[command]
        monkeypatch.setattr(fusion, "_spread", _refuse_spread)
        assert main([*argv, "--out", str(out)]) == 1
        assert stderr_payload(capsys) == {"error": "NumericalError",
                                          "message": "spread measured"}


class TestOutOfMemory:
    """Running out of memory is one JSON error and exit 2, at one worker or three.

    At three workers only the workers run out, so a serial rerun of the
    dataset would succeed: the command must not make one.
    """

    def assert_refused(self, argv: list[str], out: Path, capsys, forks: list[int],
                       threads: str) -> None:
        assert main([*argv, "--threads", threads]) == 2
        assert capsys.readouterr().err == (
            '{"error": "MemoryError", "message": "out of memory"}\n')
        assert not out.exists()
        assert len(forks) == (3 if threads == "3" else 0)
        assert all(reaped(pid) for pid in forks)

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("command", TestDumpWorkers.DUMP_COMMANDS)
    def test_dump_commands(self, dataset, tmp_path, capsys, monkeypatch, three_workers,
                           command, threads):
        load = io._load

        def exhausted(manifest, prediction_paths, ground_truth_path, ids):
            if threads == "1" or ids is not io._WHOLE:
                raise MemoryError
            return load(manifest, prediction_paths, ground_truth_path, ids)

        monkeypatch.setattr(io, "_load", exhausted)
        out = tmp_path / "out"
        argv = _dump_argv(command, dataset / "manifest.json", [dataset / "predictions.ndjson"],
                          dataset / "ground_truth.ndjson", out)
        self.assert_refused(argv, out, capsys, three_workers, threads)

    @pytest.mark.parametrize("command", TestDumpWorkers.DUMP_COMMANDS)
    def test_worker_that_cannot_send_its_error(self, dataset, tmp_path, capsys, monkeypatch,
                                               three_workers, command):
        """Workers out of memory to pickle their result, and then the MemoryError, end as one."""
        parent = os.getpid()
        dumps = pickle.dumps

        def exhausted(*args, **kwargs):
            if os.getpid() != parent:
                raise MemoryError
            return dumps(*args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", exhausted)
        out = tmp_path / "out"
        argv = _dump_argv(command, dataset / "manifest.json", [dataset / "predictions.ndjson"],
                          dataset / "ground_truth.ndjson", out)
        self.assert_refused(argv, out, capsys, three_workers, "3")

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_synth(self, tmp_path, capsys, monkeypatch, three_workers, threads):
        parent = os.getpid()
        predict = synth.run_predictor

        def exhausted(spec, scenario, seed):
            if threads == "1" or os.getpid() != parent:
                raise MemoryError
            return predict(spec, scenario, seed)

        monkeypatch.setattr(synth, "run_predictor", exhausted)
        out = tmp_path / "out"
        argv = ["synth", "--samples", "30", "--horizon", "6", "--out", str(out)]
        self.assert_refused(argv, out, capsys, three_workers, threads)


class TestForkRefused:
    """A fork the system refuses ends the run, and the child already forked is reaped."""

    @pytest.fixture
    def forked(self, monkeypatch, three_workers) -> list[int]:
        """``os.fork`` refuses its 2nd call with EAGAIN; the pids of the children it forked."""
        fork, calls = os.fork, []

        def refusing_second():
            calls.append(None)
            if len(calls) == 2:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", refusing_second)
        return three_workers

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count")
    def test_fork_map_reaps_its_child_and_closes_its_pipes(self, forked):
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError) as caught:
            workers.fork_map(lambda part: part, [0, 1], str)
        assert caught.value.errno == errno.EAGAIN
        assert len(forked) == 1 and reaped(forked[0])
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_dump_command_is_one_io_error(self, dataset, tmp_path, capsys, forked):
        out = tmp_path / "fused.ndjson"
        argv = _dump_argv("fuse", dataset / "manifest.json", [dataset / "predictions.ndjson"],
                          dataset / "ground_truth.ndjson", out, "--threads", "2")
        assert main(argv) == 2
        assert capsys.readouterr().err == json.dumps(
            {"error": "IOError", "message": str(OSError(errno.EAGAIN, os.strerror(errno.EAGAIN)))}
        ) + "\n"
        assert list(tmp_path.iterdir()) == []
        assert len(forked) == 1 and reaped(forked[0])


class TestCyclicGcOff:
    """main turns cyclic GC off for the command and restores the caller's setting."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
    @pytest.mark.parametrize("outcome", ["success", "failure", "crash", "help"])
    def test_state_restored(self, dataset, tmp_path, monkeypatch, enabled, outcome):
        seen = []
        run_flags = cli._COMMANDS["flags"]

        def flags(args):
            seen.append(gc.isenabled())
            if outcome == "crash":
                raise RuntimeError("crash")
            return run_flags(args)

        monkeypatch.setitem(cli._COMMANDS, "flags", flags)
        fused = tmp_path / "missing.ndjson" if outcome == "failure" else (
            dataset / "fused_weighted.ndjson")
        argv = ["flags", "--fused", str(fused), "--out", str(tmp_path / "flags.csv")]
        if outcome == "help":
            argv = ["flags", "--help"]
        (gc.enable if enabled else gc.disable)()
        try:
            if outcome == "success":
                assert main(argv) == 0
            elif outcome == "failure":
                assert main(argv) == 2
            else:
                with pytest.raises((RuntimeError, SystemExit)):
                    main(argv)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert seen == ([] if outcome == "help" else [False])

    def test_leftover_garbage_does_not_grow_with_samples(self, tmp_path):
        def garbage(samples: int) -> int:
            gc.collect()
            gc.disable()
            try:
                assert main(["synth", "--samples", str(samples), "--horizon", "5",
                             "--out", str(tmp_path)]) == 0
                return gc.collect()
            finally:
                gc.enable()

        garbage(5)  # the first run also leaves behind what imports and caches build
        assert garbage(10) == garbage(300)
