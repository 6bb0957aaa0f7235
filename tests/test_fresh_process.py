"""The CLI run as a fresh interpreter, where the tests in process cannot see.

Each run is ``python -c _MAIN <command> ...`` with the package on
``PYTHONPATH``: a new process that has started nothing but its main
thread, run under the warning filters that make Python 3.12's warning
for a fork of a threaded process print.  ``_MAIN`` wraps ``os.fork`` to
record the process's OS thread count at each fork, which shows such a
fork on every Python version.  Each run has a session of its own and a
time limit; on expiry its whole process group is killed and the test
fails, so a run that hangs cannot hang the suite.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import pytest

from trajfuse.workers import usable_cpus

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Runs the CLI on sys.argv[1:] and prints last on stdout the OS thread count
# of this process at each os.fork it made.  A forked worker never returns
# into this code: it leaves through os._exit.
_MAIN = """\
import json, os, sys
fork = os.fork
threads = []
def counting_fork():
    threads.append(len(os.listdir("/proc/self/task")))
    return fork()
os.fork = counting_fork
from trajfuse.cli import main
code = main(sys.argv[1:])
print(json.dumps(threads))
sys.exit(code)
"""

# Errors for every DeprecationWarning, but prints the fork warning: os.fork
# cannot raise it, so under the error filter alone it would be dropped.
_WARNINGS = ["-W", "error::DeprecationWarning", "-W", "always:This process:DeprecationWarning"]

_TIMEOUT_S = 60

pytestmark = [
    pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork: every command runs serially"),
    pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                       reason="no /proc/self/task to count a process's threads"),
    pytest.mark.skipif(usable_cpus() < 2,
                       reason="fewer than 2 usable CPUs: --threads 2 runs one worker"),
]


def run(*argv: str, pass_fds: tuple[int, ...] = ()) -> tuple[int, str, list[int]]:
    """Run the CLI on ``argv`` in a fresh interpreter: its exit code, stderr and forks.

    The forks are the process's thread count at each ``os.fork``.
    """
    with subprocess.Popen([sys.executable, *_WARNINGS, "-c", _MAIN, *argv],
                          env={**os.environ, "PYTHONPATH": SRC}, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, pass_fds=pass_fds,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # its workers too; reaped by init
            proc.communicate()
            pytest.fail(f"trajfuse {' '.join(argv)} still ran after {_TIMEOUT_S} s")
    return proc.returncode, err, json.loads(out.splitlines()[-1]) if out else []


def written(path: Path) -> dict[str, bytes]:
    """The bytes of ``path``, or of each file under it by relative name, as ``diff -r`` sees them."""
    if path.is_file():
        return {"": path.read_bytes()}
    return {str(f.relative_to(path)): f.read_bytes() for f in sorted(path.rglob("*"))
            if f.is_file()}


SYNTH = ("synth", "--samples", "201", "--horizon", "30", "--seed", "5")


@pytest.fixture(scope="module")
def dump(tmp_path_factory) -> Path:
    """A 201-sample synth dump, written by one worker."""
    out = tmp_path_factory.mktemp("synth") / "dump"
    assert run(*SYNTH, "--threads", "1", "--out", str(out)) == (0, "", [])
    return out


def dump_argv(command: str, dump: Path, predictions: str, truth: str) -> list[str]:
    """``command`` on ``dump``'s manifest and the given files; ``eval`` scores every strategy."""
    argv = [command, "--manifest", str(dump / "manifest.json"), "--predictions", predictions]
    if command == "eval":
        argv += ["--strategy", "all", "--primary-model", "const_turn_rate"]
    if command != "fuse":
        argv += ["--ground-truth", truth]
    return argv


def test_same_outputs_at_one_and_two_workers_and_no_threaded_fork(dump, tmp_path):
    """Every command writes the same bytes at 1 and 2 workers, in any line order.

    Each run exits 0 with empty stderr; at 2 workers each sharded command
    forks, and every fork is of a process that runs one thread.
    """
    def ran(*argv: str, threads: str | None = None) -> None:
        code, err, forks = run(*argv, *(("--threads", threads) if threads else ()))
        assert (code, err) == (0, ""), argv
        assert forks == [1] * len(forks), f"{argv[0]} forked a process with threads: {forks}"
        if threads is not None:
            assert (len(forks) > 0) == (threads == "2"), (argv, forks)

    ran(*SYNTH, "--out", str(tmp_path / "synth-2"), threads="2")
    assert written(tmp_path / "synth-2") == written(dump)
    reversed_dump = tmp_path / "reversed"
    reversed_dump.mkdir()
    (reversed_dump / "manifest.json").write_bytes((dump / "manifest.json").read_bytes())
    for name in ("predictions.ndjson", "ground_truth.ndjson"):
        lines = (dump / name).read_bytes().splitlines(keepends=True)
        (reversed_dump / name).write_bytes(b"".join(reversed(lines)))
    outputs = {}
    for source in (dump, reversed_dump):
        for threads in ("1", "2"):
            out = tmp_path / f"{source.name}-{threads}"
            out.mkdir()
            inputs = (str(source / "predictions.ndjson"), str(source / "ground_truth.ndjson"))
            for command, name in (("fuse", "fused.ndjson"), ("eval", "summary.csv"),
                                  ("overlap", "overlap.csv")):
                ran(*dump_argv(command, source, *inputs), "--out", str(out / name),
                    threads=threads)
            ran("flags", "--fused", str(out / "fused.ndjson"), "--confidence-floor", "0.99",
                "--out", str(out / "flags.csv"))
            outputs[out.name] = written(out)
    assert outputs["dump-1"]["fused.ndjson"] == (dump / "fused_weighted.ndjson").read_bytes()
    assert outputs["dump-1"]["flags.csv"].count(b"\n") > 1  # the floor flags some samples
    assert all(got == outputs["dump-1"] for got in outputs.values())


@contextmanager
def feeding(source: Path, target: str, **popen) -> Iterator[subprocess.Popen]:
    """A process that copies ``source`` into ``target``; killed if it still runs at the end."""
    copy = ("import shutil, sys\n"
            "with open(sys.argv[1], 'rb') as src, open(sys.argv[2], 'wb') as dst:\n"
            "    shutil.copyfileobj(src, dst)\n")
    with subprocess.Popen([sys.executable, "-c", copy, str(source), target], **popen) as writer:
        try:
            yield writer
        finally:
            writer.kill()


@pytest.mark.parametrize("kind", ["fifo", "pipe"])
@pytest.mark.parametrize("command, target", [
    ("fuse", "predictions"), ("eval", "predictions"), ("eval", "ground_truth"),
    ("overlap", "ground_truth"),
])
def test_input_that_is_not_a_regular_file_runs_as_one_part(dump, tmp_path, kind, command,
                                                            target):
    """A FIFO, or a pipe inherited as /dev/fd/N, can be read once: at 2 workers it runs as one.

    The output is the bytes a one-worker run on regular files writes.
    """
    inputs = {name: str(dump / f"{name}.ndjson") for name in ("predictions", "ground_truth")}
    source = Path(inputs[target])
    out = tmp_path / "out"
    if kind == "fifo":
        inputs[target] = str(tmp_path / source.name)
        os.mkfifo(inputs[target])
        feeder = feeding(source, inputs[target])
    else:
        feeder = feeding(source, "/dev/stdout", stdout=subprocess.PIPE)
    with feeder as writer:
        pass_fds = ()
        if kind == "pipe":
            pass_fds = (writer.stdout.fileno(),)
            inputs[target] = f"/dev/fd/{pass_fds[0]}"
        code, err, forks = run(*dump_argv(command, dump, inputs["predictions"],
                                          inputs["ground_truth"]),
                               "--threads", "2", "--out", str(out), pass_fds=pass_fds)
    assert (code, err, forks) == (0, "", [])
    expected = {"fuse": "fused_weighted.ndjson", "eval": "summary.csv",
                "overlap": "overlap.csv"}[command]
    assert out.read_bytes() == (dump / expected).read_bytes()
