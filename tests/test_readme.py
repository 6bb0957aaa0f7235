"""The README's Python examples and its shell Quick start run as written."""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
SRC = str(README.parent / "src")

# Each block runs after the ones before it, in one namespace, as a reader
# pasting them into one interpreter would run them.
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)

QUICK_START = TEXT.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]


def test_python_blocks_run_and_print(capsys):
    assert BLOCKS
    namespace: dict = {}
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)
        assert capsys.readouterr().out


def test_shell_quick_start_runs_in_order(tmp_path):
    """Each Quick start command exits 0 and writes what the README says it writes.

    The commands run in one directory, in order, as ``python -m
    trajfuse.cli`` with the package on ``PYTHONPATH``.  ``--samples
    10000`` becomes ``--samples 201`` to keep the run short; every other
    argument is as written.
    """
    blocks = re.findall(r"^```sh\n(.*?)^```", QUICK_START, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    commands = [shlex.split(line) for block in blocks
                for line in block.replace("\\\n", " ").splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["trajfuse", "synth"], ["trajfuse", "fuse"], ["trajfuse", "eval"],
        ["trajfuse", "overlap"], ["trajfuse", "flags"]]
    # The files the README names between the two blocks, in synth's --out.
    named = re.findall(r"`(\w+\.(?:json|ndjson|csv))`", QUICK_START.split("```", 3)[2])
    assert named == ["manifest.json", "predictions.ndjson", "ground_truth.ndjson",
                     "summary.csv", "overlap.csv"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    for argv in commands:
        argv = [sys.executable, "-m", "trajfuse.cli", *argv[1:]]
        if "--samples" in argv:
            at = argv.index("--samples") + 1
            assert argv[at] == "10000"
            argv[at] = "201"
        done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).exists()
    demo = tmp_path / "runs" / "demo"
    for name in [*named, *(f"fused_{s}.ndjson" for s in ("weighted", "simple", "threshold"))]:
        assert (demo / name).is_file(), name
