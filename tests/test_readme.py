"""The README's Python examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# Each block runs after the ones before it, in one namespace, as a reader
# pasting them into one interpreter would run them.
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_python_blocks_run_and_print(capsys):
    assert BLOCKS
    namespace: dict = {}
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)
        assert capsys.readouterr().out
