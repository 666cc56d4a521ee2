"""The README's code examples run as written."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading: str) -> str:
    """The first ```python block under the README section `heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, f"no python block under '## {heading}'"
    return match.group(1)


def test_library_use_block_runs():
    """The block trains a small cdr-vug model and prints its NDCG@10 gap."""
    out = io.StringIO()
    scope = {}
    with contextlib.redirect_stdout(out):
        exec(compile(python_block("Library use"), str(README), "exec"), scope)
    ugf = float(out.getvalue())
    assert math.isfinite(ugf) and ugf >= 0.0
    virtual = scope["trainer"].virtual
    assert virtual.shape == (scope["cross"].target.n_users, 16)
