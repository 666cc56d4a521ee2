"""The README's code examples run as written, and its config block holds
the defaults it says it holds."""

import contextlib
import dataclasses
import io
import math
import re
from pathlib import Path

from vuglab.cli import ExperimentConfig, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading: str, lang: str = "python") -> str:
    """The first ```lang block under the README section `heading`."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    match = re.search(rf"```{lang}\n(.*?)```", section, re.S)
    assert match, f"no {lang} block under '## {heading}'"
    return match.group(1)


def test_configuration_block_is_the_defaults(tmp_path):
    """The README shows defaults except where noted, and notes no value,
    so its block loads equal to `ExperimentConfig()` field by field."""
    path = tmp_path / "config.json"
    path.write_text(code_block("Configuration", "json"), encoding="utf-8")
    loaded, default = load_config(str(path)), ExperimentConfig()
    differ = [
        f.name
        for f in dataclasses.fields(ExperimentConfig)
        if getattr(loaded, f.name) != getattr(default, f.name)
    ]
    assert differ == []


def test_library_use_block_runs():
    """The block trains a small cdr-vug model and prints its NDCG@10 gap."""
    out = io.StringIO()
    scope = {}
    with contextlib.redirect_stdout(out):
        exec(compile(code_block("Library use"), str(README), "exec"), scope)
    ugf = float(out.getvalue())
    assert math.isfinite(ugf) and ugf >= 0.0
    virtual = scope["trainer"].virtual
    assert virtual.shape == (scope["cross"].target.n_users, 16)
