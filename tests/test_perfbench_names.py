"""The benchmark patches vuglab functions by name (perfbench/tracing.py).

Each span, clock boundary and evaluate site must still resolve, so that
renaming or deleting one fails here in seconds rather than in a benchmark
run. The tracing module is loaded from its file; perfbench is not a package.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "module, cls, attr",
    [entry[1:4] for entry in tracing.SPANS]
    + list(tracing.BOUNDARIES)
    + [(site, None, "evaluate") for site in tracing.EVALUATE_SITES],
)
def test_patched_name_resolves(module, cls, attr):
    _, original = tracing._lookup(module, cls, attr)
    assert original is not None
