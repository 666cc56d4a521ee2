"""The benchmark patches vuglab functions by name (perfbench/tracing.py)
and checks its results with vuglab's data types (perfbench/workloads.py).

Each span, clock boundary and evaluate site must still resolve, and the
correctness check must still run, so that renaming, deleting or retyping
one fails here in seconds rather than in a benchmark run. The modules are
loaded from their files; perfbench is not a package.
"""

import functools
import importlib.util
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from vuglab import params
from vuglab.cli import ExperimentConfig, SyntheticCdrSpec, prepare_splits, run_experiment, synth_cdr
from vuglab.model import CdrModel
from vuglab.training import TrainConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = load_perfbench("tracing")


@pytest.mark.parametrize(
    "module, cls, attr",
    [entry[1:4] for entry in tracing.SPANS]
    + list(tracing.BOUNDARIES)
    + [(site, None, "evaluate") for site in tracing.EVALUATE_SITES],
)
def test_patched_name_resolves(module, cls, attr):
    _, original = tracing._lookup(module, cls, attr)
    assert original is not None


def test_ingest_oracle_accepts_the_split_types(monkeypatch):
    """The ingest-eval-20k correctness check builds a `SplitDataset` from
    lists of pairs, tests `by_user` rows for truth and iterates `.test`
    rows; run it on a small synthetic model and require no problem."""
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    monkeypatch.setitem(sys.modules, "ingest_data", load_perfbench("ingest_data"))
    workloads = load_perfbench("workloads")
    # 20 positives per user give two test items each, so an array row in
    # place of a list would make the oracle's `if by_test[u]` raise
    spec = SyntheticCdrSpec(
        n_source_users=60, n_target_users=60, overlap_ratio=0.4, n_items_source=40,
        n_items_target=40, latent_dim=4, interactions_per_user=20, noise=0.5, seed=3,
    )
    cross = synth_cdr(spec)
    _, split_tgt = prepare_splits(cross, seed=3)
    model = CdrModel.create(cross, d=8, seed=3)
    stub = SimpleNamespace(seed=3, ks=(10, 20), oracle_users=20)
    assert workloads.IngestEval20k._oracle(stub, cross, split_tgt, model) == []


def _thread_recorder(fn, kind, span, seen):
    if kind == "generator":

        @functools.wraps(fn)
        def steps(*args, **kwargs):
            for item in fn(*args, **kwargs):
                seen.append((span, threading.current_thread()))
                yield item

        return steps

    @functools.wraps(fn)
    def call(*args, **kwargs):
        seen.append((span, threading.current_thread()))
        return fn(*args, **kwargs)

    return call


def test_spans_run_on_the_main_thread(tmp_path, pair_worker):
    """Neither the Recorder's span stack nor the Timeline's stamp list is
    thread-safe, so no span or clock boundary may run on `run_pair`'s
    worker. One cdr-vug and knn-vug run_experiment whose attention (Q x N),
    MAIN Adam, evaluate block (users x items) and KNN block (users x
    overlap) sizes are above the cell gate records the thread of every call
    of every span and boundary."""
    seen = []
    replacements = []
    for span, module, cls, attr, kind in tracing.SPANS:
        owner, original = tracing._lookup(module, cls, attr)
        if kind == "classmethod":
            patched = classmethod(_thread_recorder(original.__func__, kind, span, seen))
        else:
            patched = _thread_recorder(original, kind, span, seen)
        replacements.append((owner, attr, patched))
    for module, cls, attr in tracing.BOUNDARIES:
        owner, original = tracing._lookup(module, cls, attr)
        name = f"boundary {module}.{attr}"
        replacements.append((owner, attr, _thread_recorder(original, "call", name, seen)))
    # 300 overlap users against 512 limiter queries and 700 refreshed rows;
    # MAIN holds 2 x 1000 x 64 + 2 x 500 x 64 cells; 1000 users x 500 items
    # per evaluate block
    spec = SyntheticCdrSpec(n_source_users=1000, n_target_users=1000, overlap_ratio=0.3, seed=2)
    train = TrainConfig(epochs=1, eval_every=1, d=64)
    cfg = ExperimentConfig(
        synthetic=spec, modes=["cdr-vug", "knn-vug"], train=train, out_dir=str(tmp_path)
    )
    with tracing._patched(replacements):
        run_experiment(cfg)
    assert params._worker is not None, "no pair ran on the worker thread"
    called = {span for span, _ in seen}
    assert {"params.adam_step", "generator.forward_users", "generator.attention_backward"} <= called
    off_main = sorted({span for span, thread in seen if thread is not threading.main_thread()})
    assert off_main == []
