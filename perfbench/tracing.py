"""Timing wrappers patched onto vuglab's public functions.

Each wrapper replaces a function at the name the program looks it up by:
`vuglab.training` imports the generator, limiter and metrics functions by
name, `vuglab.cli` does the same for the data stages, and
`PositivePool.iter_batches` resolves `vuglab.model.sample_negatives_batch`
at call time. Patching only the defining module would leave those call
sites unwrapped and the span would silently read zero.

A `Recorder` with `tracing=False` installs only the wrappers that feed
end-to-end metrics (hooks), so untraced runs pay a pair of clock reads per
hooked call and nothing else. A `Timeline` stamps the clock around the
frequent calls of an untraced run (BOUNDARIES), which cuts it into
intervals that line up across runs of the same seed; `median_total` turns
those into the end-to-end times.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (span name, module, class or None, attribute, kind)
SPANS = (
    ("params.adam_step", "vuglab.params", "ParameterStore", "adam_step", "call"),
    ("params.snapshot", "vuglab.params", "ParameterStore", "snapshot", "call"),
    ("model.bpr_loss", "vuglab.model", "CdrModel", "bpr_loss", "call"),
    ("model.query_rows", "vuglab.model", "CdrModel", "query_rows", "call"),
    ("model.iter_batches", "vuglab.model", "PositivePool", "iter_batches", "generator"),
    ("model.sample_negatives_batch", "vuglab.model", None, "sample_negatives_batch", "call"),
    ("model.PositivePool.from_split", "vuglab.model", "PositivePool", "from_split", "classmethod"),
    ("generator.forward_users", "vuglab.training", None, "forward_users", "call"),
    ("generator.attention_backward", "vuglab.training", None, "attention_backward", "call"),
    ("generator.compute_item_profiles", "vuglab.training", None, "compute_item_profiles", "call"),
    ("generator.knn_generate_all", "vuglab.training", None, "knn_generate_all", "call"),
    ("limiter.super_loss", "vuglab.training", None, "super_loss", "call"),
    ("limiter.constrain_loss", "vuglab.training", None, "constrain_loss", "call"),
    ("training.fit", "vuglab.training", "Trainer", "fit", "call"),
    ("training.train_step", "vuglab.training", "Trainer", "train_step", "call"),
    ("training.refresh_virtuals", "vuglab.training", "Trainer", "refresh_virtuals", "call"),
    ("metrics.evaluate", "vuglab.metrics", None, "evaluate", "call"),
    ("metrics.evaluate", "vuglab.training", None, "evaluate", "call"),
    ("metrics.evaluate", "vuglab.cli", None, "evaluate", "call"),
    ("data.load_interactions", "vuglab.cli", None, "load_interactions", "call"),
    ("data.dedupe", "vuglab.cli", None, "dedupe", "call"),
    ("data.binarize", "vuglab.cli", None, "binarize", "call"),
    ("data.from_records", "vuglab.data", "DomainDataset", "from_records", "classmethod"),
    ("data.k_core_filter", "vuglab.cli", None, "k_core_filter", "call"),
    ("data.build_cross", "vuglab.cli", None, "build_cross", "call"),
    ("data.split_per_user", "vuglab.cli", None, "split_per_user", "call"),
    ("cli.synth_cdr", "vuglab.cli", None, "synth_cdr", "call"),
    ("cli.build_data", "vuglab.cli", None, "build_data", "call"),
    ("cli.run_experiment", "vuglab.cli", None, "run_experiment", "call"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in SPANS))


COUNT_NAMES = (
    "data.load_interactions.lines",
    "data.dedupe.rows_in",
    "data.dedupe.rows_out",
    "data.binarize.rows_in",
    "data.binarize.rows_out",
    "data.from_records.rows_in",
    "data.from_records.rows_out",
    "data.k_core_filter.rows_in",
    "data.k_core_filter.rows_out",
    "data.build_cross.overlap",
    "metrics.evaluate.users",
)


def _lookup(module: str, cls: str | None, attr: str):
    """(owner, raw attribute): a classmethod stays unbound."""
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    return owner, vars(owner)[attr]


@contextlib.contextmanager
def _patched(replacements):
    """Set each (owner, attribute, value); restore the originals on exit."""
    undo = []
    try:
        for owner, attr, value in replacements:
            undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


class Recorder:
    """Spans and per-call hooks of one workload iteration.

    A span's self time is its duration minus the time of the spans it
    directly encloses. Spans stay in memory until `dump`.
    """

    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.hooks: dict[str, list] = defaultdict(list)
        self.spans: list[list] = []  # [name, parent index, start, end]
        self._stack: list[list] = []  # [span index, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        if tracing:
            for span, hook in self._count_hooks().items():
                self.on(span, hook)

    def _count_hooks(self) -> dict:
        counts = self.counts

        def rows(span, size_in, size_out):
            def hook(seconds, args, kwargs, out):
                counts[f"{span}.rows_in"] += size_in(args)
                counts[f"{span}.rows_out"] += size_out(out)

            return hook

        def lines(seconds, args, kwargs, out):
            counts["data.load_interactions.lines"] += len(out)

        def overlap(seconds, args, kwargs, out):
            counts["data.build_cross.overlap"] += len(out.overlap)

        def users(seconds, args, kwargs, out):
            counts["metrics.evaluate.users"] += out.counts["n_users_evaluated"]

        def n_records(args):
            return len(args[0])

        def n_interactions(ds):
            return ds.n_interactions

        return {
            "data.load_interactions": lines,
            "data.dedupe": rows("data.dedupe", n_records, len),
            "data.binarize": rows("data.binarize", n_records, len),
            # a classmethod wrapper receives the class as args[0]
            "data.from_records": rows("data.from_records", lambda a: len(a[1]), n_interactions),
            "data.k_core_filter": rows(
                "data.k_core_filter", lambda a: a[0].n_interactions, n_interactions
            ),
            "data.build_cross": overlap,
            "metrics.evaluate": users,
        }

    def on(self, span: str, hook):
        """Call `hook(seconds, args, kwargs, result)` after each call of `span`."""
        self.hooks[span].append(hook)

    def _enter(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, parent, time.perf_counter(), None])

    def _exit(self) -> float:
        end = time.perf_counter()
        index, child = self._stack.pop()
        rec = self.spans[index]
        rec[3] = end
        seconds = end - rec[2]
        self.self_s[rec[0]] += seconds - child
        self.total_s[rec[0]] += seconds
        if self._stack:
            self._stack[-1][1] += seconds
        return seconds

    def _wrap_call(self, span: str, fn):
        hooks = self.hooks.get(span, ())
        if self.tracing:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                self.calls[span] += 1
                self._enter(span)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    seconds = self._exit()
                for hook in hooks:
                    hook(seconds, args, kwargs, out)
                return out

            return traced

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
            for hook in hooks:
                hook(seconds, args, kwargs, out)
            return out

        return timed

    def _wrap_generator(self, span: str, fn):
        # time each step of the generator, not its creation
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[span] += 1
            gen = fn(*args, **kwargs)
            while True:
                self._enter(span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit()
                yield item

        return traced

    def installed(self):
        """Patch the wrappers in; restore the original functions on exit."""
        wanted = SPAN_NAMES if self.tracing else tuple(self.hooks)
        replacements = []
        for span, module, cls, attr, kind in SPANS:
            if span not in wanted:
                continue
            owner, original = _lookup(module, cls, attr)
            if kind == "classmethod":
                patched = classmethod(self._wrap_call(span, original.__func__))
            elif kind == "generator":
                patched = self._wrap_generator(span, original)
            else:
                patched = self._wrap_call(span, original)
            replacements.append((owner, attr, patched))
        return _patched(replacements)

    def layer_metrics(self) -> dict[str, float]:
        out = {}
        for span in SPAN_NAMES:
            out[f"{span}.s"] = self.self_s.get(span, 0.0)
            out[f"{span}.calls"] = self.calls.get(span, 0)
        for name in COUNT_NAMES:
            out[name] = self.counts.get(name, 0)
        return out

    def dump(self, path: str):
        """Write the spans as JSON: name, parent index, start and end seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end"], "spans": self.spans}, fh)


# Calls whose entry and exit cut an untraced run into intervals:
# (module, class or None, attribute). Each is patched where it is looked up.
BOUNDARIES = (
    ("vuglab.training", "Trainer", "train_step"),
    ("vuglab.generator", None, "knn_generate"),
    ("vuglab.metrics", None, "rank_items"),
    ("vuglab.cli", None, "load_interactions"),
    ("vuglab.cli", None, "dedupe"),
    ("vuglab.cli", None, "binarize"),
    ("vuglab.cli", None, "k_core_filter"),
    ("vuglab.cli", None, "split_per_user"),
)
# evaluate, wherever it is looked up: a boundary that also records its region
EVALUATE_SITES = ("vuglab.metrics", "vuglab.training", "vuglab.cli")


class Timeline:
    """Clock stamps at the entry and exit of every boundary call of one run.

    Runs of one seed make the same calls in the same order, so the k-th
    interval between stamps does the same work in every run, and runs can
    be compared interval by interval (see `median_total`). `regions` holds
    (part, first stamp, last stamp) for each `metrics.evaluate` call.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.regions: list[tuple[str, int, int]] = []

    def stamp(self):
        self.stamps.append(time.perf_counter())

    def intervals(self, first: int = 0, last: int = -1) -> np.ndarray:
        stamps = self.stamps[first:] if last == -1 else self.stamps[first : last + 1]
        return np.diff(np.asarray(stamps))

    def _boundary(self, fn):
        stamps = self.stamps

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stamps.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                stamps.append(time.perf_counter())

        return wrapped

    def _region(self, fn):
        stamps, regions = self.stamps, self.regions

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            first = len(stamps)
            stamps.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                stamps.append(time.perf_counter())
                regions.append((kwargs.get("part", "test"), first, len(stamps) - 1))

        return wrapped

    def installed(self):
        """Patch the boundary wrappers in; restore the originals on exit."""
        replacements = []
        for module, cls, attr in BOUNDARIES:
            owner, original = _lookup(module, cls, attr)
            replacements.append((owner, attr, self._boundary(original)))
        for module in EVALUATE_SITES:
            owner, original = _lookup(module, None, "evaluate")
            replacements.append((owner, "evaluate", self._region(original)))
        return _patched(replacements)


def median_total(runs: list[np.ndarray], grain: float) -> float:
    """Sum over aligned chunks of the median over runs of each chunk's time.

    `runs` are interval durations of runs that did the same work. The
    intervals are grouped into chunks of about `grain` seconds (cut where
    the first run's running time crosses a multiple of `grain`), and each
    chunk counts with its median over the runs. A shared machine's speed
    swings, either way, for seconds at a time; a swing then moves only the
    chunks it covers in one run, where a median of whole runs moves with
    every run it touches.
    """
    first = runs[0]
    if any(len(r) != len(first) for r in runs):
        raise ValueError(f"runs cut into different interval counts: {sorted({len(r) for r in runs})}")
    chunk = ((np.cumsum(first) - first) // grain).astype(np.int64)
    per_run = np.stack([np.bincount(chunk, weights=r) for r in runs])
    return float(np.median(per_run, axis=0).sum())
