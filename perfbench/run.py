"""vuglab benchmark: one workload, one seed, one result.

Run from the repository root:

    python3 perfbench/run.py --workload compare-d64 --seed 0 --seconds 45 --trace 0

Workloads: compare-d64 and ingest-eval-20k (see perfbench/design.json for
why each was chosen and which layers it stresses). The run repeats the
workload, with its set-up alone in between, while the next repeat is
expected to end within --seconds and at least `min_runs` times (three),
checks every output, then prints a table of metrics with units and, as its
last line, one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 one
untraced and one traced run give the per-layer metrics and the tracing
overhead.

Times are taken so that a shared machine's spells of another speed move
them little: every repeat of a seed makes the same calls, so each repeat
is cut into the same chunks of about GRAIN_S seconds, and a chunk counts
with its median over the repeats (`tracing.median_total`).

vuglab is imported from src/ next to this directory, never from site
packages. Scratch files go to .perfbench_work/ at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

# pinned before numpy is imported; one thread keeps a shared 2-CPU box steady
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402
from tracing import Recorder, Timeline, median_total  # noqa: E402  (this directory)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

GRAIN_S = 0.05  # chunk length for median_total

END_TO_END = {
    "time_to_report_s": "s",
    "setup_s": "s",
    "eval_users_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_vuglab():
    """Import vuglab from this checkout's src/ or fail."""
    if not os.path.isfile(os.path.join(SRC, "vuglab", "__init__.py")):
        raise SystemExit(f"perfbench: no vuglab sources under {SRC}")
    sys.path.insert(0, SRC)
    import vuglab

    if not os.path.abspath(vuglab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported vuglab from {vuglab.__file__}, not {SRC}")
    return vuglab


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    """SHA-256 over src/ file paths and bytes: names the code under test
    where the checkout carries no git metadata.
    """
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine_info(seed: int, workload: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        cpus_usable = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus_usable = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": cpus_usable,
        "cpu_count": os.cpu_count(),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


class Probes:
    """End-to-end measurements taken at call boundaries inside one run:
    `Trainer.train_step` latency and rows, `Trainer.fit` wall clock, and
    the test `evaluate` calls with their arguments, so they can be repeated.
    """

    def __init__(self, rec):
        self.step_s: dict[str, list[float]] = {}  # by training mode
        self.train_rows = 0
        self.fit_s = 0.0
        self.final_calls: list[tuple] = []  # (args, kwargs, report) per test evaluate
        self.eval_users: list[int] = []
        self.eval_runs: list[list] = []  # interval durations of each call, repeats included
        rec.on("training.train_step", self._step)
        rec.on("training.fit", self._fit)
        rec.on("metrics.evaluate", self._evaluate)

    def _step(self, seconds, args, kwargs, out):
        self.step_s.setdefault(args[0].cfg.mode, []).append(seconds)
        self.train_rows += len(args[1]) + len(args[2])

    def _fit(self, seconds, args, kwargs, out):
        self.fit_s += seconds

    def _evaluate(self, seconds, args, kwargs, out):
        if kwargs.get("part", "test") == "test":
            self.final_calls.append((args, kwargs, out.json_str()))
            self.eval_users.append(out.counts["n_users_evaluated"])
            self.eval_runs.append([])

    def add_regions(self, timeline: Timeline):
        """The test evaluate calls' intervals, in call order."""
        regions = [(a, b) for part, a, b in timeline.regions if part == "test"]
        for runs, (first, last) in zip(self.eval_runs, regions):
            runs.append(timeline.intervals(first, last))

    def repeat_evals(self, times: int) -> list[str]:
        """Call each final evaluate again `times` times after the run, for
        more samples than one short call gives; every repeat must
        reproduce the report.
        """
        from vuglab import metrics

        problems = []
        for (args, kwargs, report), runs in zip(self.final_calls, self.eval_runs):
            for _ in range(times):
                timeline = Timeline()
                with timeline.installed():
                    again = metrics.evaluate(*args, **kwargs)
                runs.append(timeline.intervals())
                if again.json_str() != report:
                    problems.append("a repeated evaluate gave another report")
        self.final_calls.clear()
        return problems


def run_once(workload, tracing: bool, eval_repeats: int) -> tuple:
    """One run of the workload: (iteration, probes, recorder, problems).
    A raised exception, divergence included, counts as a failed run.
    Untraced runs are cut into intervals on a Timeline.
    """
    rec = Recorder(tracing)
    probes = Probes(rec)
    timeline = Timeline()
    try:
        with rec.installed(), contextlib.nullcontext() if tracing else timeline.installed():
            it = workload.iterate(timeline)
        probes.add_regions(timeline)
        problems = workload.check(it)
        problems += probes.repeat_evals(eval_repeats)
    except Exception:  # a failed run is a result, not the end of the benchmark
        traceback.print_exc()
        return None, probes, rec, ["raised " + traceback.format_exc().splitlines()[-1]]
    return it, probes, rec, problems


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values), q))


def summarize(workload, good, setup_s) -> tuple[dict, list[tuple]]:
    """End-to-end metrics over the good runs, plus (name, value, unit,
    note) rows that are printed but not gated.
    """
    its = [it for it, _ in good]
    probes = [pr for _, pr in good]
    eval_s = sum(
        median_total([r for pr in probes for r in pr.eval_runs[k]], GRAIN_S)
        for k in range(len(probes[0].eval_runs))
    )
    metrics = {
        "time_to_report_s": median_total([it.timeline.intervals() for it in its], GRAIN_S),
        "setup_s": statistics.median(setup_s),
        "eval_users_per_s": sum(probes[0].eval_users) / eval_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    ndcg = next(r for r in its[0].reports[0]["rows"] if r["metric"] == "ndcg" and r["K"] == 10)
    extra = [
        (
            "time_to_report_s.median_run",
            statistics.median(it.report_s for it in its),
            "s",
            f"median wall clock of {len(its)} whole runs",
        ),
        ("ndcg10", ndcg["all"], "ratio", "test NDCG@10, deterministic per seed"),
        ("ugf_ndcg10", ndcg["ugf"], "ratio", "overlap/non-overlap gap of the same"),
    ]
    by_mode = {}
    for _, pr in good:
        for mode, steps in pr.step_s.items():
            by_mode.setdefault(mode, []).extend(steps)
    if by_mode:
        extra.append(
            (
                "train_samples_per_s",
                statistics.median(pr.train_rows / pr.fit_s for _, pr in good),
                "1/s",
                f"median of {len(good)} runs",
            )
        )
    q = workload.tail_percentile
    for mode, steps in by_mode.items():
        # one latency distribution per mode: pooled modes would be bimodal
        label = "" if len(by_mode) == 1 else f"[{mode}]"
        tail = percentile(steps, q)
        extra += [
            (f"step_ms.p50{label}", 1e3 * percentile(steps, 50), "ms", f"{len(steps)} steps"),
            (f"step_ms.tail{label}", 1e3 * tail, "ms", f"p{q}, {sum(s > tail for s in steps)} steps beyond"),
        ]
    ingest = [workload.lines / it.ingest_s for it in its if it.ingest_s is not None]
    if ingest:
        extra.append(("ingest_lines_per_s", statistics.median(ingest), "1/s", f"median of {len(ingest)} runs"))
    return metrics, extra


def expected_spans(workload_name: str) -> list[str]:
    with open(os.path.join(HERE, "design.json"), encoding="utf-8") as fh:
        design = json.load(fh)
    return [span for span, info in design["per_layer"].items() if workload_name in info["calls_on"]]


def layer_metrics(rec, it) -> dict:
    out = rec.layer_metrics()
    fit = rec.total_s.get("training.fit", 0.0)
    out["share.adam_bpr_of_fit"] = (
        (rec.total_s.get("params.adam_step", 0.0) + rec.total_s.get("model.bpr_loss", 0.0)) / fit
        if fit
        else 0.0
    )
    data_s = sum(s for name, s in rec.self_s.items() if name.startswith("data."))
    out["share.data_eval_of_report"] = (data_s + rec.total_s.get("metrics.evaluate", 0.0)) / it.report_s
    out["trace.spans"] = len(rec.spans)
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.startswith("share."):
        return "ratio"
    return "count"


def measure(workload, seconds: float, trace: bool) -> tuple[list[tuple], list[float]]:
    """Untraced runs, each followed by `workload.setups_per_run` set-ups
    alone, while the next run is expected to end within `seconds` and at
    least `workload.min_runs` times; or one untraced and one traced run.
    Returns (iteration, probes, recorder, problems) per run and the set-up
    times.
    """
    runs, setup_s = [], []
    deadline = time.perf_counter() + seconds

    def add(tracing: bool, eval_repeats: int):
        if runs and runs[-1][0] is not None:
            runs[-1][0].state = ()  # free the last run's data before the next
        runs.append(run_once(workload, tracing, eval_repeats))

    if trace:
        add(False, 0)
        add(True, 0)
    else:
        while True:
            start = time.perf_counter()
            add(False, workload.eval_repeats)
            if runs[-1][0] is not None:
                setup_s += [workload.setup(runs[-1][0]) for _ in range(workload.setups_per_run)]
            took = time.perf_counter() - start
            if len(runs) >= workload.min_runs and time.perf_counter() + took > deadline:
                break
    digests = [it.digest for it, *_ in runs if it is not None]
    cuts = [len(it.timeline.stamps) for it, *_ in runs if it is not None]
    for n, (it, _, _, problems) in enumerate(runs, start=1):
        if it is not None and it.digest != digests[0]:
            problems.append("report digest differs from the first run of this seed")
        if it is not None and not trace and len(it.timeline.stamps) != cuts[0]:
            problems.append("the run made another sequence of calls than the first run of this seed")
        for p in problems:
            print(f"# FAILED run {n}: {p}", file=sys.stderr)
    return runs, setup_s


def main(argv=None) -> int:
    args = parse_args(argv)
    import_vuglab()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; valid: {sorted(WORKLOADS)}")
    os.makedirs(WORK, exist_ok=True)
    info = machine_info(args.seed, args.workload)
    for key, value in info.items():
        print(f"# {key}: {value}")

    workload = WORKLOADS[args.workload](args.seed, WORK)
    print(f"# inputs: {json.dumps(workload.inputs)}")
    runs, setup_s = measure(workload, args.seconds, bool(args.trace))
    good = [(it, probes) for it, probes, _, problems in runs if it is not None and not problems]
    attempted = len(runs)
    failed = attempted - len(good)
    correct = failed == 0
    metrics, units, extra = {}, {}, []
    if correct and args.trace:
        (plain, *_), (it, _, rec, _) = runs
        metrics = layer_metrics(rec, it)
        metrics["trace.overhead_s"] = it.report_s - plain.report_s
        units = {name: unit_of(name) for name in metrics}
        silent = [s for s in expected_spans(workload.name) if metrics[f"{s}.calls"] == 0]
        for span in silent:
            print(f"# FAILED: span {span} recorded no calls on {workload.name}", file=sys.stderr)
        correct = not silent
        rec.dump(os.path.join(WORK, f"trace-{workload.name}-{args.seed}.json"))
    elif correct:
        metrics, extra = summarize(workload, good, setup_s)
        units = dict(END_TO_END)

    for name, value in metrics.items():
        print(f"{name:40s} {value!r:>24} {units[name]}")
    for name, value, unit, note in extra:
        print(f"{name:40s} {value!r:>24} {unit}  ({note})")
    print(f"{'failed_frac':40s} {failed / attempted!r:>24} ratio  ({failed} of {attempted} runs)")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    path = os.path.join(WORK, f"result-{workload.name}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "info": info,
                "inputs": workload.inputs,
                "result": result,
                "workload_only": extra,
                "report_s": [it.report_s for it, *_ in runs if it is not None],
                "setup_s": setup_s,
            },
            fh,
            indent=2,
        )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
