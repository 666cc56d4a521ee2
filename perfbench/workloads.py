"""The benchmark's workloads. Each drives vuglab only through public
functions of `vuglab.cli`, `vuglab.training`, `vuglab.data`, `vuglab.model`
and `vuglab.metrics`, and makes every input from its seed.

A workload has `inputs` (what its seed generated), `iterate(timeline)` (one
run from the first call into vuglab to the report in hand, stamped on the
timeline at both ends), `check()` (output checks; a non-empty list fails
the run) and `setup()` (the program-side preparation alone, repeated
between the runs for `setup_s`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import ingest_data
from tracing import Timeline
from vuglab import cli, data, metrics, model, training


@dataclass
class Iteration:
    """What one run of a workload produced."""

    timeline: Timeline  # stamps from the first call into vuglab to the report in hand
    digest: str  # over the report bytes; equal for equal seeds
    reports: list[dict]  # EvalReport dicts, the workload's main report first
    losses: list[float] | None  # None when the workload does not train
    ingest_s: float | None = None
    state: tuple = field(default=(), repr=False)  # kept for check() and setup()

    @property
    def report_s(self) -> float:
        """Wall clock of the whole run."""
        return self.timeline.stamps[-1] - self.timeline.stamps[0]


def _digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def _log_losses(steps) -> list[float]:
    """Every loss value in TrainLog step rows."""
    return [
        v for row in steps for k, v in row.items() if k not in ("kind", "step") and v is not None
    ]


def check_outputs(it: Iteration, expected: dict) -> list[str]:
    """Every loss and report field is finite, and the user counts match
    what the generated data implies.
    """
    problems = []
    if it.losses is not None:
        bad = [v for v in it.losses if not math.isfinite(v)]
        if bad or not it.losses:
            problems.append(f"{len(bad)} non-finite of {len(it.losses)} logged losses")
    for report in it.reports:
        for row in report["rows"]:
            for name in ("all", "overlap", "nonoverlap", "ugf"):
                v = row[name]
                if v is None or not math.isfinite(v):
                    problems.append(f"{row['metric']}@{row['K']} {name} = {v}")
        for name in ("n_users_evaluated", "n_overlap", "n_nonoverlap"):
            if report["counts"][name] != expected[name]:
                problems.append(
                    f"report {name} = {report['counts'][name]}, data implies {expected[name]}"
                )
    return problems


def synthetic_expected(spec: cli.SyntheticCdrSpec, test_ratio: float) -> dict:
    """User counts of a test evaluation on `synth_cdr` data: every target
    user has the same number of positives, so all or none are evaluated.
    """
    evaluated = spec.n_target_users if int(spec.interactions_per_user * test_ratio) >= 1 else 0
    n_overlap = spec.n_overlap if evaluated else 0
    return {
        "n_users_evaluated": evaluated,
        "n_overlap": n_overlap,
        "n_nonoverlap": evaluated - n_overlap,
    }


class CompareD64:
    """`cli.run_experiment` on the default config (what `vuglab train`
    runs) for modes cdr-vug and knn-vug, 5 epochs: few large steps, so the
    generator's attention, the limiter, `refresh_virtuals` and the per-user
    KNN loop carry about half the time; validation and report writing run
    too.
    """

    name = "compare-d64"
    min_runs = 3
    setups_per_run = 2
    eval_repeats = 3
    tail_percentile = 90
    modes = ("cdr-vug", "knn-vug")

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.out_dir = os.path.join(work_dir, f"compare-d64-{seed}")
        self.config = cli.ExperimentConfig(
            modes=list(self.modes),
            train=training.TrainConfig(epochs=5),
            seeds=[seed],
            out_dir=self.out_dir,
        )
        spec = dataclasses.replace(self.config.synthetic, seed=seed)
        self.expected = synthetic_expected(spec, 0.1)  # prepare_splits' default
        self.inputs = {"synthetic": dataclasses.asdict(spec), **self.expected}

    def setup(self, last: Iteration) -> float:
        """One (mode, seed) preparation as `run_single` does it."""
        start = time.perf_counter()
        cross = cli.build_data(self.config, self.seed)
        split_src, split_tgt = cli.prepare_splits(cross, self.seed)
        tcfg = dataclasses.replace(
            self.config.train, mode=cli.MODE_MAP[self.modes[0]], seed=self.seed
        )
        training.Trainer(cross, split_src, split_tgt, tcfg)
        return time.perf_counter() - start

    def iterate(self, timeline: Timeline) -> Iteration:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        timeline.stamp()
        cli.run_experiment(self.config)
        timeline.stamp()
        blobs, reports, losses = [], [], []
        names = [f"report_{m}_{self.seed}.json" for m in self.modes]
        for name in names + ["summary.json", "comparison.json"]:
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                blobs.append(fh.read())
        for blob in blobs[: len(names)]:
            reports.append(json.loads(blob)["report"])
        for mode in self.modes:
            path = os.path.join(self.out_dir, f"trainlog_{mode}_{self.seed}.jsonl")
            with open(path, encoding="utf-8") as fh:
                rows = [json.loads(line) for line in fh]
            losses += _log_losses(r for r in rows if r["kind"] == "step")
        shutil.rmtree(self.out_dir)
        return Iteration(timeline, _digest(*blobs), reports, losses)

    def check(self, it: Iteration) -> list[str]:
        return check_outputs(it, self.expected)


class IngestEval20k:
    """Ingest of two generated 400k-line files, splits and positive pools,
    then one full-ranking test evaluate of an untrained d=64 model. The
    training path (params, generator, BPR) is bypassed.
    """

    name = "ingest-eval-20k"
    min_runs = 3
    setups_per_run = 2
    eval_repeats = 0  # one evaluate takes seconds here
    tail_percentile = None
    ks = (10, 20)
    d = 64
    oracle_users = 200

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        logs = ingest_data.make_logs(seed)
        reference = [ingest_data.reference_domain(log) for log in logs]
        self.expected = ingest_data.expected_counts(*reference)
        self.inputs = {
            "lines": [len(log.users) for log in logs],
            "after_dedupe": [r.n_deduped for r in reference],
            "after_binarize": [r.n_positive for r in reference],
            "after_k_core": [len(r.users) for r in reference],
            "k_core_rounds": [r.kcore_rounds for r in reference],
            **self.expected,
        }
        name = f"ingest-v{ingest_data.FORMAT}-{seed}"
        for other in os.listdir(work_dir):  # keep one seed's files (about 20 MB)
            if other.startswith("ingest-") and other != name:
                shutil.rmtree(os.path.join(work_dir, other))
        source, target = ingest_data.write_files(logs, os.path.join(work_dir, name))
        self.lines = sum(len(log.users) for log in logs)
        self.config = cli.ExperimentConfig(
            synthetic=None, source_path=source, target_path=target, seeds=[seed]
        )

    def _prepare(self, cross):
        split_src, split_tgt = cli.prepare_splits(cross, self.seed)
        model.PositivePool.from_split(split_src)
        model.PositivePool.from_split(split_tgt)
        cdr = model.CdrModel.create(cross, self.d, seed=self.seed)
        return split_tgt, cdr

    def setup(self, last: Iteration) -> float:
        """Splits, pools and model on the dataset the last run ingested."""
        start = time.perf_counter()
        self._prepare(last.state[0])
        return time.perf_counter() - start

    def iterate(self, timeline: Timeline) -> Iteration:
        timeline.stamp()
        cross = cli.build_data(self.config, self.seed)
        timeline.stamp()
        ingest_s = timeline.stamps[-1] - timeline.stamps[0]
        split_tgt, cdr = self._prepare(cross)
        report = metrics.evaluate(cdr, cross, split_tgt, ks=self.ks)
        timeline.stamp()
        return Iteration(
            timeline,
            _digest(report.json_str().encode()),
            [report.to_dict()],
            None,
            ingest_s=ingest_s,
            state=(cross, split_tgt, cdr),
        )

    def check(self, it: Iteration) -> list[str]:
        cross, split_tgt, cdr = it.state
        problems = check_outputs(it, self.expected)
        if min(self.inputs["k_core_rounds"]) < 2:
            problems.append(f"generated input needs only {self.inputs['k_core_rounds']} k-core rounds")
        sizes = {
            "source_users": cross.source.n_users,
            "source_items": cross.source.n_items,
            "source_interactions": cross.source.n_interactions,
            "target_users": cross.target.n_users,
            "target_items": cross.target.n_items,
            "target_interactions": cross.target.n_interactions,
            "overlap": len(cross.overlap),
        }
        for name, got in sizes.items():
            if got != self.expected[name]:
                problems.append(f"{name} = {got}, reference pipeline gives {self.expected[name]}")
        return problems + self._oracle(cross, split_tgt, cdr)

    def _oracle(self, cross, split_tgt, cdr) -> list[str]:
        """`metrics.evaluate` on a fixed user sample against brute force."""
        by_train = split_tgt.by_user("train")
        by_test = split_tgt.by_user("test")
        candidates = [u for u in range(split_tgt.n_users) if by_test[u]]
        rng = np.random.default_rng([self.seed, 5])
        sample = sorted(rng.choice(candidates, size=self.oracle_users, replace=False).tolist())
        chosen = set(sample)
        sub = data.SplitDataset(
            train=split_tgt.train,
            valid=[],
            test=[(u, i) for u, i in split_tgt.test if u in chosen],
            ratios=split_tgt.ratios,
            n_users=split_tgt.n_users,
            n_items=split_tgt.n_items,
        )
        report = metrics.evaluate(cdr, cross, sub, ks=self.ks)

        tgt_user = cdr.store.get(model.TGT_USER)
        src_user = cdr.store.get(model.SRC_USER)
        tgt_item = cdr.store.get(model.TGT_ITEM)
        names = cross.target.user_ids()
        lam = cdr.effective_lam
        values = {key: [] for key in ((m, k) for m in ("hr", "ndcg") for k in self.ks)}
        is_ov = []
        for u in sample:
            s = cross.source.users.get(names[u])
            ehat = src_user[s] if s is not None else np.zeros(cdr.d)
            per = ingest_data.oracle_metrics(
                tgt_item @ (tgt_user[u] + lam * ehat), by_train[u], by_test[u], self.ks
            )
            for key, v in per.items():
                values[key].append(v)
            is_ov.append(s is not None)
        is_ov = np.asarray(is_ov)
        problems = []
        for (m, k), v in values.items():
            v = np.asarray(v)
            want = {
                "all": float(np.mean(v)),
                "overlap": float(np.mean(v[is_ov])),
                "nonoverlap": float(np.mean(v[~is_ov])),
            }
            for group, w in want.items():
                got = report.value(m, k, group)
                if got != w:
                    problems.append(f"oracle {m}@{k} {group}: evaluate {got!r}, brute force {w!r}")
        return problems


WORKLOADS = {w.name: w for w in (CompareD64, IngestEval20k)}
