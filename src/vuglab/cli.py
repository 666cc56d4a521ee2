"""Experiment runner: synthetic data generation, pipeline orchestration
(ingest -> split -> train -> evaluate), gamma grid search, the channel-lab
report, and report emission.

Exit codes: 0 success, 2 config error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import platform
import sys
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from . import channels
from .data import (
    CrossDomainDataset,
    DomainDataset,
    SplitDataset,
    binarize,
    build_cross,
    dataset_stats,
    dedupe,
    k_core_filter,
    load_interactions,
    split_per_user,
    subsample_users,
)
from .metrics import evaluate, top_columns
from .params import ConfigError, fork_pair, is_int_list, pair_threads
from .training import CDR, CDR_VUG, KNN_VUG, TARGET_ONLY, Trainer, TrainConfig

log = logging.getLogger(__name__)

MODE_MAP = {
    "target-only": TARGET_ONLY,
    "cdr": CDR,
    "cdr-vug": CDR_VUG,
    "knn-vug": KNN_VUG,
}


@dataclass(frozen=True)
class SyntheticCdrSpec:
    """Shared-latent synthetic CDR data with controllable overlap.

    Every person has one latent preference vector; a domain-specific linear
    transform of it scores that domain's items, and the top-L items under
    noisy affinity become the person's positives.
    """

    n_source_users: int = 2000
    n_target_users: int = 2000
    overlap_ratio: float = 0.3
    n_items_source: int = 500
    n_items_target: int = 500
    latent_dim: int = 8
    interactions_per_user: int = 20
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("n_source_users", "n_target_users", "n_items_source",
                     "n_items_target", "latent_dim", "interactions_per_user"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not (0.0 <= self.overlap_ratio <= 1.0):
            raise ConfigError("overlap_ratio must lie in [0, 1]")
        if not 0 <= self.noise < np.inf:
            raise ConfigError(f"noise must be finite and >= 0, got {self.noise}")
        if self.n_overlap > min(self.n_source_users, self.n_target_users):
            raise ConfigError("overlap exceeds a domain's user count")
        if self.interactions_per_user > min(self.n_items_source, self.n_items_target):
            raise ConfigError("interactions_per_user exceeds the item count")

    @property
    def n_overlap(self) -> int:
        return int(round(self.overlap_ratio * self.n_target_users))


def synth_cdr(spec: SyntheticCdrSpec) -> CrossDomainDataset:
    """Deterministic synthetic cross-domain dataset: overlapping persons
    act in both domains from one latent vector.
    """
    rng = np.random.default_rng(spec.seed)
    n_ov = spec.n_overlap
    n_src_only = spec.n_source_users - n_ov
    n_tgt_only = spec.n_target_users - n_ov
    n_persons = n_ov + n_src_only + n_tgt_only
    latents = rng.standard_normal((n_persons, spec.latent_dim))
    item_latents = rng.standard_normal(
        (max(spec.n_items_source, spec.n_items_target), spec.latent_dim)
    )
    m_source = rng.standard_normal((spec.latent_dim, spec.latent_dim)) / np.sqrt(spec.latent_dim)
    m_target = rng.standard_normal((spec.latent_dim, spec.latent_dim)) / np.sqrt(spec.latent_dim)

    src_persons = np.concatenate([np.arange(n_ov), n_ov + np.arange(n_src_only)])
    tgt_persons = np.concatenate([np.arange(n_ov), n_ov + n_src_only + np.arange(n_tgt_only)])

    def domain(persons: np.ndarray, transform: np.ndarray, n_items: int) -> DomainDataset:
        affinity = (latents[persons] @ transform.T) @ item_latents[:n_items].T
        if spec.noise:
            affinity = affinity + spec.noise * rng.standard_normal(affinity.shape)
        top = top_columns(np.negative(affinity, out=affinity), spec.interactions_per_user)
        users = {f"p{p}": idx for idx, p in enumerate(persons)}
        items = {f"i{j}": j for j in range(n_items)}
        rows = np.repeat(np.arange(len(persons)), spec.interactions_per_user)
        return DomainDataset(
            users=users, items=items, interactions=np.column_stack((rows, top.ravel()))
        )

    source = domain(src_persons, m_source, spec.n_items_source)
    target = domain(tgt_persons, m_target, spec.n_items_target)
    return build_cross(source, target)


def prepare_splits(
    cross: CrossDomainDataset,
    seed: int,
    target_ratios=(0.8, 0.1, 0.1),
    source_ratios=(0.8, 0.2, 0.0),
) -> tuple[SplitDataset, SplitDataset]:
    split_src = split_per_user(cross.source, source_ratios, seed=seed + 11)
    split_tgt = split_per_user(cross.target, target_ratios, seed=seed + 13)
    return split_src, split_tgt


@dataclass(frozen=True)
class ExperimentConfig:
    synthetic: SyntheticCdrSpec | None = field(default_factory=SyntheticCdrSpec)
    source_path: str | None = None
    target_path: str | None = None
    modes: tuple[str, ...] = ("target-only", "cdr", "cdr-vug")
    train: TrainConfig = field(default_factory=TrainConfig)
    ks: tuple = (10, 20)
    out_dir: str = "runs"
    seeds: tuple[int, ...] = (0,)
    max_users: int | None = None
    rating_threshold: float = 3.0
    k_core: int = 5

    def __post_init__(self):
        if not is_int_list(self.seeds) or min(self.seeds) < 0:
            raise ConfigError(f"seeds must be a non-empty list of ints >= 0, got {self.seeds!r}")
        if not is_int_list(self.ks) or min(self.ks) < 1:
            raise ConfigError(f"ks must be a non-empty list of ints >= 1, got {self.ks!r}")
        if not self.modes:
            raise ConfigError(f"modes must be a non-empty list; valid: {sorted(MODE_MAP)}")
        for m in self.modes:
            if m not in MODE_MAP:
                raise ConfigError(f"unknown mode {m!r}; valid: {sorted(MODE_MAP)}")
        # a repeated run would count as one more seed in the summary
        for name, values in (("modes", self.modes), ("seeds", self.seeds)):
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must not repeat, got {values!r}")
        if self.k_core < 1:
            raise ConfigError(f"k_core must be >= 1, got {self.k_core}")
        if self.max_users is not None and self.max_users < 1:
            raise ConfigError(f"max_users must be >= 1, got {self.max_users}")
        if (self.source_path is None) != (self.target_path is None):
            raise ConfigError("source_path and target_path must be given together")
        if self.source_path is None and self.synthetic is None:
            raise ConfigError("either dataset paths or a synthetic spec is required")
        vug = sorted(m for m in self.modes if MODE_MAP[m] in (CDR_VUG, KNN_VUG))
        if self.source_path is None and self.synthetic.n_overlap == 0 and vug:
            raise ConfigError(f"modes {vug} need overlapping users; the synthetic spec has none")
        # tuples, so that no list of a frozen config can change after these checks
        for name in ("modes", "seeds", "ks"):
            object.__setattr__(self, name, tuple(getattr(self, name)))


def _parse(ftype, value, where: str):
    """`value` checked against the field type `ftype`: dataclasses are built
    from dicts, scalars must match their type (a bool is not an int, an int
    is accepted as a float), typed lists are checked item by item, and an
    array is a (nested) list of numbers.
    """
    args = typing.get_args(ftype)
    if type(None) in args:
        if value is None:
            return None
        (ftype,) = [a for a in args if a is not type(None)]
        args = typing.get_args(ftype)
    origin = typing.get_origin(ftype) or ftype
    if dataclasses.is_dataclass(ftype) and isinstance(value, dict):
        return _from_dict(ftype, value)
    if origin in (list, tuple) and isinstance(value, (list, tuple)):
        return origin(_parse(args[0], v, where) for v in value) if args else origin(value)
    if ftype is np.ndarray and isinstance(value, list):
        return [_parse(ftype if isinstance(v, list) else float, v, where) for v in value]
    if ftype is float and type(value) is int:
        return float(value)
    if ftype in (bool, int, float, str) and type(value) is ftype:
        return value
    raise ConfigError(f"bad {where}: expected {origin.__name__}, got {value!r}")


def _from_dict(cls, data: dict):
    """Build a (possibly nested) dataclass from plain dicts, parsing each
    value by its field type and rejecting unknown keys so config typos fail
    loudly. A ConfigError of the class's own checks passes unchanged.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {data!r}")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    kwargs = {
        name: _parse(hints[name], value, f"{cls.__name__}: {name}") for name, value in data.items()
    }
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {cls.__name__}: {exc}") from exc


def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    raw = _read_json(path, "config")
    # each run sets these from `modes` and `seeds`; a file value would be ignored
    for part, key in (("train", "mode"), ("train", "seed"), ("synthetic", "seed")):
        if isinstance(raw, dict) and isinstance(raw.get(part), dict) and key in raw[part]:
            raise ConfigError(
                f"{part}.{key} is set per run from `{key}s` or --{key}; remove it from {path}"
            )
    return _from_dict(ExperimentConfig, raw)


def _atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, obj):
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, rows: list[dict]):
    """`rows` under a header of the first row's keys."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def load_domain(path: str, threshold: float, k: int) -> DomainDataset:
    """One domain from its interaction file: parse, dedupe, binarize, then
    k-core filter. It reads only `path` and returns a picklable dataset, so
    `build_data` can run it in a forked child."""
    rows = binarize(dedupe(load_interactions(path)), threshold)
    return k_core_filter(DomainDataset.from_records(rows), k)


def build_data(cfg: ExperimentConfig, seed: int) -> CrossDomainDataset:
    """The configured dataset, then its first `max_users` users per domain.
    A domain that the filters leave without interactions is a RuntimeError.

    From files, the two domains load side by side (`params.fork_pair`):
    the source in a forked child, the target in this process. A source
    error is reported before a target error, as when they load in turn.
    """
    if cfg.source_path is None:
        cross = synth_cdr(dataclasses.replace(cfg.synthetic, seed=seed))
    else:
        # a missing file counts 0 bytes and is reported by its load, in turn
        paths = (cfg.source_path, cfg.target_path)
        source, target = fork_pair(
            lambda: load_domain(cfg.source_path, cfg.rating_threshold, cfg.k_core),
            lambda: load_domain(cfg.target_path, cfg.rating_threshold, cfg.k_core),
            nbytes=sum(os.path.getsize(p) for p in paths if os.path.isfile(p)),
        )
        cross = build_cross(source, target)
    if cfg.max_users is not None:
        cross = build_cross(
            subsample_users(cross.source, cfg.max_users),
            subsample_users(cross.target, cfg.max_users),
        )
    for name, ds in (("source", cross.source), ("target", cross.target)):
        if len(ds.interactions) == 0:
            raise RuntimeError(
                f"the {name} domain has no interactions left after rating_threshold="
                f"{cfg.rating_threshold}, k_core={cfg.k_core}, max_users={cfg.max_users}"
            )
    return cross


SeedData = tuple[CrossDomainDataset, SplitDataset, SplitDataset]


def seed_data(cfg: ExperimentConfig, seed: int) -> SeedData:
    """The dataset of `seed` with its source and target splits. Training
    only reads them, so one build serves every run of the seed."""
    cross = build_data(cfg, seed)
    return (cross, *prepare_splits(cross, seed))


def _trainer(
    cfg: ExperimentConfig, seed: int, mode: str, data: SeedData | None = None, **train
) -> Trainer:
    """A Trainer on `data`, the `seed_data` of `seed` (built here when
    None), with `cfg.train` given this mode, this seed and the `train`
    field values.
    """
    cross, split_src, split_tgt = data or seed_data(cfg, seed)
    tcfg = dataclasses.replace(cfg.train, mode=mode, seed=seed, **train)
    return Trainer(cross, split_src, split_tgt, tcfg)


def _test_metrics(trainer: Trainer, cfg: ExperimentConfig) -> dict:
    """Test metrics of the trainer's model with its current virtual rows."""
    return evaluate(
        trainer.model, trainer.cross, trainer.split_tgt, ks=cfg.ks,
        virtual_sources=trainer.virtual, part="test",
    ).to_dict()


def _test_report(trainer: Trainer, cfg: ExperimentConfig, name: str) -> dict:
    """Test metrics of the trainer's model, written to `name` in out_dir."""
    report = _test_metrics(trainer, cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_json(os.path.join(cfg.out_dir, name), report)
    return report


def run_single(
    cfg: ExperimentConfig,
    mode_str: str,
    seed: int,
    out_dir: str,
    dump_attention: bool = False,
    data: SeedData | None = None,
) -> dict:
    """Train one (mode, seed) pair on `data` (see `_trainer`), evaluate on
    test, write its artifacts."""
    trainer = _trainer(cfg, seed, MODE_MAP[mode_str], data)
    cross = trainer.cross
    model, gen, tlog = trainer.fit()
    wrapper = {
        "mode": mode_str,
        "seed": seed,
        "lambda_effective": model.effective_lam,
        "report": _test_metrics(trainer, cfg),
    }
    if mode_str == "target-only":
        wrapper["provenance"] = "target-only: cross-domain flow disabled (lambda=0)"
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, f"report_{mode_str}_{seed}.json"), wrapper)
    tlog.save_jsonl(os.path.join(out_dir, f"trainlog_{mode_str}_{seed}.jsonl"))
    if dump_attention and gen is not None and trainer.profiles is not None:
        non = cross.target_nonoverlap[:50]
        _, cache = trainer.generate(non)
        ov_t = cross.overlap_tgt
        tops = top_columns(-cache.alpha, 10)
        dump = [
            {"user": int(u), "top_alpha": [[int(ov_t[j]), float(alpha[j])] for j in top]}
            for u, alpha, top in zip(non, cache.alpha, tops)
        ]
        _write_json(os.path.join(out_dir, f"attention_{mode_str}_{seed}.json"), dump)
    return wrapper


def _metric_fields(report_dict: dict) -> dict:
    """Flatten an EvalReport dict into {'hr@10': {'all':..,'ugf':..}, ...}."""
    out = {}
    for row in report_dict["rows"]:
        out[f"{row['metric']}@{row['K']}"] = {
            k: row[k] for k in ("all", "overlap", "nonoverlap", "ugf")
        }
    return out


def summarize(results: dict[str, list[dict]]) -> dict:
    """Cross-seed mean/std per mode, metric, and field."""
    summary = {}
    for mode, runs in results.items():
        flat = [_metric_fields(r["report"]) for r in runs]
        mode_sum = {}
        for key in flat[0]:
            mode_sum[key] = {}
            for fld in ("all", "overlap", "nonoverlap", "ugf"):
                vals = [f[key][fld] for f in flat]
                if any(v is None for v in vals):
                    mode_sum[key][fld] = None
                else:
                    mode_sum[key][fld] = {
                        "mean": float(np.mean(vals)),
                        "std": float(np.std(vals)),
                        "per_seed": [float(v) for v in vals],
                    }
        summary[mode] = mode_sum
    return summary


def comparison_table(summary: dict, base: str = "cdr", treated: str = "cdr-vug") -> dict:
    """Accuracy and fairness deltas of VUG over the plain CDR baseline,
    with both absolute and relative aggregate improvement fields.
    """
    if base not in summary or treated not in summary:
        return {"note": f"needs both {base!r} and {treated!r} runs"}
    rows = []
    for key in summary[base]:
        b_all = summary[base][key]["all"]["mean"]
        t_all = summary[treated][key]["all"]["mean"]
        b_ugf = summary[base][key]["ugf"]
        t_ugf = summary[treated][key]["ugf"]
        row = {
            "metric": key,
            "accuracy_without_vug": b_all,
            "accuracy_with_vug": t_all,
            "accuracy_abs_delta": t_all - b_all,
            "accuracy_rel_delta_pct": (100.0 * (t_all - b_all) / b_all) if b_all else None,
        }
        if b_ugf is not None and t_ugf is not None:
            bu, tu = b_ugf["mean"], t_ugf["mean"]
            row["ugf_without_vug"] = bu
            row["ugf_with_vug"] = tu
            row["ugf_abs_reduction"] = bu - tu
            row["ugf_rel_reduction_pct"] = (100.0 * (bu - tu) / bu) if bu else None
        rows.append(row)

    def mean_over_rows(name):
        values = [row[name] for row in rows if row.get(name) is not None]
        return float(np.mean(values)) if values else None

    return {
        "rows": rows,
        "accuracy_improvement_pct": mean_over_rows("accuracy_rel_delta_pct"),
        "accuracy_improvement_abs": mean_over_rows("accuracy_abs_delta"),
        "fairness_improvement_pct": mean_over_rows("ugf_rel_reduction_pct"),
        "fairness_improvement_abs": mean_over_rows("ugf_abs_reduction"),
    }


def run_experiment(cfg: ExperimentConfig, dump_attention: bool = False) -> dict:
    os.makedirs(cfg.out_dir, exist_ok=True)
    t0 = time.time()
    results: dict[str, list[dict]] = {m: [] for m in cfg.modes}
    for seed in cfg.seeds:
        data = seed_data(cfg, seed)
        for mode_str in cfg.modes:
            results[mode_str].append(
                run_single(cfg, mode_str, seed, cfg.out_dir, dump_attention, data)
            )
    summary = summarize(results)
    _write_json(os.path.join(cfg.out_dir, "summary.json"), summary)
    comparison = comparison_table(summary)
    _write_json(os.path.join(cfg.out_dir, "comparison.json"), comparison)
    # how the run was made, kept out of the byte-identical reports
    _write_json(
        os.path.join(cfg.out_dir, "run_meta.json"),
        {
            "seconds": time.time() - t0,
            "finished_unix": time.time(),
            "config": dataclasses.asdict(cfg),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "threads": pair_threads(),
        },
    )
    return {"summary": summary, "comparison": comparison}


def grid_search(cfg: ExperimentConfig, g1_grid, g2_grid) -> tuple[tuple[float, float], list[dict]]:
    """Train cdr-vug per grid point on the data of the first seed; select by
    validation NDCG@10; emit the full table.
    """
    if cfg.source_path is None and cfg.synthetic.n_overlap == 0:
        raise ConfigError(
            "grid search trains cdr-vug, which needs overlapping users; "
            "the synthetic spec has none"
        )
    if not g1_grid or not g2_grid:
        raise ConfigError("grids must be non-empty")
    if any(not 0 <= g <= 1 for g in list(g1_grid) + list(g2_grid)):
        raise ConfigError("grid values must lie in [0, 1]")
    if cfg.train.epochs == 0 or cfg.train.eval_every == 0:
        raise ConfigError("grid search selects by validation: epochs and eval_every must be >= 1")
    seed = cfg.seeds[0]
    data = seed_data(cfg, seed)
    table = []
    best = None
    for g1 in g1_grid:
        for g2 in g2_grid:
            trainer = _trainer(cfg, seed, CDR_VUG, data, gamma1=float(g1), gamma2=float(g2))
            trainer.fit()
            val = max(e["val_ndcg10"] for e in trainer.log.evals)
            table.append({"gamma1": float(g1), "gamma2": float(g2), "val_ndcg10": val})
            if best is None or val > best[2]:
                best = (float(g1), float(g2), val)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.out_dir, "grid.csv"), table)
    return (best[0], best[1]), table


def write_synth_tsv(cross: CrossDomainDataset, out_dir: str):
    """Materialize a synthetic dataset as loadable interaction files."""
    os.makedirs(out_dir, exist_ok=True)
    for name, ds in (("source", cross.source), ("target", cross.target)):
        user_ids = ds.user_ids()
        item_ids = ds.item_ids()
        lines = [f"{user_ids[u]}\t{item_ids[i]}\t5.0" for u, i in ds.interactions.tolist()]
        _atomic_write(os.path.join(out_dir, f"{name}.tsv"), "\n".join(lines) + "\n")
    stats = [
        dataset_stats(cross.source, "source", len(cross.overlap)),
        dataset_stats(cross.target, "target", len(cross.overlap)),
    ]
    _write_json(os.path.join(out_dir, "stats.json"), stats)


def infolab_report(args) -> dict:
    if args.sweep < 0 or args.seed < 0:
        raise ConfigError(f"--sweep and --seed must be >= 0, got {args.sweep} and {args.seed}")
    if args.spec:
        spec = _from_dict(channels.ChannelSpec, _read_json(args.spec, "spec"))
    else:
        # binary symmetric demo: uniform latent, 10% flip on both sides
        spec = channels.ChannelSpec(
            prior=[0.5, 0.5], p_s=[[0.9, 0.1], [0.1, 0.9]], p_t=[[0.9, 0.1], [0.1, 0.9]]
        )
    report = channels.bias_experiment(spec)
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "infolab_report.json"), report)
    if args.sweep:
        rng = np.random.default_rng(args.seed)
        rows = []
        for _ in range(args.sweep):
            s = channels.random_spec(rng)
            r = channels.bias_experiment(s)
            rows.append(
                {
                    "n_z": s.n_z,
                    "v_s": s.v_s,
                    "v_t": s.v_t,
                    "h_cond_overlapping": r["overlapping"]["h_cond"],
                    "h_cond_nonoverlapping": r["nonoverlapping"]["h_cond"],
                    "bayes_overlapping": r["overlapping"]["bayes_error"],
                    "bayes_nonoverlapping": r["nonoverlapping"]["bayes_error"],
                    "fano_overlapping": r["overlapping"]["fano_lower_bound"],
                    "fano_nonoverlapping": r["nonoverlapping"]["fano_lower_bound"],
                }
            )
        _write_csv(os.path.join(args.out, "infolab_sweep.csv"), rows)
    return report


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """Flags beat the config; a flag the subcommand does not take is absent."""
    flags = {name: v for name, v in vars(args).items() if v is not None}
    changes = {}
    if "seed" in flags:
        changes["seeds"] = [flags["seed"]]
    if "mode" in flags:
        changes["modes"] = [flags["mode"]]
    if "out" in flags:
        changes["out_dir"] = flags["out"]
    if "max_users" in flags:
        changes["max_users"] = flags["max_users"]
    gammas = {g: flags[g] for g in ("gamma1", "gamma2") if g in flags}
    if gammas:
        changes["train"] = dataclasses.replace(cfg.train, **gammas)
    return dataclasses.replace(cfg, **changes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vuglab",
        description="Fairness-aware cross-domain recommendation lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def overrides(p, mode=False, gammas=()):
        """--config plus the overrides this subcommand uses."""
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--max-users", type=int)
        if mode:
            p.add_argument("--mode", choices=sorted(MODE_MAP))
        for g in gammas:
            p.add_argument(f"--{g}", type=float)

    p_synth = sub.add_parser("synth", help="generate synthetic data files")
    overrides(p_synth)
    p_train = sub.add_parser("train", help="train and evaluate per config")
    overrides(p_train, mode=True, gammas=("gamma1", "gamma2"))
    once = p_train.add_mutually_exclusive_group()
    once.add_argument("--resume", help="checkpoint to restore before training")
    once.add_argument("--dump-attention", action="store_true")
    p_eval = sub.add_parser("eval", help="evaluate a saved checkpoint")
    overrides(p_eval, mode=True, gammas=("gamma1",))
    p_eval.add_argument("--checkpoint", required=True)
    p_grid = sub.add_parser("grid", help="gamma1/gamma2 grid search")
    overrides(p_grid)
    p_grid.add_argument("--grid-step", type=float, default=0.1)
    p_info = sub.add_parser("infolab", help="latent-channel bias report")
    p_info.add_argument("--spec", help="JSON ChannelSpec")
    p_info.add_argument("--sweep", type=int, default=0, help="random specs for a CSV sweep")
    p_info.add_argument("--seed", type=int, default=0)
    p_info.add_argument("--out", default="runs")
    return parser


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    return _apply_overrides(cfg, args)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "infolab":
            report = infolab_report(args)
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0
        cfg = _load_cfg(args)
        if args.command == "synth":
            if cfg.synthetic is None:
                raise ConfigError("synth needs a synthetic spec; this config reads data files")
            # synthesize from the spec even when the config also names files
            spec_only = dataclasses.replace(cfg, source_path=None, target_path=None)
            write_synth_tsv(build_data(spec_only, cfg.seeds[0]), cfg.out_dir)
            print(f"wrote synthetic data to {cfg.out_dir}")
        elif args.command == "train":
            if args.resume:
                trainer = _trainer(cfg, cfg.seeds[0], MODE_MAP[cfg.modes[0]])
                trainer.store.load(args.resume)
                trainer.fit()
                _test_report(trainer, cfg, "report_resumed.json")
            else:
                out = run_experiment(cfg, dump_attention=args.dump_attention)
                print(json.dumps(out["comparison"], indent=2, sort_keys=True))
        elif args.command == "eval":
            trainer = _trainer(cfg, cfg.seeds[0], MODE_MAP[cfg.modes[0]])
            trainer.store.load(args.checkpoint)
            trainer.refresh_virtuals()
            report = _test_report(trainer, cfg, "report_eval.json")
            print(json.dumps(report, indent=2, sort_keys=True))
        elif args.command == "grid":
            step = args.grid_step
            # a finer step would give more than 101 values per axis
            if not 0.01 <= step < np.inf:
                raise ConfigError(f"--grid-step must be finite and >= 0.01, got {step}")
            grid = [round(step * i, 10) for i in range(int(round(1.0 / step)) + 1)]
            best, _ = grid_search(cfg, grid, grid)
            print(f"best (gamma1, gamma2) = {best}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # expected failures of data, files, checkpoints and training (ParseError,
    # JSON and Unicode errors are ValueErrors; TrainingDiverged is a
    # RuntimeError); any other exception is a bug and keeps its traceback
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"runtime failure in {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
