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
from .generator import forward_users
from .metrics import evaluate, top_columns
from .model import SRC_USER, TGT_USER
from .params import pair_threads
from .training import CDR, CDR_VUG, KNN_VUG, TARGET_ONLY, Trainer, TrainConfig

log = logging.getLogger(__name__)

MODE_MAP = {
    "target-only": TARGET_ONLY,
    "cdr": CDR,
    "cdr-vug": CDR_VUG,
    "knn-vug": KNN_VUG,
}


class ConfigError(ValueError):
    pass


@dataclass
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
    identical_transforms: bool = False

    def validate(self):
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
    spec.validate()
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
    if spec.identical_transforms:
        m_target = m_source.copy()
    else:
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


def _is_int_list(value) -> bool:
    """A non-empty list or tuple of ints (bools excluded)."""
    return (
        isinstance(value, (list, tuple))
        and len(value) > 0
        and all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in value)
    )


@dataclass
class ExperimentConfig:
    synthetic: SyntheticCdrSpec | None = field(default_factory=SyntheticCdrSpec)
    source_path: str | None = None
    target_path: str | None = None
    modes: list[str] = field(default_factory=lambda: ["target-only", "cdr", "cdr-vug"])
    train: TrainConfig = field(default_factory=TrainConfig)
    ks: tuple = (10, 20)
    out_dir: str = "runs"
    seeds: list[int] = field(default_factory=lambda: [0])
    max_users: int | None = None
    rating_threshold: float = 3.0
    k_core: int = 5

    def validate(self):
        if not _is_int_list(self.seeds) or min(self.seeds) < 0:
            raise ConfigError(f"seeds must be a non-empty list of ints >= 0, got {self.seeds!r}")
        for name, ks in (("ks", self.ks), ("train.eval_ks", self.train.eval_ks)):
            if not _is_int_list(ks) or min(ks) < 1:
                raise ConfigError(f"{name} must be a non-empty list of ints >= 1, got {ks!r}")
        if not self.modes:
            raise ConfigError(f"modes must be a non-empty list; valid: {sorted(MODE_MAP)}")
        for m in self.modes:
            if m not in MODE_MAP:
                raise ConfigError(f"unknown mode {m!r}; valid: {sorted(MODE_MAP)}")
        if self.k_core < 1:
            raise ConfigError(f"k_core must be >= 1, got {self.k_core}")
        if self.max_users is not None and self.max_users < 1:
            raise ConfigError(f"max_users must be >= 1, got {self.max_users}")
        if (self.source_path is None) != (self.target_path is None):
            raise ConfigError("source_path and target_path must be given together")
        if self.source_path is None and self.synthetic is None:
            raise ConfigError("either dataset paths or a synthetic spec is required")
        try:
            self.train.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.synthetic is not None:
            self.synthetic.validate()
        vug = sorted(m for m in self.modes if MODE_MAP[m] in (CDR_VUG, KNN_VUG))
        if self.source_path is None and self.synthetic.n_overlap == 0 and vug:
            raise ConfigError(f"modes {vug} need overlapping users; the synthetic spec has none")


def _parse(ftype, value, where: str):
    """`value` checked against the field type `ftype`: dataclasses are built
    from dicts, scalars must match their type (a bool is not an int, an int
    is accepted as a float), and typed lists are checked item by item.
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
    if ftype is float and type(value) is int:
        return float(value)
    if ftype in (bool, int, float, str) and type(value) is ftype:
        return value
    raise ConfigError(f"bad {where}: expected {origin.__name__}, got {value!r}")


def _from_dict(cls, data: dict):
    """Build a (possibly nested) dataclass from plain dicts, parsing each
    value by its field type and rejecting unknown keys so config typos fail
    loudly.
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
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {cls.__name__}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = _from_dict(ExperimentConfig, raw)
    # each run sets these from `modes` and `seeds`; a file value would be ignored
    for part, key in (("train", "mode"), ("train", "seed"), ("synthetic", "seed")):
        if key in (raw.get(part) or {}):
            raise ConfigError(
                f"{part}.{key} is set per run from `{key}s` or --{key}; remove it from {path}"
            )
    return cfg


def _atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, obj):
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_domain(path: str, threshold: float, k: int) -> DomainDataset:
    rows = binarize(dedupe(load_interactions(path)), threshold)
    return k_core_filter(DomainDataset.from_records(rows), k)


def build_data(cfg: ExperimentConfig, seed: int) -> CrossDomainDataset:
    """The configured dataset, then its first `max_users` users per domain.
    A domain that the filters leave without interactions is a RuntimeError.
    """
    if cfg.source_path is None:
        cross = synth_cdr(dataclasses.replace(cfg.synthetic, seed=seed))
    else:
        cross = build_cross(
            load_domain(cfg.source_path, cfg.rating_threshold, cfg.k_core),
            load_domain(cfg.target_path, cfg.rating_threshold, cfg.k_core),
        )
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


def _trainer(cfg: ExperimentConfig, seed: int, mode: str, **train) -> Trainer:
    """A Trainer on the data and splits of `seed`, with `cfg.train` given
    this mode, this seed and the `train` field values.
    """
    cross = build_data(cfg, seed)
    split_src, split_tgt = prepare_splits(cross, seed)
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
    cfg: ExperimentConfig, mode_str: str, seed: int, out_dir: str, dump_attention: bool = False
) -> dict:
    """Train one (mode, seed) pair, evaluate on test, write its artifacts."""
    trainer = _trainer(cfg, seed, MODE_MAP[mode_str])
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
        _, cache = forward_users(
            gen, non, cross, trainer.store.get(TGT_USER), trainer.store.get(SRC_USER),
            trainer.profiles, trainer.profile_valid, need_cache=True,
        )
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
    acc_rel, acc_abs, fair_rel, fair_abs = [], [], [], []
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
        acc_abs.append(row["accuracy_abs_delta"])
        if row["accuracy_rel_delta_pct"] is not None:
            acc_rel.append(row["accuracy_rel_delta_pct"])
        if b_ugf is not None and t_ugf is not None:
            bu, tu = b_ugf["mean"], t_ugf["mean"]
            row["ugf_without_vug"] = bu
            row["ugf_with_vug"] = tu
            row["ugf_abs_reduction"] = bu - tu
            row["ugf_rel_reduction_pct"] = (100.0 * (bu - tu) / bu) if bu else None
            fair_abs.append(row["ugf_abs_reduction"])
            if row["ugf_rel_reduction_pct"] is not None:
                fair_rel.append(row["ugf_rel_reduction_pct"])
        rows.append(row)
    return {
        "rows": rows,
        "accuracy_improvement_pct": float(np.mean(acc_rel)) if acc_rel else None,
        "accuracy_improvement_abs": float(np.mean(acc_abs)) if acc_abs else None,
        "fairness_improvement_pct": float(np.mean(fair_rel)) if fair_rel else None,
        "fairness_improvement_abs": float(np.mean(fair_abs)) if fair_abs else None,
    }


def run_experiment(cfg: ExperimentConfig, dump_attention: bool = False) -> dict:
    cfg.validate()
    os.makedirs(cfg.out_dir, exist_ok=True)
    t0 = time.time()
    results: dict[str, list[dict]] = {m: [] for m in cfg.modes}
    for seed in cfg.seeds:
        for mode_str in cfg.modes:
            results[mode_str].append(
                run_single(cfg, mode_str, seed, cfg.out_dir, dump_attention)
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
    cfg.validate()
    if not g1_grid or not g2_grid:
        raise ConfigError("grids must be non-empty")
    if any(not 0 <= g <= 1 for g in list(g1_grid) + list(g2_grid)):
        raise ConfigError("grid values must lie in [0, 1]")
    if cfg.train.epochs == 0 or cfg.train.eval_every == 0:
        raise ConfigError("grid search selects by validation: epochs and eval_every must be >= 1")
    seed = cfg.seeds[0]
    table = []
    best = None
    for g1 in g1_grid:
        for g2 in g2_grid:
            trainer = _trainer(cfg, seed, CDR_VUG, gamma1=float(g1), gamma2=float(g2))
            trainer.fit()
            val = max(e["val_ndcg10"] for e in trainer.log.evals)
            table.append({"gamma1": float(g1), "gamma2": float(g2), "val_ndcg10": val})
            if best is None or val > best[2]:
                best = (float(g1), float(g2), val)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "grid.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["gamma1", "gamma2", "val_ndcg10"])
        writer.writeheader()
        writer.writerows(table)
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


def load_channel_spec(path: str) -> channels.ChannelSpec:
    """Read a JSON ChannelSpec; any unreadable or invalid spec is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read spec {path}: {exc}") from exc
    try:
        return channels.ChannelSpec(
            prior=np.asarray(raw["prior"]),
            p_s=np.asarray(raw["p_s"]),
            p_t=np.asarray(raw["p_t"]),
            n=raw.get("n", 100_000),
            seed=raw.get("seed", 0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad spec {path}: {exc!r}") from exc


def infolab_report(args) -> dict:
    if args.sweep < 0 or args.seed < 0:
        raise ConfigError(f"--sweep and --seed must be >= 0, got {args.sweep} and {args.seed}")
    if args.spec:
        spec = load_channel_spec(args.spec)
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
        path = os.path.join(args.out, "infolab_sweep.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return report


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """Flags beat the config; a flag the subcommand does not take is absent."""
    flags = {name: v for name, v in vars(args).items() if v is not None}
    if "seed" in flags:
        cfg.seeds = [flags["seed"]]
    if "mode" in flags:
        cfg.modes = [flags["mode"]]
    if "out" in flags:
        cfg.out_dir = flags["out"]
    if "max_users" in flags:
        cfg.max_users = flags["max_users"]
    gammas = {g: flags[g] for g in ("gamma1", "gamma2") if g in flags}
    if gammas:
        cfg.train = dataclasses.replace(cfg.train, **gammas)
    return cfg


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
    cfg = _apply_overrides(cfg, args)
    cfg.validate()
    return cfg


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
    except Exception as exc:  # runtime failure: report stage and fail loudly
        print(f"runtime failure in {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
