"""Alternating optimization: BPR steps on the MAIN partition with the
generator frozen, limiter steps on the GEN partition with everything else
frozen. Target BPR reads the virtual source rows as constants, so the
generator learns from the limiter alone. Each partition keeps its own Adam
state and step counter, so a step of one leaves the other bit-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .data import CrossDomainDataset, SplitDataset
from .generator import (
    GeneratorParams,
    attention_backward,
    compute_item_profiles,
    forward_users,
    knn_generate_all,
)
from .limiter import constrain_loss, super_loss
from .metrics import EvalReport, evaluate
from .model import SOURCE, SRC_USER, TARGET, TGT_ITEM, TGT_USER, CdrModel, PositivePool, TrainBatch
from .params import GEN, MAIN, AdamConfig, ParameterStore

# run modes: target domain alone (lam 0), plain CDR, CDR with generated
# virtual source rows, and CDR with KNN-averaged virtual source rows
TARGET_ONLY = "TARGET_ONLY"
CDR = "CDR"
CDR_VUG = "CDR_VUG"
KNN_VUG = "KNN_VUG"
TRAIN_MODES = (TARGET_ONLY, CDR, CDR_VUG, KNN_VUG)


class TrainingDiverged(RuntimeError):
    """Non-finite loss; carries a parameter snapshot for diagnosis."""

    def __init__(self, message: str, snapshot=None, losses=None):
        super().__init__(message)
        self.snapshot = snapshot
        self.losses = losses


@dataclass
class TrainConfig:
    mode: str = CDR
    epochs: int = 30
    batch_size: int = 2048
    d: int = 64
    lam: float = 0.5
    gamma1: float = 0.5
    gamma2: float = 0.5
    adam_main: AdamConfig = field(default_factory=AdamConfig)
    adam_gen: AdamConfig = field(default_factory=AdamConfig)
    eval_every: int = 5
    patience: int = 20
    seed: int = 0
    warmup_epochs: int = 0
    gen_every: int = 1
    constrain_sample: int = 256
    super_sample: int = 256
    knn_neighbors: int = 10
    eval_ks: tuple = (10, 20)

    def validate(self):
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"mode must be one of {TRAIN_MODES}, got {self.mode!r}")
        for name in ("epochs", "eval_every", "warmup_epochs"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("batch_size", "d", "patience", "gen_every", "knn_neighbors"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("gamma1", "gamma2", "lam"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.constrain_sample < 2:
            raise ValueError("constrain_sample must be >= 2")
        if self.super_sample < 0:
            raise ValueError("super_sample must be >= 0 (0 = the whole overlap set)")
        if 10 not in self.eval_ks:
            raise ValueError("eval_ks must include 10 (checkpoint selection metric)")
        self.adam_main.validate()
        self.adam_gen.validate()


@dataclass
class TrainLog:
    steps: list[dict] = field(default_factory=list)
    epochs: list[dict] = field(default_factory=list)
    evals: list[dict] = field(default_factory=list)

    def append_step(self, rec: dict):
        if self.steps and rec["step"] <= self.steps[-1]["step"]:
            raise ValueError("step counter must be strictly increasing")
        self.steps.append(rec)

    def save_jsonl(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for kind, rows in (("step", self.steps), ("epoch", self.epochs), ("eval", self.evals)):
                for row in rows:
                    fh.write(json.dumps({"kind": kind, **row}, sort_keys=True) + "\n")


class Trainer:
    def __init__(
        self,
        cross: CrossDomainDataset,
        split_src: SplitDataset,
        split_tgt: SplitDataset,
        cfg: TrainConfig,
    ):
        cfg.validate()
        if cfg.mode in (CDR_VUG, KNN_VUG) and len(cross.overlap_tgt) == 0:
            raise ValueError(f"mode {cfg.mode} needs overlapping users; the data has none")
        self.cross = cross
        self.split_src = split_src
        self.split_tgt = split_tgt
        self.cfg = cfg
        self.store = ParameterStore()
        lam = 0.0 if cfg.mode == TARGET_ONLY else cfg.lam
        self.model = CdrModel.create(cross, cfg.d, lam, seed=cfg.seed, store=self.store)
        self.gen = (
            GeneratorParams.create(self.store, cfg.d, cfg.gamma1)
            if cfg.mode == CDR_VUG
            else None
        )
        self.pool_src = PositivePool.from_split(split_src)
        self.pool_tgt = PositivePool.from_split(split_tgt)
        streams = np.random.SeedSequence(cfg.seed).spawn(3)
        self.rng_src = np.random.default_rng(streams[0])
        self.rng_tgt = np.random.default_rng(streams[1])
        self.rng_gen = np.random.default_rng(streams[2])
        self.log = TrainLog()
        self.global_step = 0
        self.virtual: np.ndarray | None = None
        self.profiles: np.ndarray | None = None
        self.profile_valid: np.ndarray | None = None

    def refresh_virtuals(self):
        """Rebuild `virtual` from the current tables (once per epoch and
        before evaluations), and in CDR_VUG mode the item profiles its
        attention reads. `virtual` is a fresh (n_target_users, d) array each
        time, filled on the non-overlap rows only, so an array handed out
        earlier keeps its values. TARGET_ONLY and CDR have no virtual rows:
        they return at once and leave `virtual` None, the trainer's one sign
        that virtual rows and generator steps are off.
        """
        if self.cfg.mode not in (CDR_VUG, KNN_VUG):
            return
        tgt_u = self.store.get(TGT_USER)
        src_u = self.store.get(SRC_USER)
        if self.cfg.mode == CDR_VUG:
            self.profiles, self.profile_valid = compute_item_profiles(
                self.split_tgt.train, self.split_tgt.n_users, self.store.get(TGT_ITEM)
            )
        virtual = np.zeros((self.cross.target.n_users, self.cfg.d))
        non = self.cross.target_nonoverlap
        if self.cfg.mode == CDR_VUG and len(non):
            # only the non-overlap rows are consumed during training; the
            # overlap-side forward pass is left to the supervision step
            virtual[non], _ = forward_users(
                self.gen, non, self.cross, tgt_u, src_u,
                self.profiles, self.profile_valid, need_cache=False,
            )
        elif self.cfg.mode == KNN_VUG:
            virtual[non] = knn_generate_all(self.cross, tgt_u, src_u, self.cfg.knn_neighbors)
        self.virtual = virtual

    def _check_finite(self, losses: dict):
        if all(np.isfinite(v) for v in losses.values() if v is not None):
            return
        raise TrainingDiverged(
            f"non-finite loss at step {self.global_step}: {losses}",
            snapshot=self.store.snapshot(),
            losses=losses,
        )

    def _gen_step(self) -> tuple[float, float, float]:
        """One limiter step on the GEN partition (MAIN stays untouched).

        Both loss terms run through a single attention pass (supervision
        queries first, spread queries after); one backward on the
        gamma2-weighted upstream gradients equals the weighted sum of
        per-term gradients because the backward is linear in d_out.
        """
        cfg = self.cfg
        cross = self.cross
        tgt_u = self.store.get(TGT_USER)
        src_u = self.store.get(SRC_USER)
        ov_t, ov_s = cross.overlap_tgt, cross.overlap_src
        m = len(ov_t)
        k_sup = m if cfg.super_sample == 0 else min(cfg.super_sample, m)
        posn = self.rng_gen.permutation(m)[:k_sup]
        non = cross.target_nonoverlap
        k_con = min(cfg.constrain_sample, len(non)) if len(non) >= 2 else 0
        users_c = non[self.rng_gen.permutation(len(non))[:k_con]] if k_con else non[:0]
        rows, cache = forward_users(
            self.gen, np.concatenate([ov_t[posn], users_c]), cross,
            tgt_u, src_u, self.profiles, self.profile_valid,
        )
        l_sup, d_sup = super_loss(rows[:k_sup], src_u[ov_s[posn]])
        d_out = np.empty_like(rows)
        d_out[:k_sup] = cfg.gamma2 * d_sup
        if k_con:
            l_con, d_con = constrain_loss(rows[k_sup:])
            d_out[k_sup:] = (1.0 - cfg.gamma2) * d_con
        else:
            l_con = 0.0
        obj = cfg.gamma2 * l_sup + (1.0 - cfg.gamma2) * l_con
        grads = attention_backward(self.gen, cache, d_out)
        self._check_finite({"l_super": l_sup, "l_constrain": l_con, "objective": obj})
        self.store.adam_step(grads, cfg.adam_gen, GEN)
        return l_sup, l_con, obj

    def train_step(self, batch_src: TrainBatch, batch_tgt: TrainBatch) -> float:
        """(a) one Adam step of the MAIN partition on both domains' BPR, the
        virtual source rows taken as constants; (b) one Adam step of the GEN
        partition on the limiter objective, when the mode and cadence call
        for it. Returns seconds spent in (b).
        """
        cfg = self.cfg
        l_src, grads = self.model.bpr_loss(batch_src)
        l_tgt, g_tgt = self.model.bpr_loss(batch_tgt, self.virtual)
        # the domains share only the source user table (through lam)
        for name, g in g_tgt.items():
            if name in grads:
                grads[name] += g
            else:
                grads[name] = g
        self._check_finite({"l_src": l_src, "l_tgt": l_tgt})
        self.store.adam_step(grads, cfg.adam_main, MAIN)
        self.global_step += 1

        l_sup = l_con = obj = None
        gen_seconds = 0.0
        if self.gen is not None and self.virtual is not None and (
            self.global_step % cfg.gen_every == 0
        ):
            t0 = time.perf_counter()
            l_sup, l_con, obj = self._gen_step()
            gen_seconds = time.perf_counter() - t0
        self.log.append_step(
            {
                "step": self.global_step,
                "l_cdr": l_src + l_tgt,
                "l_super": l_sup,
                "l_constrain": l_con,
                "objective": obj,
            }
        )
        return gen_seconds

    def _validate_now(self) -> EvalReport:
        if self.virtual is not None:
            self.refresh_virtuals()
        return evaluate(
            self.model, self.cross, self.split_tgt,
            ks=self.cfg.eval_ks, virtual_sources=self.virtual, part="valid",
        )

    def fit(self) -> tuple[CdrModel, GeneratorParams | None, TrainLog]:
        """Epoch loop with periodic validation; restores the parameters of
        the best validation NDCG@10 before returning. Virtual rows and
        generator steps are off (`virtual` is None) until the refresh at
        epoch `warmup_epochs`. With validation on (`eval_every` > 0) it fails
        before the first epoch when no target user has a validation positive.
        """
        cfg = self.cfg
        if cfg.eval_every and cfg.epochs and len(self.split_tgt.valid) == 0:
            raise ValueError(
                f"eval_every={cfg.eval_every} asks for validation, but no target user has "
                "a validation positive; set eval_every to 0 or give users more interactions"
            )
        self.virtual = None
        best_val = -np.inf
        best_snap = None
        bad_evals = 0
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            gen_seconds = 0.0
            if epoch >= cfg.warmup_epochs:
                self.refresh_virtuals()
                if self.virtual is not None:  # modes without virtual rows log 0.0
                    gen_seconds = time.perf_counter() - t0
            batches_src = list(self.pool_src.iter_batches(cfg.batch_size, self.rng_src))
            batches_tgt = list(self.pool_tgt.iter_batches(cfg.batch_size, self.rng_tgt))
            n_steps = max(len(batches_src), len(batches_tgt))
            for k in range(n_steps):
                bs = TrainBatch(SOURCE, *batches_src[k % len(batches_src)])
                bt = TrainBatch(TARGET, *batches_tgt[k % len(batches_tgt)])
                gen_seconds += self.train_step(bs, bt)
            self.log.epochs.append(
                {
                    "epoch": epoch,
                    "seconds": time.perf_counter() - t0,
                    "gen_seconds": gen_seconds,
                }
            )
            last = epoch == cfg.epochs - 1
            due = cfg.eval_every > 0 and ((epoch + 1) % cfg.eval_every == 0 or last)
            if due:
                report = self._validate_now()
                val = report.value("ndcg", 10)
                self.log.evals.append(
                    {"epoch": epoch, "val_ndcg10": val, "report": report.to_dict()}
                )
                if val > best_val:
                    best_val, best_snap, bad_evals = val, self.store.snapshot(), 0
                else:
                    bad_evals += 1
                    if bad_evals >= cfg.patience:
                        break
        if best_snap is not None:
            self.store.restore(best_snap)
            if self.virtual is not None:
                self.refresh_virtuals()
        return self.model, self.gen, self.log
