"""Dual-embedding matrix factorization backbone with cross-domain coupling.

Target score is (e^T_u + lam * ehat^S_u) . e^T_i, where ehat^S_u is the
user's true source embedding (overlapping user), a supplied virtual source
embedding, or zero. Source-domain scoring is plain MF on the source tables.
Both domains train jointly with BPR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import CrossDomainDataset, SplitDataset
from .params import MAIN, ParameterStore, init_embeddings, scatter_add

TARGET_ONLY = "TARGET_ONLY"
CDR = "CDR"
CDR_VUG = "CDR_VUG"
MODES = (TARGET_ONLY, CDR, CDR_VUG)

SRC_USER = "emb_src_user"
TGT_USER = "emb_tgt_user"
SRC_ITEM = "emb_src_item"
TGT_ITEM = "emb_tgt_item"

SOURCE = "source"
TARGET = "target"


def softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x) without overflow for large |x|
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class VirtualTable:
    """Dense packing of a {target user -> virtual source embedding} map so
    batched lookups avoid per-row dict probes.
    """

    def __init__(self, n_users: int, d: int):
        self.vec = np.zeros((n_users, d))
        self.has = np.zeros(n_users, dtype=bool)

    @classmethod
    def from_map(cls, n_users: int, d: int, mapping: dict[int, np.ndarray]) -> "VirtualTable":
        vt = cls(n_users, d)
        for u, v in mapping.items():
            vt.vec[u] = v
            vt.has[u] = True
        return vt

    def get(self, u: int):
        return self.vec[u] if self.has[u] else None

    def __bool__(self) -> bool:
        return bool(self.has.any())


@dataclass
class TrainBatch:
    """BPR triples within one domain."""

    domain: str
    users: np.ndarray
    pos: np.ndarray
    neg: np.ndarray

    def __post_init__(self):
        if self.domain not in (SOURCE, TARGET):
            raise ValueError(f"unknown domain tag {self.domain!r}")
        self.users = np.asarray(self.users, dtype=np.int64)
        self.pos = np.asarray(self.pos, dtype=np.int64)
        self.neg = np.asarray(self.neg, dtype=np.int64)
        if not (len(self.users) == len(self.pos) == len(self.neg)):
            raise ValueError("users/pos/neg must have equal length")

    def __len__(self) -> int:
        return len(self.users)


class CdrModel:
    """Four embedding tables in the MAIN partition plus the coupling weight."""

    def __init__(
        self,
        store: ParameterStore,
        d: int,
        lam: float,
        mode: str,
        src_of_tgt: np.ndarray,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if not np.isfinite(lam) or not (0.0 <= lam <= 1.0):
            raise ValueError(f"lam must be finite in [0, 1], got {lam}")
        shapes = {store.get(n).shape[1] for n in (SRC_USER, TGT_USER, SRC_ITEM, TGT_ITEM)}
        if shapes != {d}:
            raise ValueError(f"embedding dim mismatch: tables have dims {shapes}, d={d}")
        self.store = store
        self.d = d
        self.lam = float(lam)
        self.mode = mode
        self.src_of_tgt = np.asarray(src_of_tgt, dtype=np.int64)

    @classmethod
    def create(
        cls,
        cross: CrossDomainDataset,
        d: int,
        lam: float = 0.5,
        mode: str = CDR,
        seed: int = 0,
        store: ParameterStore | None = None,
    ) -> "CdrModel":
        store = store if store is not None else ParameterStore()
        sizes = [
            (SRC_USER, cross.source.n_users),
            (TGT_USER, cross.target.n_users),
            (SRC_ITEM, cross.source.n_items),
            (TGT_ITEM, cross.target.n_items),
        ]
        for offset, (name, n) in enumerate(sizes):
            store.add(name, init_embeddings(n, d, seed + offset), MAIN)
        return cls(store, d, lam, mode, cross.src_of_tgt())

    @property
    def effective_lam(self) -> float:
        # TARGET_ONLY disables the cross-domain flow entirely
        return 0.0 if self.mode == TARGET_ONLY else self.lam

    @property
    def n_target_items(self) -> int:
        return self.store.get(TGT_ITEM).shape[0]

    def query_rows(
        self,
        users: np.ndarray,
        virtual_sources: VirtualTable | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched (e^T_u + lam*ehat) rows.

        Returns (q, src_rows): src_rows[b] is the source index feeding row b
        or -1. Non-overlapping users read their row of `virtual_sources`
        where it has one, else zero.
        """
        lam = self.effective_lam
        et = self.store.get(TGT_USER)[users]
        src_rows = self.src_of_tgt[users]
        ehat = np.zeros_like(et)
        ov = src_rows >= 0
        ehat[ov] = self.store.get(SRC_USER)[src_rows[ov]]
        if virtual_sources:
            vmask = ~ov & virtual_sources.has[users]
            ehat[vmask] = virtual_sources.vec[users[vmask]]
        return et + lam * ehat, src_rows

    def bpr_loss(
        self,
        batch: TrainBatch,
        virtual_sources: VirtualTable | None = None,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean BPR loss -ln sigma(s+ - s-) over the batch and its gradients
        by tensor name. Virtual source rows are constants: no gradient
        flows back into them.
        """
        if len(batch) == 0:
            raise ValueError("bpr_loss needs a non-empty batch")
        if batch.domain == SOURCE:
            return self._bpr_source(batch)
        return self._bpr_target(batch, virtual_sources)

    def _bpr_source(self, batch):
        eu = self.store.get(SRC_USER)
        ei = self.store.get(SRC_ITEM)
        q = eu[batch.users]
        vp = ei[batch.pos]
        vn = ei[batch.neg]
        x = np.einsum("bd,bd->b", q, vp - vn)
        loss = float(np.mean(softplus(-x)))
        g = -sigmoid(-x) / len(batch)
        dq = g[:, None] * (vp - vn)
        du = np.zeros_like(eu)
        di = np.zeros_like(ei)
        scatter_add(du, batch.users, dq)
        scatter_add(di, batch.pos, g[:, None] * q)
        scatter_add(di, batch.neg, -g[:, None] * q)
        return loss, {SRC_USER: du, SRC_ITEM: di}

    def _bpr_target(self, batch, virtual_sources):
        lam = self.effective_lam
        ei = self.store.get(TGT_ITEM)
        q, src_rows = self.query_rows(batch.users, virtual_sources)
        vp = ei[batch.pos]
        vn = ei[batch.neg]
        x = np.einsum("bd,bd->b", q, vp - vn)
        loss = float(np.mean(softplus(-x)))
        g = -sigmoid(-x) / len(batch)
        dq = g[:, None] * (vp - vn)
        dtu = np.zeros_like(self.store.get(TGT_USER))
        dti = np.zeros_like(ei)
        scatter_add(dtu, batch.users, dq)
        scatter_add(dti, batch.pos, g[:, None] * q)
        scatter_add(dti, batch.neg, -g[:, None] * q)
        grads = {TGT_USER: dtu, TGT_ITEM: dti}
        if lam != 0.0:
            dsu = np.zeros_like(self.store.get(SRC_USER))
            ov = src_rows >= 0
            scatter_add(dsu, src_rows[ov], lam * dq[ov])
            grads[SRC_USER] = dsu
        return loss, grads


def sample_negatives_batch(
    keys: np.ndarray,
    n_items: int,
    users: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One negative per row of `users`: uniform draws over the items,
    redrawn where they hit a positive. `keys` holds the positives as sorted
    `user * n_items + item` values; the queries probe them in sorted order,
    which walks `keys` front to back instead of jumping around it.
    """
    def positive(rows, items):
        q = rows * n_items + items
        order = np.argsort(q)
        sq = q[order]
        hit = np.empty(len(q), dtype=bool)
        hit[order] = keys.take(np.searchsorted(keys, sq), mode="clip") == sq
        return hit

    out = rng.integers(0, n_items, size=len(users))
    bad = positive(users, out)
    while bad.any():
        idx = np.flatnonzero(bad)
        out[idx] = rng.integers(0, n_items, size=len(idx))
        bad[idx] = positive(users[idx], out[idx])
    return out


@dataclass
class PositivePool:
    """Per-domain training positives as flat (user, item) columns, plus
    their sorted `user * n_items + item` keys for membership tests.
    """

    users: np.ndarray
    items: np.ndarray
    keys: np.ndarray = field(repr=False)
    n_items: int

    @classmethod
    def from_split(cls, split: SplitDataset) -> "PositivePool":
        users, items = split.train.T
        keys = np.unique(users * split.n_items + items)
        full = np.flatnonzero(np.bincount(keys // split.n_items) >= split.n_items)
        if len(full):
            raise ValueError(f"user {full[0]} has no eligible negative item")
        return cls(users=users, items=items, keys=keys, n_items=split.n_items)

    def iter_batches(self, batch_size: int, rng: np.random.Generator):
        """Shuffled BPR batches with freshly sampled negatives."""
        perm = rng.permutation(len(self.users))
        for lo in range(0, len(perm), batch_size):
            rows = perm[lo : lo + batch_size]
            u = self.users[rows]
            yield u, self.items[rows], sample_negatives_batch(self.keys, self.n_items, u, rng)
