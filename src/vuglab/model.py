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

SRC_USER = "emb_src_user"
TGT_USER = "emb_tgt_user"
SRC_ITEM = "emb_src_item"
TGT_ITEM = "emb_tgt_item"

SOURCE = "source"
TARGET = "target"


def softplus_sigmoid(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(1 + e^x) and 1 / (1 + e^-x), both from one e = exp(-|x|), so
    neither overflows for large |x|."""
    e = np.exp(-np.abs(x))
    return np.maximum(x, 0.0) + np.log1p(e), np.where(x >= 0, 1.0, e) / (1.0 + e)


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
    """Four embedding tables in the MAIN partition plus the coupling weight
    `effective_lam` (0 switches the cross-domain flow off).
    """

    def __init__(self, store: ParameterStore, d: int, lam: float, src_of_tgt: np.ndarray):
        if not np.isfinite(lam) or not (0.0 <= lam <= 1.0):
            raise ValueError(f"lam must be finite in [0, 1], got {lam}")
        shapes = {store.get(n).shape[1] for n in (SRC_USER, TGT_USER, SRC_ITEM, TGT_ITEM)}
        if shapes != {d}:
            raise ValueError(f"embedding dim mismatch: tables have dims {shapes}, d={d}")
        self.store = store
        self.d = d
        self.effective_lam = float(lam)
        self.src_of_tgt = np.asarray(src_of_tgt, dtype=np.int64)

    @classmethod
    def create(
        cls,
        cross: CrossDomainDataset,
        d: int,
        lam: float = 0.5,
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
        return cls(store, d, lam, cross.src_of_tgt())

    def query_rows(
        self,
        users: np.ndarray,
        virtual_sources: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched (e^T_u + lam*ehat) rows.

        Returns (q, src_rows): src_rows[b] is the source index feeding row b
        or -1. Non-overlapping users read their row of `virtual_sources`, an
        (n_target_users, d) array, or zero without one; a zero row scores
        exactly as no row.
        """
        lam = self.effective_lam
        et = self.store.get(TGT_USER)[users]
        src_rows = self.src_of_tgt[users]
        ehat = np.zeros_like(et)
        ov = src_rows >= 0
        ehat[ov] = self.store.get(SRC_USER)[src_rows[ov]]
        if virtual_sources is not None:
            ehat[~ov] = virtual_sources[users[~ov]]
        return et + lam * ehat, src_rows

    def bpr_loss(
        self,
        batch: TrainBatch,
        virtual_sources: np.ndarray | None = None,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean BPR loss -ln sigma(s+ - s-) over the batch and its gradients
        by tensor name. Source batches score plain MF; target batches score
        through `query_rows`, and with lam > 0 the overlapping users' source
        rows get lam times their query gradient. Virtual source rows are
        constants: no gradient flows back into them.
        """
        if len(batch) == 0:
            raise ValueError("bpr_loss needs a non-empty batch")
        if batch.domain == SOURCE:
            user_table, item_table = SRC_USER, SRC_ITEM
            q = self.store.get(SRC_USER)[batch.users]
        else:
            user_table, item_table = TGT_USER, TGT_ITEM
            q, src_rows = self.query_rows(batch.users, virtual_sources)
        ei = self.store.get(item_table)
        vp = ei[batch.pos]
        vn = ei[batch.neg]
        x = np.einsum("bd,bd->b", q, vp - vn)
        nll, slope = softplus_sigmoid(-x)
        loss = float(np.mean(nll))
        g = -slope / len(batch)
        dq = g[:, None] * (vp - vn)
        du = np.zeros_like(self.store.get(user_table))
        di = np.zeros_like(ei)
        scatter_add(du, batch.users, dq)
        scatter_add(di, batch.pos, g[:, None] * q)
        scatter_add(di, batch.neg, -g[:, None] * q)
        grads = {user_table: du, item_table: di}
        lam = self.effective_lam
        if batch.domain == TARGET and lam != 0.0:
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
        hit = np.empty(len(q), dtype=bool)
        hit[order] = _in_sorted(keys, q[order])
        return hit

    out = rng.integers(0, n_items, size=len(users))
    bad = positive(users, out)
    while bad.any():
        idx = np.flatnonzero(bad)
        out[idx] = rng.integers(0, n_items, size=len(idx))
        bad[idx] = positive(users[idx], out[idx])
    return out


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """`np.unique` of a 1-d int array by one sort and a neighbour compare;
    np.unique hashes int keys on numpy >= 2.3, tens of times slower."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _in_sorted(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Which entries of `q` (any shape) are in the sorted, non-empty 1-d
    `keys`, by binary search."""
    return keys.take(np.searchsorted(keys, q), mode="clip") == q


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
        keys = _sorted_distinct(users * split.n_items + items)
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
