"""Virtual-user generation by dual attention over overlapping users.

Two softmax channels score every overlapping user against a query user: one
on target-domain user embeddings, one on aggregated item profiles. The mixed
weights combine value-projected source embeddings into a virtual source
embedding. A non-learned top-N cosine generator is kept as an ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CrossDomainDataset
from .metrics import top_columns
from .params import GEN, ParameterStore, run_pair, scatter_add

CHANNELS = ("user", "item")

# knn_generate ranks query users in blocks of max(1, this // n_overlap) rows
_KNN_CELL_BUDGET = 1 << 20

GEN_TENSORS = (
    "gen_wv",
    "gen_bv",
    "gen_wq_user",
    "gen_bq_user",
    "gen_wk_user",
    "gen_bk_user",
    "gen_wq_item",
    "gen_bq_item",
    "gen_wk_item",
    "gen_bk_item",
)


@dataclass
class GeneratorParams:
    """Handle to the GEN-partition tensors plus the channel mix weight.

    gamma1 mixes the two attention channels and is a hyperparameter (grid
    searched, not optimized), so it lives here rather than in the store.
    """

    store: ParameterStore
    d: int
    gamma1: float

    def __post_init__(self):
        if not (0.0 <= self.gamma1 <= 1.0):
            raise ValueError(f"gamma1 must lie in [0, 1], got {self.gamma1}")

    @classmethod
    def create(
        cls,
        store: ParameterStore,
        d: int,
        gamma1: float = 0.5,
        seed: int = 0,
        init_noise: float = 0.0,
    ) -> "GeneratorParams":
        """Register GEN tensors. Matrices start at identity (+ optional
        jitter), biases at zero: the untrained generator then reduces to
        similarity-weighted averaging of raw source embeddings.
        """
        rng = np.random.default_rng(seed)
        for name in GEN_TENSORS:
            if name.startswith("gen_b"):
                value = np.zeros(d)
            else:
                value = np.eye(d)
                if init_noise:
                    value = value + init_noise * rng.standard_normal((d, d))
            store.add(name, value, GEN)
        return cls(store=store, d=d, gamma1=gamma1)

    def wq(self, channel: str) -> np.ndarray:
        return self.store.get(f"gen_wq_{channel}")

    def bq(self, channel: str) -> np.ndarray:
        return self.store.get(f"gen_bq_{channel}")

    def wk(self, channel: str) -> np.ndarray:
        return self.store.get(f"gen_wk_{channel}")

    def bk(self, channel: str) -> np.ndarray:
        return self.store.get(f"gen_bk_{channel}")

    @property
    def wv(self) -> np.ndarray:
        return self.store.get("gen_wv")

    @property
    def bv(self) -> np.ndarray:
        return self.store.get("gen_bv")


def compute_item_profiles(
    pairs: np.ndarray, n_users: int, item_embs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per user, the mean embedding of the items in its (user, item) rows
    of `pairs`, plus a validity mask (False = no items).
    """
    users, items = pairs.T
    item_embs = np.asarray(item_embs, dtype=np.float64)
    counts = np.bincount(users, minlength=n_users)
    profiles = np.zeros((n_users, item_embs.shape[1]))
    scatter_add(profiles, users, item_embs[items])
    valid = counts > 0
    profiles[valid] /= counts[valid, None]
    return profiles, valid


def _softmax_inplace(beta: np.ndarray) -> np.ndarray:
    """Row-wise stabilized softmax, computed in place in `beta` (returned)."""
    beta -= beta.max(axis=1, keepdims=True)
    np.exp(beta, out=beta)
    beta /= beta.sum(axis=1, keepdims=True)
    return beta


@dataclass
class AttentionCache:
    """Forward intermediates needed by the backward pass."""

    q_user: np.ndarray
    q_item: np.ndarray
    k_user: np.ndarray
    k_item: np.ndarray
    s: np.ndarray
    qt: dict
    kt: dict
    alpha_c: dict
    alpha: np.ndarray
    values: np.ndarray


def attention_forward(
    gp: GeneratorParams,
    q_user: np.ndarray,
    q_item: np.ndarray,
    k_user: np.ndarray,
    k_item: np.ndarray,
    source_embs: np.ndarray,
    need_cache: bool = True,
) -> tuple[np.ndarray, AttentionCache | None]:
    """Batched dual-attention pass: rows of q_* are query users, rows of k_*
    and source_embs are the overlapping users. Returns (E', cache).

    The two channels run side by side (`run_pair`), each writing its linear
    maps and logits into buffers allocated here. need_cache=False skips the
    backward bookkeeping and mixes the channel weights in place; use it for
    consumption-only passes.
    """
    if k_user.shape[0] == 0:
        raise ValueError("attention needs at least one overlapping user")
    n_q, n_k = len(q_user), len(k_user)
    sq = np.sqrt(gp.d)
    inputs = {"user": (q_user, k_user), "item": (q_item, k_item)}
    qt = dict(zip(CHANNELS, np.empty((2, n_q, gp.d))))
    kt = dict(zip(CHANNELS, np.empty((2, n_k, gp.d))))
    alpha_c = dict(zip(CHANNELS, np.empty((2, n_q, n_k))))

    def channel(ch):
        q, k = inputs[ch]
        np.matmul(q, gp.wq(ch).T, out=qt[ch])
        qt[ch] += gp.bq(ch)
        np.matmul(k, gp.wk(ch).T, out=kt[ch])
        kt[ch] += gp.bk(ch)
        np.matmul(qt[ch], kt[ch].T, out=alpha_c[ch])
        alpha_c[ch] /= sq
        _softmax_inplace(alpha_c[ch])

    run_pair(lambda: channel("user"), lambda: channel("item"), cells=n_q * n_k)
    values = source_embs @ gp.wv.T + gp.bv
    if not need_cache:
        alpha = alpha_c["user"]
        alpha *= gp.gamma1
        ai = alpha_c["item"]
        ai *= 1.0 - gp.gamma1
        alpha += ai
        return alpha @ values, None
    alpha = gp.gamma1 * alpha_c["user"] + (1.0 - gp.gamma1) * alpha_c["item"]
    out = alpha @ values
    cache = AttentionCache(q_user, q_item, k_user, k_item, source_embs, qt, kt, alpha_c, alpha, values)
    return out, cache


def attention_backward(gp: GeneratorParams, cache: AttentionCache, d_out: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of sum(d_out * E') with respect to every GEN tensor.

    Query/key/source embeddings are treated as constants: during generator
    steps the MAIN partition is frozen, so their gradients are never applied.
    The two channels' chains run side by side (`run_pair`) in work buffers
    allocated here.
    """
    grads: dict[str, np.ndarray] = {}
    d_values = cache.alpha.T @ d_out
    grads["gen_wv"] = d_values.T @ cache.s
    grads["gen_bv"] = d_values.sum(axis=0)
    d_alpha = d_out @ cache.values.T
    n_q, n_k = d_alpha.shape
    sq = np.sqrt(gp.d)
    mix = {"user": gp.gamma1, "item": 1.0 - gp.gamma1}
    q_in = {"user": cache.q_user, "item": cache.q_item}
    k_in = {"user": cache.k_user, "item": cache.k_item}
    work = dict(zip(CHANNELS, np.empty((2, 2, n_q, n_k))))
    d_qt = dict(zip(CHANNELS, np.empty((2, n_q, gp.d))))
    d_kt = dict(zip(CHANNELS, np.empty((2, n_k, gp.d))))
    per_channel = {}

    def channel(ch):
        a = cache.alpha_c[ch]
        d_ac, d_beta = work[ch]
        # d_beta = a * (d_ac - (d_ac * a).sum(axis=1)), d_ac = mix * d_alpha
        np.multiply(mix[ch], d_alpha, out=d_ac)
        np.multiply(d_ac, a, out=d_beta)
        d_ac -= d_beta.sum(axis=1, keepdims=True)
        np.multiply(a, d_ac, out=d_beta)
        np.matmul(d_beta, cache.kt[ch], out=d_qt[ch])
        d_qt[ch] /= sq
        np.matmul(d_beta.T, cache.qt[ch], out=d_kt[ch])
        d_kt[ch] /= sq
        per_channel[ch] = {
            f"gen_wq_{ch}": d_qt[ch].T @ q_in[ch],
            f"gen_bq_{ch}": d_qt[ch].sum(axis=0),
            f"gen_wk_{ch}": d_kt[ch].T @ k_in[ch],
            f"gen_bk_{ch}": d_kt[ch].sum(axis=0),
        }

    run_pair(lambda: channel("user"), lambda: channel("item"), cells=n_q * n_k)
    for ch in CHANNELS:
        grads.update(per_channel[ch])
    return grads


def forward_users(
    gp: GeneratorParams,
    users: np.ndarray,
    cross: CrossDomainDataset,
    tgt_user_embs: np.ndarray,
    src_user_embs: np.ndarray,
    profiles: np.ndarray,
    valid: np.ndarray,
    need_cache: bool = True,
) -> tuple[np.ndarray, AttentionCache | None]:
    """Generate virtual source embeddings for the given target users."""
    users = np.asarray(users, dtype=np.int64)
    ov_t = cross.overlap_tgt
    ov_s = cross.overlap_src
    if len(ov_t) == 0:
        raise ValueError("attention needs at least one overlapping user")
    bad = users[~valid[users]]
    if len(bad):
        raise ValueError(f"users without item profiles: {bad[:5].tolist()}")
    if not valid[ov_t].all():
        raise ValueError("some overlapping users lack item profiles")
    return attention_forward(
        gp,
        tgt_user_embs[users],
        profiles[users],
        tgt_user_embs[ov_t],
        profiles[ov_t],
        src_user_embs[ov_s],
        need_cache=need_cache,
    )


def knn_generate(
    cross: CrossDomainDataset,
    target_embs: np.ndarray,
    source_embs: np.ndarray,
    users: np.ndarray,
    n_neighbors: int,
) -> np.ndarray:
    """Per row of `users`, the mean source embedding of its top-N overlapping
    users by cosine similarity of target embeddings; ties broken by ascending
    overlap index.
    """
    if n_neighbors < 1:
        raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")
    ov_t = cross.overlap_tgt
    if len(ov_t) == 0:
        raise ValueError("knn_generate needs a non-empty overlap set")
    target_embs = np.asarray(target_embs, dtype=np.float64)
    users = np.asarray(users, dtype=np.int64)
    keys = target_embs[ov_t]
    key_norms = np.linalg.norm(keys, axis=1)
    src = np.asarray(source_embs, dtype=np.float64)[cross.overlap_src]
    n = min(n_neighbors, len(ov_t))
    out = np.empty((len(users), src.shape[1]))
    block = max(1, _KNN_CELL_BUDGET // len(ov_t))
    for b0 in range(0, len(users), block):
        q = target_embs[users[b0 : b0 + block]]
        denom = np.linalg.norm(q, axis=1)[:, None] * key_norms
        cos = np.where(denom > 0, (q @ keys.T) / np.where(denom > 0, denom, 1.0), 0.0)
        top = top_columns(np.negative(cos, out=cos), n)
        out[b0 : b0 + block] = src[top].mean(axis=1)
    return out


def knn_generate_all(
    cross: CrossDomainDataset,
    target_embs: np.ndarray,
    source_embs: np.ndarray,
    n_neighbors: int,
) -> np.ndarray:
    """`knn_generate` rows for every non-overlapping target user, in
    `cross.target_nonoverlap` order."""
    return knn_generate(cross, target_embs, source_embs, cross.target_nonoverlap, n_neighbors)
