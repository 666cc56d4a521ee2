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

# the two attention channels, in the order of axis 0 of every stacked array
CHANNELS = ("user", "item")

# knn_generate ranks query users in blocks of max(1, this // n_overlap) rows
_KNN_CELL_BUDGET = 1 << 20

# the value map (d, d) and bias (d,), then the query and key maps (2, d, d)
# and biases (2, d) with one slice per channel
GEN_TENSORS = ("gen_wv", "gen_bv", "gen_wq", "gen_bq", "gen_wk", "gen_bk")
_STACKED = GEN_TENSORS[2:]  # the per-channel tensors


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
    def create(cls, store: ParameterStore, d: int, gamma1: float = 0.5) -> "GeneratorParams":
        """Register GEN tensors. Matrices start at identity, biases at zero:
        the untrained generator then reduces to similarity-weighted averaging
        of raw source embeddings.
        """
        eye, biases = np.eye(d), np.zeros((2, d))
        stacked = np.stack([eye, eye])
        for name, value in zip(GEN_TENSORS, (eye, np.zeros(d), stacked, biases, stacked, biases)):
            store.add(name, value, GEN)
        return cls(store=store, d=d, gamma1=gamma1)


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
    """Forward intermediates needed by the backward pass. `queries`, `keys`,
    `qt`, `kt` and `alpha_c` hold one slice per channel on axis 0."""

    queries: np.ndarray
    keys: np.ndarray
    s: np.ndarray
    qt: np.ndarray
    kt: np.ndarray
    alpha_c: np.ndarray
    alpha: np.ndarray
    values: np.ndarray


def attention_forward(
    gp: GeneratorParams,
    queries: np.ndarray,
    keys: np.ndarray,
    source_embs: np.ndarray,
    need_cache: bool = True,
) -> tuple[np.ndarray, AttentionCache | None]:
    """Batched dual-attention pass. `queries` (2, Q, d) and `keys` (2, N, d)
    hold each channel's query-user and overlapping-user rows, in `CHANNELS`
    order; rows of `source_embs` are the overlapping users. Returns
    (E', cache).

    The two channels run side by side (`run_pair`), each writing its slice
    of the linear maps and logits allocated here. need_cache=False skips the
    backward bookkeeping and mixes the channel weights in place; use it for
    consumption-only passes.
    """
    n_q, n_k = queries.shape[1], keys.shape[1]
    if n_k == 0:
        raise ValueError("attention needs at least one overlapping user")
    sq = np.sqrt(gp.d)
    wq, bq, wk, bk = (gp.store.get(name) for name in _STACKED)
    qt = np.empty((2, n_q, gp.d))
    kt = np.empty((2, n_k, gp.d))
    alpha_c = np.empty((2, n_q, n_k))

    def channel(c):
        np.matmul(queries[c], wq[c].T, out=qt[c])
        qt[c] += bq[c]
        np.matmul(keys[c], wk[c].T, out=kt[c])
        kt[c] += bk[c]
        np.matmul(qt[c], kt[c].T, out=alpha_c[c])
        alpha_c[c] /= sq
        _softmax_inplace(alpha_c[c])

    run_pair(lambda: channel(0), lambda: channel(1), cells=n_q * n_k)
    values = source_embs @ gp.store.get("gen_wv").T + gp.store.get("gen_bv")
    if not need_cache:
        alpha, ai = alpha_c
        alpha *= gp.gamma1
        ai *= 1.0 - gp.gamma1
        alpha += ai
        return alpha @ values, None
    alpha = gp.gamma1 * alpha_c[0] + (1.0 - gp.gamma1) * alpha_c[1]
    out = alpha @ values
    return out, AttentionCache(queries, keys, source_embs, qt, kt, alpha_c, alpha, values)


def attention_backward(gp: GeneratorParams, cache: AttentionCache, d_out: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of sum(d_out * E') with respect to every GEN tensor.

    Query/key/source embeddings are treated as constants: during generator
    steps the MAIN partition is frozen, so their gradients are never applied.
    The two channels' chains run side by side (`run_pair`) in work buffers
    allocated here, each writing its slice of the stacked gradients.
    """
    grads = {name: np.empty_like(gp.store.get(name)) for name in _STACKED}
    g_wq, g_bq, g_wk, g_bk = grads.values()
    d_values = cache.alpha.T @ d_out
    grads["gen_wv"] = d_values.T @ cache.s
    grads["gen_bv"] = d_values.sum(axis=0)
    d_alpha = d_out @ cache.values.T
    n_q, n_k = d_alpha.shape
    sq = np.sqrt(gp.d)
    mix = (gp.gamma1, 1.0 - gp.gamma1)
    work = np.empty((2, 2, n_q, n_k))
    d_qt = np.empty((2, n_q, gp.d))
    d_kt = np.empty((2, n_k, gp.d))

    def channel(c):
        a = cache.alpha_c[c]
        d_ac, d_beta = work[c]
        # d_beta = a * (d_ac - (d_ac * a).sum(axis=1)), d_ac = mix * d_alpha
        np.multiply(mix[c], d_alpha, out=d_ac)
        np.multiply(d_ac, a, out=d_beta)
        d_ac -= d_beta.sum(axis=1, keepdims=True)
        np.multiply(a, d_ac, out=d_beta)
        np.matmul(d_beta, cache.kt[c], out=d_qt[c])
        d_qt[c] /= sq
        np.matmul(d_beta.T, cache.qt[c], out=d_kt[c])
        d_kt[c] /= sq
        np.matmul(d_qt[c].T, cache.queries[c], out=g_wq[c])
        np.sum(d_qt[c], axis=0, out=g_bq[c])
        np.matmul(d_kt[c].T, cache.keys[c], out=g_wk[c])
        np.sum(d_kt[c], axis=0, out=g_bk[c])

    run_pair(lambda: channel(0), lambda: channel(1), cells=n_q * n_k)
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
    """Generate virtual source embeddings for the given target users: the
    user channel reads target user rows, the item channel item profiles."""
    users = np.asarray(users, dtype=np.int64)
    ov_t = cross.overlap_tgt
    if len(ov_t) == 0:
        raise ValueError("attention needs at least one overlapping user")
    bad = users[~valid[users]]
    if len(bad):
        raise ValueError(f"users without item profiles: {bad[:5].tolist()}")
    if not valid[ov_t].all():
        raise ValueError("some overlapping users lack item profiles")
    queries = np.empty((2, len(users), gp.d))
    keys = np.empty((2, len(ov_t), gp.d))
    for c, table in enumerate((tgt_user_embs, profiles)):
        np.take(table, users, axis=0, out=queries[c])
        np.take(table, ov_t, axis=0, out=keys[c])
    return attention_forward(
        gp, queries, keys, src_user_embs[cross.overlap_src], need_cache=need_cache
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
