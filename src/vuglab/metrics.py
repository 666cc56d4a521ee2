"""Top-K ranking metrics, group decomposition, and the group-gap measure.

Evaluation is full ranking: every target item is a candidate except the
user's train positives. Validation positives stay in the candidate pool.

`rank_items`, `hit_rate_at_k` and `ndcg_at_k` define the metrics for one
user. `evaluate` computes the same values for all users at once, in blocks
of `params.block_rows(n_items)` users, so its working memory is
bounded by the block and by users x max(ks), never by users x items. Per
block it scores the users against the negated item table in one matmul,
which gives the negated scores `top_columns` ranks on; then the block's two
row halves run side by side (`params.run_pair`), each masking its users'
train positives, taking the top max(ks) in (score descending, index
ascending) order with `top_columns` (the ascending-index tie-break of
`rank_items`) and looking its items up among the sorted
`row * n_items + item` keys of the relevant pairs. Every step after the
matmul works row by row, so the split does not change a bit. DCG and the
ideal DCG are summed position by position with `np.cumsum`, as the scalar
loops do, so per-user values are bitwise equal to the single-user
definitions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import CrossDomainDataset, SplitDataset
from .model import TGT_ITEM, CdrModel, _sorted_distinct
from .params import block_rows, run_pair

METRICS = ("hr", "ndcg")


def hit_rate_at_k(ranked, relevant: set[int], K: int) -> int:
    """1 if any relevant item appears in the first K positions, else 0."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    for item in list(ranked)[:K]:
        if int(item) in relevant:
            return 1
    return 0


def ndcg_at_k(ranked, relevant: set[int], K: int) -> float:
    """DCG over hit positions (gain 1, discount 1/log2(p+1)), normalized by
    the ideal DCG of min(K, |relevant|) hits at the top.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    dcg = 0.0
    for p, item in enumerate(list(ranked)[:K], start=1):
        if int(item) in relevant:
            dcg += 1.0 / np.log2(p + 1)
    ideal = sum(1.0 / np.log2(p + 1) for p in range(1, min(K, len(relevant)) + 1))
    return dcg / ideal


def ugf(metric_overlap, metric_nonoverlap) -> float:
    """Absolute difference of the two groups' mean metric values."""
    if len(metric_overlap) == 0:
        raise ValueError("overlap group is empty")
    if len(metric_nonoverlap) == 0:
        raise ValueError("nonoverlap group is empty")
    return abs(float(np.mean(metric_overlap)) - float(np.mean(metric_nonoverlap)))


def rank_items(scores: np.ndarray, exclude) -> np.ndarray:
    """Candidate items (all except `exclude`) ordered by descending score,
    ties broken by ascending item index.
    """
    mask = np.ones(len(scores), dtype=bool)
    excl = np.asarray(list(exclude), dtype=np.int64)
    if len(excl):
        mask[excl] = False
    cand = np.flatnonzero(mask)
    order = np.lexsort((cand, -scores[cand]))
    return cand[order]


@dataclass
class EvalReport:
    """Group-decomposed metric table plus user counts.

    One row per (metric, K): overall mean, per-group means, and the absolute
    group gap. Group fields are None when the dataset has no such users.
    """

    ks: tuple[int, ...]
    rows: list[dict] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def value(self, metric: str, k: int, field_name: str = "all"):
        for row in self.rows:
            if row["metric"] == metric and row["K"] == k:
                return row[field_name]
        raise KeyError(f"no row for ({metric}, {k})")

    def to_dict(self) -> dict:
        return {"counts": self.counts, "ks": list(self.ks), "rows": self.rows}

    def json_str(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _by_row(users: np.ndarray, items: np.ndarray, row_of: np.ndarray):
    """(row, item) of the pairs whose user has an evaluation row, sorted by
    row so each block's pairs are one slice.
    """
    rows = row_of[users]
    keep = rows >= 0
    rows, items = rows[keep], items[keep]
    order = np.argsort(rows, kind="stable")
    return rows[order], items[order]


def _is_relevant(rel_key: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which `row * n_items + item` keys are in the sorted, distinct,
    non-empty `rel_key`."""
    pos = np.searchsorted(rel_key, keys)
    return rel_key[np.minimum(pos, len(rel_key) - 1)] == keys


# top_columns bounds each row's kk-th key by the kk-th smallest minimum of
# _GROUPS disjoint column groups, and sorts at most _GROUPS * kk candidates
_GROUPS = 8


def top_columns(key: np.ndarray, kk: int) -> np.ndarray:
    """Per row, the kk columns of smallest key in (key, column) order, or
    all columns when kk >= key.shape[1]: exactly
    `np.argsort(key, axis=1, kind="stable")[:, :kk]`, NaN included, without
    the full sort. On key = -score this is the ascending-index tie-break of
    `rank_items`; evaluate, the KNN generator and `synth_cdr` all take
    their top-N here.

    With n >= 8 kk columns, each row gets the minima of its n // 8 disjoint
    groups of 8 columns (j, j + n // 8, ..., j + 7 (n // 8)) and tau, the
    kk-th smallest of those minima. kk groups each hold a key <= tau, so
    every key of the truncated argsort, ties at the cut included, is
    <= tau. A row's keys <= tau, in column order, are its candidates; a
    stable sort of them gives the top. Rows with fewer than kk candidates
    (tau is NaN) or more than 8 kk (mass ties), and every row when
    n < 8 kk, take the full stable argsort.
    """
    m, n = key.shape
    if n < _GROUPS * kk:
        return _argsort_top(key, kk)
    mins = key[:, : n - n % _GROUPS].reshape(m, _GROUPS, n // _GROUPS).min(axis=1)
    tau = np.partition(mins, kk - 1, axis=1)[:, kk - 1 : kk]
    flat = np.flatnonzero(key <= tau)
    row, col = np.divmod(flat, n)
    count = np.bincount(row, minlength=m)
    fits = (count >= kk) & (count <= _GROUPS * kk)
    width = count[fits].max(initial=kk)
    # each candidate's cell in its row's column-ordered run of `width` cells
    dst = np.arange(len(flat)) + ((np.cumsum(fits) - 1) * width - (np.cumsum(count) - count))[row]
    keep = fits[row]
    dst = dst[keep]
    cand = np.full((np.count_nonzero(fits), width), np.inf)
    cols = np.zeros(cand.shape, dtype=np.int64)
    cand.ravel()[dst] = key.ravel()[flat[keep]]
    cols.ravel()[dst] = col[keep]
    top = np.empty((m, kk), dtype=np.int64)
    top[fits] = np.take_along_axis(cols, np.argsort(cand, axis=1, kind="stable")[:, :kk], axis=1)
    if not fits.all():
        top[~fits] = _argsort_top(key[~fits], kk)
    return top


def _argsort_top(key: np.ndarray, kk: int) -> np.ndarray:
    """The top_columns contract itself, by a full stable sort of each row."""
    return np.argsort(key, axis=1, kind="stable")[:, :kk]


def evaluate(
    model: CdrModel,
    cross: CrossDomainDataset,
    split: SplitDataset,
    ks: tuple[int, ...] = (10, 20),
    virtual_sources: np.ndarray | None = None,
    part: str = "test",
) -> EvalReport:
    """Full-ranking evaluation of `part` positives for every user that has
    any, grouped into overlapping vs non-overlapping target users.

    Users are ranked in blocks (see the module docstring); a user whose
    top-N reaches a train item or a +inf or NaN key is ranked by
    `rank_items` itself.
    """
    if any(k < 1 for k in ks):
        raise ValueError("all K values must be >= 1")
    rel_u, rel_i = getattr(split, part).T
    users = _sorted_distinct(rel_u)
    if not len(users):
        raise ValueError(f"no user has {part} positives")
    row_of = np.full(split.n_users, -1, dtype=np.int64)
    row_of[users] = np.arange(len(users))
    tr_row, tr_i = _by_row(*split.train.T, row_of)

    # scores come out negated, the top_columns key: negating a matmul's
    # operand negates every rounded sum exactly, up to the sign of zero
    neg_items = -model.store.get(TGT_ITEM)
    n_items = neg_items.shape[0]
    kk = min(max(ks), n_items)
    # sorted, distinct (row, item) keys of the relevant pairs
    rel_key = _sorted_distinct(row_of[rel_u] * n_items + rel_i)
    n_rel = np.bincount(rel_key // n_items, minlength=len(users))
    block = block_rows(n_items)
    hits = np.zeros((len(users), kk), dtype=bool)
    odd = np.empty(block, dtype=bool)
    for b0 in range(0, len(users), block):
        b1 = min(b0 + block, len(users))
        q, _ = model.query_rows(users[b0:b1], virtual_sources)
        key = q @ neg_items.T

        def rank_half(h0, h1):
            # rows b0 + h0 .. b0 + h1; every step works row by row
            sub = key[h0:h1]
            t0, t1 = np.searchsorted(tr_row, (b0 + h0, b0 + h1))
            sub[tr_row[t0:t1] - (b0 + h0), tr_i[t0:t1]] = np.inf
            top = top_columns(sub, kk)
            valid = np.take_along_axis(sub, top, axis=1) < np.inf
            np.logical_not(valid.all(axis=1), out=odd[h0:h1])
            rows = np.arange(b0 + h0, b0 + h1)[:, None]
            hits[b0 + h0 : b0 + h1] = _is_relevant(rel_key, rows * n_items + top) & valid

        mid = (b1 - b0) // 2
        run_pair(lambda: rank_half(0, mid), lambda: rank_half(mid, b1 - b0), cells=key.size)
        # a top-N of keys below +inf is the reference ranking's own top-N;
        # for the other rows it decides, and the half left no hit past
        # len(ranked), whose keys are all +inf or NaN
        for r in np.flatnonzero(odd[: b1 - b0]):
            t0, t1 = np.searchsorted(tr_row, (b0 + r, b0 + r + 1))
            ranked = rank_items(-key[r], tr_i[t0:t1])[:kk]
            hits[b0 + r, : len(ranked)] = _is_relevant(rel_key, (b0 + r) * n_items + ranked)
        # free this block's scores before the next block's matmul allocates its own
        del key

    # discount 1/log2(p+1) at position p; sequential sums over positions, as
    # the scalar loops accumulate them
    disc = 1.0 / np.log2(np.arange(2, kk + 2))
    dcg = np.cumsum(np.where(hits, disc, 0.0), axis=1)
    ideal = np.cumsum(disc)
    vals = {}
    for k in ks:
        vals[("hr", k)] = hits[:, : min(k, kk)].any(axis=1).astype(np.float64)
        vals[("ndcg", k)] = dcg[:, min(k, kk) - 1] / ideal[np.minimum(k, n_rel) - 1]
    is_ov = np.isin(users, cross.overlap_tgt)

    has_both = is_ov.any() and (~is_ov).any()
    rows = []
    for m in METRICS:
        for k in ks:
            v = vals[(m, k)]
            row = {
                "metric": m,
                "K": k,
                "all": float(np.mean(v)),
                "overlap": float(np.mean(v[is_ov])) if is_ov.any() else None,
                "nonoverlap": float(np.mean(v[~is_ov])) if (~is_ov).any() else None,
                "ugf": ugf(v[is_ov], v[~is_ov]) if has_both else None,
            }
            rows.append(row)
    counts = {
        "n_users_evaluated": len(users),
        "n_overlap": int(is_ov.sum()),
        "n_nonoverlap": int((~is_ov).sum()),
        "n_skipped": split.n_users - len(users),
    }
    return EvalReport(ks=tuple(ks), rows=rows, counts=counts)
