"""Top-K ranking metrics, group decomposition, and the group-gap measure.

Evaluation is full ranking: every target item is a candidate except the
user's train positives. Validation positives stay in the candidate pool.

`rank_items`, `hit_rate_at_k` and `ndcg_at_k` define the metrics for one
user. `evaluate` computes the same values for all users at once, in blocks
of max(1, _EVAL_CELL_BUDGET // n_items) users, so its working memory is
bounded by the block and by users x max(ks), never by users x items. Per
block it scores the users against every item, masks their train positives,
takes the top max(ks) with `np.argpartition`, refills ties at the cut with
the lowest item indices (the ascending-index tie-break of `rank_items`),
orders the top by (score descending, index ascending), and sums DCG and the
ideal DCG position by position with `np.cumsum`, as the scalar loops do, so
per-user values are bitwise equal to the single-user definitions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import CrossDomainDataset, SplitDataset
from .model import TGT_ITEM, CdrModel

METRICS = ("hr", "ndcg")

# evaluate ranks users in blocks of max(1, this // n_items) rows, so the
# score matrix and its top-K work arrays stay near this many cells
_EVAL_CELL_BUDGET = 1 << 20


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


def top_columns(key: np.ndarray, kk: int) -> np.ndarray:
    """Per row, the kk columns of smallest key in (key, column) order, or
    all columns when kk >= key.shape[1]: for keys without NaN, exactly
    `np.argsort(key, axis=1, kind="stable")[:, :kk]` without the full
    sort. On key = -score this is the ascending-index tie-break of
    `rank_items`; evaluate, the KNN generator and `synth_cdr` all take
    their top-N here.
    """
    n = key.shape[1]
    if kk < n:
        top = np.argpartition(key, kk - 1, axis=1)[:, :kk]
        kth = np.take_along_axis(key, top[:, kk - 1 :], axis=1)
        # rows whose k-th key is shared by more columns than fit: argpartition
        # chose among them arbitrarily, so refill with the lowest indices
        fix = np.flatnonzero(np.count_nonzero(key <= kth, axis=1) > kk)
        sub, t = key[fix], kth[fix]
        below = sub < t
        tied = sub == t
        need = kk - np.count_nonzero(below, axis=1)
        take = below | (tied & (np.cumsum(tied, axis=1) <= need[:, None]))
        top[fix] = np.nonzero(take)[1].reshape(len(fix), kk)
    else:
        top = np.broadcast_to(np.arange(n), key.shape)
    order = np.lexsort((top, np.take_along_axis(key, top, axis=1)), axis=1)
    return np.take_along_axis(top, order, axis=1)


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
    scores include a non-finite value is ranked by `rank_items` itself.
    """
    if any(k < 1 for k in ks):
        raise ValueError("all K values must be >= 1")
    rel_u, rel_i = getattr(split, part).T
    users = np.unique(rel_u)
    if not len(users):
        raise ValueError(f"no user has {part} positives")
    row_of = np.full(split.n_users, -1, dtype=np.int64)
    row_of[users] = np.arange(len(users))
    rel_row, rel_i = _by_row(rel_u, rel_i, row_of)
    tr_row, tr_i = _by_row(*split.train.T, row_of)

    item_emb = model.store.get(TGT_ITEM)
    n_items = item_emb.shape[0]
    kk = min(max(ks), n_items)
    block = max(1, _EVAL_CELL_BUDGET // n_items)
    hits = np.zeros((len(users), kk), dtype=bool)
    n_rel = np.zeros(len(users), dtype=np.int64)
    for b0 in range(0, len(users), block):
        b1 = min(b0 + block, len(users))
        q, _ = model.query_rows(users[b0:b1], virtual_sources)
        key = q @ item_emb.T
        np.negative(key, out=key)
        odd = np.flatnonzero(~np.isfinite(key).all(axis=1))
        t0, t1 = np.searchsorted(tr_row, (b0, b1))
        key[tr_row[t0:t1] - b0, tr_i[t0:t1]] = np.inf
        top = top_columns(key, kk)
        valid = np.take_along_axis(key, top, axis=1) < np.inf
        for r in odd:  # non-finite scores: the reference ranking decides
            ranked = rank_items(-key[r], tr_i[t0:t1][tr_row[t0:t1] == b0 + r])[:kk]
            top[r, : len(ranked)] = ranked
            valid[r] = np.arange(kk) < len(ranked)
        r0, r1 = np.searchsorted(rel_row, (b0, b1))
        relevant = np.zeros(key.shape, dtype=bool)
        relevant[rel_row[r0:r1] - b0, rel_i[r0:r1]] = True
        hits[b0:b1] = np.take_along_axis(relevant, top, axis=1) & valid
        n_rel[b0:b1] = np.count_nonzero(relevant, axis=1)

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
