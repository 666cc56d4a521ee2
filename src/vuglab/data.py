"""Interaction-log ingestion and cross-domain dataset assembly.

Pipeline: load -> dedupe -> binarize -> build domain -> k-core filter ->
per-user split. Overlap between two domains is identified by exact
external-id equality.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

log = logging.getLogger(__name__)


class ParseError(ValueError):
    """Malformed interaction line; message carries the line number."""


@dataclass(frozen=True)
class InteractionRecord:
    user: str
    item: str
    rating: float
    timestamp: int | None = None


def detect_delimiter(line: str) -> str:
    if "\t" in line:
        return "\t"
    if "," in line:
        return ","
    raise ParseError("cannot detect delimiter (no tab or comma in first line)")


def load_interactions(path: str, delimiter: str | None = None) -> list[InteractionRecord]:
    """Read one interaction per line: user, item, rating[, timestamp].

    Delimiter is auto-detected from the first line unless given. Raises
    ParseError naming the offending line on malformed input.
    """
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            if delimiter is None:
                delimiter = detect_delimiter(line)
            fields = line.split(delimiter)
            if len(fields) < 3:
                raise ParseError(f"line {lineno}: expected >=3 fields, got {len(fields)}")
            user, item, rating_str = fields[0], fields[1], fields[2]
            if not user or not item:
                raise ParseError(f"line {lineno}: empty user or item id")
            try:
                rating = float(rating_str)
            except ValueError:
                raise ParseError(f"line {lineno}: bad rating {rating_str!r}") from None
            if not math.isfinite(rating):
                raise ParseError(f"line {lineno}: non-finite rating {rating_str!r}")
            timestamp = None
            if len(fields) >= 4 and fields[3] != "":
                try:
                    timestamp = int(fields[3])
                except ValueError:
                    raise ParseError(f"line {lineno}: bad timestamp {fields[3]!r}") from None
            records.append(InteractionRecord(user, item, rating, timestamp))
    return records


def dedupe(records: list[InteractionRecord]) -> list[InteractionRecord]:
    """Keep one record per (user, item): the most recent by timestamp when
    timestamps are present, otherwise the last occurrence. Output preserves
    first-appearance order of each pair.
    """
    best: dict[tuple[str, str], InteractionRecord] = {}
    order: list[tuple[str, str]] = []
    for rec in records:
        key = (rec.user, rec.item)
        if key not in best:
            order.append(key)
            best[key] = rec
        else:
            prev = best[key]
            if rec.timestamp is None or prev.timestamp is None:
                best[key] = rec
            elif rec.timestamp >= prev.timestamp:
                best[key] = rec
    return [best[k] for k in order]


def binarize(records: list[InteractionRecord], threshold: float = 3.0) -> list[InteractionRecord]:
    """Keep records with rating >= threshold as positives; drop the rest."""
    return [r for r in records if r.rating >= threshold]


def pair_columns(pairs: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The (user, item) int64 columns of a list of index pairs."""
    flat = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs))
    return flat[0::2], flat[1::2]


@dataclass
class DomainDataset:
    """One domain's users, items (dense-indexed), and positive interactions."""

    users: dict[str, int]
    items: dict[str, int]
    interactions: list[tuple[int, int]]
    adjacency: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.adjacency:
            self.adjacency = self._build_adjacency()

    def _build_adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(len(self.users))]
        for u, i in self.interactions:
            adj[u].append(i)
        for lst in adj:
            lst.sort()
        return adj

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_interactions(self) -> int:
        return len(self.interactions)

    @classmethod
    def from_records(cls, records: list[InteractionRecord]) -> "DomainDataset":
        """Build from deduplicated positive records; ids are densified in
        first-appearance order.
        """
        records = dedupe(records)
        users: dict[str, int] = {}
        items: dict[str, int] = {}
        interactions = []
        for rec in records:
            u = users.setdefault(rec.user, len(users))
            i = items.setdefault(rec.item, len(items))
            interactions.append((u, i))
        return cls(users=users, items=items, interactions=interactions)

    def user_ids(self) -> list[str]:
        """External user ids in index order."""
        out = [""] * len(self.users)
        for ext, idx in self.users.items():
            out[idx] = ext
        return out

    def item_ids(self) -> list[str]:
        out = [""] * len(self.items)
        for ext, idx in self.items.items():
            out[idx] = ext
        return out


def k_core_filter(ds: DomainDataset, k: int = 5) -> DomainDataset:
    """Iteratively drop users and items with fewer than k interactions until
    a fixed point, then re-densify indices (original order preserved).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    users, items = pair_columns(ds.interactions)
    while True:
        keep = (np.bincount(users)[users] >= k) & (np.bincount(items)[items] >= k)
        if keep.all():
            break
        users, items = users[keep], items[keep]
    live_u, users = np.unique(users, return_inverse=True)
    live_i, items = np.unique(items, return_inverse=True)
    user_ids = ds.user_ids()
    item_ids = ds.item_ids()
    # one int object per index, shared by every pair that holds it: a fresh
    # int per pair scatters the pairs over memory and slows each later pass
    u_obj = list(range(len(live_u)))
    i_obj = list(range(len(live_i)))
    return DomainDataset(
        users=dict(zip([user_ids[old] for old in live_u.tolist()], u_obj)),
        items=dict(zip([item_ids[old] for old in live_i.tolist()], i_obj)),
        interactions=list(
            zip(map(u_obj.__getitem__, users.tolist()), map(i_obj.__getitem__, items.tolist()))
        ),
    )


@dataclass
class SplitDataset:
    """Per-user partition of one domain's positives into train/valid/test."""

    train: list[tuple[int, int]]
    valid: list[tuple[int, int]]
    test: list[tuple[int, int]]
    ratios: tuple[float, float, float]
    n_users: int
    n_items: int
    n_skipped_users: int = 0

    def by_user(self, which: str) -> list[list[int]]:
        """Item lists per user for one part ('train', 'valid' or 'test')."""
        part = getattr(self, which)
        out: list[list[int]] = [[] for _ in range(self.n_users)]
        for u, i in part:
            out[u].append(i)
        return out


def split_per_user(
    ds: DomainDataset,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> SplitDataset:
    """Shuffle each user's positives with a seeded generator and cut by
    `ratios` = (train, valid, test). Valid/test sizes use floor rounding,
    the remainder goes to train, so small-history users stay trainable.
    """
    if any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must be non-negative and sum to 1, got {ratios}")
    rng = np.random.default_rng(seed)
    train, valid, test = [], [], []
    skipped = 0
    for u in range(ds.n_users):
        items = ds.adjacency[u]
        n = len(items)
        if n == 0:
            skipped += 1
            continue
        perm = rng.permutation(n)
        n_valid = int(n * ratios[1])
        n_test = int(n * ratios[2])
        n_train = n - n_valid - n_test
        for pos in perm[:n_train]:
            train.append((u, items[pos]))
        for pos in perm[n_train : n_train + n_valid]:
            valid.append((u, items[pos]))
        for pos in perm[n_train + n_valid :]:
            test.append((u, items[pos]))
    if skipped:
        log.warning("split_per_user: %d users with zero interactions skipped", skipped)
    return SplitDataset(
        train=train,
        valid=valid,
        test=test,
        ratios=ratios,
        n_users=ds.n_users,
        n_items=ds.n_items,
        n_skipped_users=skipped,
    )


@dataclass
class CrossDomainDataset:
    """Two domains plus the overlapping-user registry linking them.

    `overlap` holds (source_user_index, target_user_index) pairs, injective
    in both coordinates; `target_nonoverlap` is every other target user.
    """

    source: DomainDataset
    target: DomainDataset
    overlap: list[tuple[int, int]]
    target_nonoverlap: list[int]

    @property
    def overlap_src(self) -> np.ndarray:
        return np.asarray([s for s, _ in self.overlap], dtype=np.int64)

    @property
    def overlap_tgt(self) -> np.ndarray:
        return np.asarray([t for _, t in self.overlap], dtype=np.int64)

    def src_of_tgt(self) -> np.ndarray:
        """Per target user: source index if overlapping, else -1."""
        out = np.full(self.target.n_users, -1, dtype=np.int64)
        for s, t in self.overlap:
            out[t] = s
        return out


def build_cross(source: DomainDataset, target: DomainDataset) -> CrossDomainDataset:
    """Identify overlap by exact external-id equality; order by target index."""
    shared = set(source.users) & set(target.users)
    overlap = sorted(
        ((source.users[ext], target.users[ext]) for ext in shared),
        key=lambda p: p[1],
    )
    in_overlap = {t for _, t in overlap}
    nonoverlap = [t for t in range(target.n_users) if t not in in_overlap]
    return CrossDomainDataset(
        source=source, target=target, overlap=overlap, target_nonoverlap=nonoverlap
    )


def dataset_stats(ds: DomainDataset, domain: str, n_overlap: int) -> dict:
    """Statistics row shaped like the usual preprocessing summary table."""
    return {
        "domain": domain,
        "n_users": ds.n_users,
        "n_items": ds.n_items,
        "n_interactions": ds.n_interactions,
        "overlap_ratio": (n_overlap / ds.n_users) if ds.n_users else 0.0,
    }
