"""Interaction-log ingestion and cross-domain dataset assembly.

Pipeline: load -> dedupe -> binarize -> build domain -> k-core filter ->
per-user split. Overlap between two domains is identified by exact
external-id equality.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

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


@dataclass
class DomainDataset:
    """One domain's users, items (dense-indexed), and positive interactions.

    `interactions` is an int64 (n, 2) array of (user, item) rows.
    """

    users: dict[str, int]
    items: dict[str, int]
    interactions: np.ndarray

    def __post_init__(self):
        self.interactions = np.asarray(self.interactions, dtype=np.int64).reshape(-1, 2)

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
        """Build from deduplicated positive records (run `dedupe` first: a
        repeated pair becomes a repeated row); ids are densified and rows
        kept in first-appearance order.
        """
        users: dict[str, int] = {}
        items: dict[str, int] = {}
        u = np.array([users.setdefault(r.user, len(users)) for r in records], dtype=np.int64)
        i = np.array([items.setdefault(r.item, len(items)) for r in records], dtype=np.int64)
        return cls(users=users, items=items, interactions=np.column_stack((u, i)))

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


def _keep_rows(ds: DomainDataset, rows: np.ndarray) -> DomainDataset:
    """The given rows of `ds.interactions` (row order kept); users and items
    left without a row are dropped and the rest re-densified in their old
    index order.
    """
    pairs = ds.interactions[rows]
    live_u, users = np.unique(pairs[:, 0], return_inverse=True)
    live_i, items = np.unique(pairs[:, 1], return_inverse=True)
    user_ids = ds.user_ids()
    item_ids = ds.item_ids()
    return DomainDataset(
        users={user_ids[old]: new for new, old in enumerate(live_u.tolist())},
        items={item_ids[old]: new for new, old in enumerate(live_i.tolist())},
        interactions=np.column_stack((users, items)),
    )


def k_core_filter(ds: DomainDataset, k: int = 5) -> DomainDataset:
    """Iteratively drop users and items with fewer than k interactions until
    a fixed point, then re-densify indices (original order preserved).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows = np.arange(ds.n_interactions)
    while True:
        users, items = ds.interactions[rows].T
        keep = (np.bincount(users)[users] >= k) & (np.bincount(items)[items] >= k)
        if keep.all():
            return _keep_rows(ds, rows)
        rows = rows[keep]


def subsample_users(ds: DomainDataset, n: int) -> DomainDataset:
    """Keep the first n users (by dense index) and their interactions."""
    if n >= ds.n_users:
        return ds
    return _keep_rows(ds, ds.interactions[:, 0] < n)


@dataclass
class SplitDataset:
    """Per-user partition of one domain's positives into train/valid/test,
    each an int64 (n, 2) array of (user, item) rows.
    """

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    ratios: tuple[float, float, float]
    n_users: int
    n_items: int
    n_skipped_users: int = 0

    def __post_init__(self):
        for part in ("train", "valid", "test"):
            setattr(self, part, np.asarray(getattr(self, part), dtype=np.int64).reshape(-1, 2))

    def by_user(self, which: str) -> list[list[int]]:
        """Item lists per user for one part ('train', 'valid' or 'test')."""
        out: list[list[int]] = [[] for _ in range(self.n_users)]
        for u, i in getattr(self, which).tolist():
            out[u].append(i)
        return out


def split_per_user(
    ds: DomainDataset,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> SplitDataset:
    """Shuffle each user's positives (sorted by item) with a seeded
    generator and cut by `ratios` = (train, valid, test). Valid/test sizes
    use floor rounding, the remainder goes to train, so small-history users
    stay trainable. Each part holds its rows by ascending user, each user's
    in shuffled order.
    """
    if any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must be non-negative and sum to 1, got {ratios}")
    rng = np.random.default_rng(seed)
    pairs = ds.interactions[np.lexsort((ds.interactions[:, 1], ds.interactions[:, 0]))]
    counts = np.bincount(pairs[:, 0], minlength=ds.n_users)
    starts = np.cumsum(counts) - counts
    order = np.empty(len(pairs), dtype=np.int64)
    for s, n in zip(starts.tolist(), counts.tolist()):
        if n:
            order[s : s + n] = s + rng.permutation(n)
    pairs = pairs[order]
    users = pairs[:, 0]
    # part 0/1/2 (train/valid/test) from each row's position in its user's
    # shuffled list
    pos = np.arange(len(pairs)) - starts[users]
    n_valid = (counts * ratios[1]).astype(np.int64)
    n_test = (counts * ratios[2]).astype(np.int64)
    part = (pos >= (counts - n_valid - n_test)[users]).astype(np.int8)
    part += pos >= (counts - n_test)[users]
    skipped = int(np.count_nonzero(counts == 0))
    if skipped:
        log.warning("split_per_user: %d users with zero interactions skipped", skipped)
    return SplitDataset(
        train=pairs[part == 0],
        valid=pairs[part == 1],
        test=pairs[part == 2],
        ratios=ratios,
        n_users=ds.n_users,
        n_items=ds.n_items,
        n_skipped_users=skipped,
    )


@dataclass
class CrossDomainDataset:
    """Two domains plus the overlapping-user registry linking them.

    `overlap` is an int64 (n, 2) array of (source_user_index,
    target_user_index) rows sorted by target index, injective in both
    columns; `target_nonoverlap` holds every other target user, ascending.
    """

    source: DomainDataset
    target: DomainDataset
    overlap: np.ndarray
    target_nonoverlap: np.ndarray

    @property
    def overlap_src(self) -> np.ndarray:
        return self.overlap[:, 0]

    @property
    def overlap_tgt(self) -> np.ndarray:
        return self.overlap[:, 1]

    def src_of_tgt(self) -> np.ndarray:
        """Per target user: source index if overlapping, else -1."""
        out = np.full(self.target.n_users, -1, dtype=np.int64)
        out[self.overlap_tgt] = self.overlap_src
        return out


def build_cross(source: DomainDataset, target: DomainDataset) -> CrossDomainDataset:
    """Identify overlap by exact external-id equality; order by target index."""
    overlap = np.array(
        [(source.users[ext], t) for ext, t in target.users.items() if ext in source.users],
        dtype=np.int64,
    ).reshape(-1, 2)
    overlap = overlap[np.argsort(overlap[:, 1])]
    in_overlap = np.zeros(target.n_users, dtype=bool)
    in_overlap[overlap[:, 1]] = True
    return CrossDomainDataset(
        source=source,
        target=target,
        overlap=overlap,
        target_nonoverlap=np.flatnonzero(~in_overlap),
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
