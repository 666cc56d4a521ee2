"""Interaction-log ingestion and cross-domain dataset assembly.

Pipeline: load -> dedupe -> binarize -> build domain -> k-core filter ->
per-user split. Up to the domain build the rows are held as columns
(`Interactions`), from there as int64 (user, item) arrays. Overlap between
two domains is identified by exact external-id equality.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from itertools import count, repeat

import numpy as np

log = logging.getLogger(__name__)


class ParseError(ValueError):
    """Malformed interaction line; message carries the line number."""


@dataclass
class Interactions:
    """Interaction rows as columns. `users` and `items` are int64 codes
    into `user_ids` and `item_ids`, the distinct ids in order of first
    appearance; `ratings` is float64, and `timestamps` is int64 with 0
    where `has_timestamp` is False. `len()` is the row count.
    """

    user_ids: list[str]
    item_ids: list[str]
    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    timestamps: np.ndarray
    has_timestamp: np.ndarray

    def __len__(self) -> int:
        return len(self.users)

    @classmethod
    def from_rows(cls, rows) -> "Interactions":
        """Columns of (user, item, rating[, timestamp]) tuples; a timestamp
        of None is missing.
        """
        rows = [tuple(r) + (None,) * (4 - len(r)) for r in rows]
        users, items, ratings, stamps = zip(*rows) if rows else ((),) * 4
        user_index: dict[str, int] = {}
        item_index: dict[str, int] = {}
        users, items = _codes(user_index, users), _codes(item_index, items)
        return cls(
            list(user_index),
            list(item_index),
            users,
            items,
            np.array(ratings, dtype=np.float64),
            np.array([0 if t is None else t for t in stamps], dtype=np.int64),
            np.array([t is not None for t in stamps], dtype=bool),
        )

    def take(self, rows: np.ndarray) -> "Interactions":
        """The given rows (indices or a boolean mask), same id lists."""
        return Interactions(
            self.user_ids,
            self.item_ids,
            self.users[rows],
            self.items[rows],
            self.ratings[rows],
            self.timestamps[rows],
            self.has_timestamp[rows],
        )


def _codes(index: dict[str, int], ids) -> np.ndarray:
    """Each id's number in `index`, after numbering the ids it lacks from
    len(index) on, in order of first appearance.
    """
    codes = np.fromiter(map(index.get, ids, repeat(-1)), np.int64, len(ids))
    new = np.flatnonzero(codes < 0).tolist()
    if new:
        fresh = list(map(ids.__getitem__, new))
        index.update(zip(dict.fromkeys(fresh), count(len(index))))
        codes[new] = np.fromiter(map(index.__getitem__, fresh), np.int64, len(fresh))
    return codes


def detect_delimiter(line: str) -> str:
    if "\t" in line:
        return "\t"
    if "," in line:
        return ","
    raise ParseError("cannot detect delimiter (no tab or comma in first line)")


_INT64 = np.iinfo(np.int64)

# load_interactions reads its file this many characters at a time: a
# chunk's strings then stay in the CPU caches while they are parsed, which
# keeps the load as fast as one pass over the whole text (chunks of 2^20
# characters were about 10% slower)
_CHUNK_CHARS = 1 << 16

# the "surrogateescape" error handler decodes each byte that is not UTF-8
# to one of these code points, which valid UTF-8 never decodes to
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _raise_first_bad_line(path: str):
    """Raise ParseError for the first malformed line of `path`, checking
    each line in order: UTF-8, the delimiter (on the first non-blank line),
    then its fields: count, ids, rating, timestamp. Returns if every line is
    well formed.
    """
    delimiter = None
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            bad = _ESCAPED_BYTE.search(line)
            if bad:
                raise ParseError(
                    f"line {lineno}: byte {ord(bad[0]) - 0xDC00:#04x} is not UTF-8 (in {path})"
                )
            delimiter = delimiter or detect_delimiter(line)
            fields = line.split(delimiter)
            if len(fields) < 3:
                raise ParseError(f"line {lineno}: expected >=3 fields, got {len(fields)}")
            if not fields[0] or not fields[1]:
                raise ParseError(f"line {lineno}: empty user or item id")
            try:
                rating = float(fields[2])
            except ValueError:
                raise ParseError(f"line {lineno}: bad rating {fields[2]!r}") from None
            if not math.isfinite(rating):
                raise ParseError(f"line {lineno}: non-finite rating {fields[2]!r}")
            if len(fields) >= 4 and fields[3] != "":
                try:
                    timestamp = int(fields[3])
                except ValueError:
                    raise ParseError(f"line {lineno}: bad timestamp {fields[3]!r}") from None
                if not _INT64.min <= timestamp <= _INT64.max:
                    raise ParseError(
                        f"line {lineno}: timestamp out of range {fields[3]!r} (must fit in int64)"
                    )


def _parse_lines(lines: list[str], delimiter: str) -> tuple:
    """Columns of non-blank `lines`: user and item id lists, then float64
    ratings, int64 timestamps and the has-timestamp mask. Raises
    ValueError or OverflowError on a malformed line, without naming it.
    """
    n = len(lines)
    n_fields = 1 + np.fromiter(map(str.count, lines, repeat(delimiter)), np.int64, n)
    # one flat field list: a split per line is slower (the collector walks
    # every list), and each text form is dropped once converted, which
    # keeps peak memory down
    fields = delimiter.join(lines).split(delimiter)
    starts = np.cumsum(n_fields) - n_fields
    width = int(n_fields[0]) if (n_fields == n_fields[0]).all() else 0

    def column(j: int, at: np.ndarray = starts) -> list[str]:
        """Field j of the lines that start at flat offsets `at`."""
        if width and len(at) == n:
            return fields[j::width]
        return list(map(fields.__getitem__, (at + j).tolist()))

    if n_fields.min() < 3:
        raise ValueError("a line with fewer than 3 fields")
    users, items = column(0), column(1)
    if "" in users or "" in items:
        raise ValueError("an empty id")
    ratings = np.fromiter(map(float, column(2)), np.float64, n)
    if not np.isfinite(ratings).all():
        raise ValueError("a non-finite rating")
    stamped = n_fields >= 4
    stamp_strs = column(3, starts[stamped])
    del fields
    has_timestamp = np.zeros(n, dtype=bool)
    has_timestamp[stamped] = np.fromiter(map(bool, stamp_strs), bool, len(stamp_strs))
    timestamps = np.zeros(n, dtype=np.int64)
    timestamps[has_timestamp] = np.fromiter(map(int, filter(None, stamp_strs)), np.int64)
    return users, items, ratings, timestamps, has_timestamp


def load_interactions(path: str) -> Interactions:
    """Read one interaction per line: user, item, rating[, timestamp].

    The file is UTF-8, a leading byte order mark skipped. Blank lines are
    skipped and fields after the fourth ignored; an empty fourth field is a
    missing timestamp. The delimiter (tab, else comma) is detected from the
    first non-blank line. Ratings are read by `float`, timestamps by `int`
    and must fit in int64. Raises ParseError naming the first malformed
    line, or the first line with bytes that are not UTF-8.

    The text is read `_CHUNK_CHARS` characters at a time and each chunk's
    whole lines are parsed into columns, so the text held at once is one
    chunk plus the line it cuts; ids are numbered across chunks.
    """
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    parts = []
    delimiter = None
    rest = ""  # the line a chunk cuts, carried into the next
    try:
        with open(path, encoding="utf-8-sig") as fh:
            while True:
                chunk = fh.read(_CHUNK_CHARS)
                lines = (rest + chunk).split("\n")
                rest = lines.pop() if chunk else ""
                lines = list(filter(None, lines))
                if lines:
                    delimiter = delimiter or detect_delimiter(lines[0])
                    users, items, *columns = _parse_lines(lines, delimiter)
                    parts.append((_codes(user_index, users), _codes(item_index, items), *columns))
                if not chunk:
                    break
    except (ValueError, OverflowError):  # UnicodeDecodeError and ParseError too
        _raise_first_bad_line(path)
        raise
    if not parts:
        return Interactions.from_rows([])
    return Interactions(list(user_index), list(item_index), *map(np.concatenate, zip(*parts)))


def dedupe(rows: Interactions) -> Interactions:
    """One row per (user, item) pair, pairs in order of first appearance.

    Per pair, let p be its last row without a timestamp. The row with the
    largest (timestamp, position) after p wins; p itself wins when no row
    follows it; with no such p the largest (timestamp, position) over all
    the pair's rows wins. This is the fold over rows in file order where
    a row replaces the kept one when either lacks a timestamp or its
    timestamp is at least the kept one's.
    """
    n = len(rows)
    if not n:
        return rows
    key = rows.users * len(rows.item_ids) + rows.items
    # pairs grouped, positions in any order: every per-pair reduction below
    # is a max or a min over the positions, not a pick by sorted place
    order = np.argsort(key)
    new_pair = np.diff(key[order], prepend=-1) != 0
    starts = np.flatnonzero(new_pair)
    pair = np.cumsum(new_pair) - 1  # per sorted row
    ts = rows.timestamps[order]
    has = rows.has_timestamp[order]
    p = np.maximum.reduceat(np.where(has, -1, order), starts)
    after_p = order >= p[pair]  # p itself included, where there is one
    stamped = after_p & has
    best = np.maximum.reduceat(np.where(stamped, ts, _INT64.min), starts)
    # p comes before every stamped row after it, so it wins only alone
    wins = (stamped & (ts == best[pair])) | (after_p & ~has)
    winner = np.maximum.reduceat(np.where(wins, order, -1), starts)
    by_first = np.full(n, -1, dtype=np.int64)
    by_first[np.minimum.reduceat(order, starts)] = winner
    return rows.take(by_first[by_first >= 0])


def binarize(rows: Interactions, threshold: float = 3.0) -> Interactions:
    """Keep rows with rating >= threshold as positives; drop the rest."""
    return rows.take(rows.ratings >= threshold)


def _densify(codes: np.ndarray, ids: list[str]) -> tuple[np.ndarray, dict[str, int]]:
    """`codes` renumbered from 0 in order of first appearance, and the map
    from each remaining id to its new number.
    """
    first = np.full(len(ids), len(codes), dtype=np.int64)
    np.minimum.at(first, codes, np.arange(len(codes)))
    live = np.flatnonzero(first < len(codes))
    live = live[np.argsort(first[live])]
    new = np.empty(len(ids), dtype=np.int64)
    new[live] = np.arange(len(live))
    return new[codes], {ids[c]: k for k, c in enumerate(live.tolist())}


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
    def from_records(cls, rows: Interactions) -> "DomainDataset":
        """Build from deduplicated positive rows (run `dedupe` first: a
        repeated pair stays a repeated row). Ids are densified in order of
        first appearance in `rows`, and rows keep their order.
        """
        users, user_map = _densify(rows.users, rows.user_ids)
        items, item_map = _densify(rows.items, rows.item_ids)
        return cls(users=user_map, items=item_map, interactions=np.column_stack((users, items)))

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
    users, user_map = _renumber(pairs[:, 0], ds.user_ids())
    items, item_map = _renumber(pairs[:, 1], ds.item_ids())
    return DomainDataset(users=user_map, items=item_map, interactions=np.column_stack((users, items)))


def _renumber(index: np.ndarray, ids: list[str]) -> tuple[np.ndarray, dict[str, int]]:
    """`index` renumbered from 0 over the indices it still holds, in their
    old order, and the map from each remaining id to its new number.
    """
    live = np.bincount(index, minlength=len(ids)) > 0
    new = np.cumsum(live) - 1
    return new[index], {ids[old]: k for k, old in enumerate(np.flatnonzero(live).tolist())}


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
    # rows by (user, item): one sort of the int64 key PositivePool uses
    users, items = ds.interactions.T
    users, items = np.divmod(np.sort(users * ds.n_items + items), ds.n_items)
    counts = np.bincount(users, minlength=ds.n_users)
    starts = np.cumsum(counts) - counts
    # shuffling a slice of arange draws what s + rng.permutation(n) draws
    order = np.arange(len(users))
    for s, n in zip(starts.tolist(), counts.tolist()):
        if n:
            rng.shuffle(order[s : s + n])
    # each user's rows are shuffled among themselves, so `users` stays put
    pairs = np.column_stack((users, items[order]))
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
