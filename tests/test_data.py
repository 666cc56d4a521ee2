"""Ingestion, filtering, splitting, and overlap-registry tests."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vuglab import data
from vuglab.data import (
    CrossDomainDataset,
    DomainDataset,
    Interactions,
    ParseError,
    binarize,
    build_cross,
    dataset_stats,
    dedupe,
    detect_delimiter,
    k_core_filter,
    load_interactions,
    split_per_user,
)


# fixed examples per test, no example database on disk
_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
_INT64 = np.iinfo(np.int64)


def reference_load(path):
    """The per-line parser that the columnar loader replaced, as
    (user, item, rating, timestamp or None) tuples. Its one change: a
    timestamp outside int64 is rejected.
    """
    rows = []
    delimiter = None
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
                if not _INT64.min <= timestamp <= _INT64.max:
                    raise ParseError(
                        f"line {lineno}: timestamp out of range {fields[3]!r} (must fit in int64)"
                    )
            rows.append((user, item, rating, timestamp))
    return rows


def reference_dedupe(rows):
    """The dict fold that the columnar dedupe replaced: a row replaces the
    kept one of its pair when either lacks a timestamp or its timestamp is
    at least the kept one's; pairs stay in first-appearance order.
    """
    best = {}
    for row in rows:
        key = row[:2]
        prev = best.get(key)
        if prev is None or row[3] is None or prev[3] is None or row[3] >= prev[3]:
            best[key] = row
    return list(best.values())


def as_rows(cols):
    """Columns back to (user, item, rating, timestamp or None) tuples."""
    assert cols.users.dtype == cols.items.dtype == cols.timestamps.dtype == np.int64
    assert cols.ratings.dtype == np.float64 and cols.has_timestamp.dtype == bool
    return [
        (cols.user_ids[u], cols.item_ids[i], r, t if has else None)
        for u, i, r, t, has in zip(
            cols.users.tolist(),
            cols.items.tolist(),
            cols.ratings.tolist(),
            cols.timestamps.tolist(),
            cols.has_timestamp.tolist(),
        )
    ]


_pair_lists = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 11)), unique=True, max_size=70
)
_row_lists = st.lists(
    st.tuples(
        st.sampled_from("abc"),
        st.sampled_from("xyz"),
        st.sampled_from([1.0, 2.5, 3.0, 4.5]),
        st.none() | st.integers(0, 3),
    ),
    max_size=30,
)
# file contents: tab or comma lines, some with the other delimiter, of 0 to
# 6 fields, ended by any newline convention; most fields are valid, so
# that files of several good lines are common
_FIELD = {
    "id": st.sampled_from(["a", "b", "c", "a", "b", " c", "é", "x y", "a", ""]),
    "rating": st.sampled_from(
        ["4", "3.5", "1_0", " 2 ", "+1", "5", "1", "0.5", "1e3", "٣", "4",
         "Infinity", "nan", "-inf", "1e400", "abc", ""]
    ),
    "stamp": st.sampled_from(
        ["", "7", "+5", " 12 ", "1_000", "٣٤", "-3", "42", "", "7",
         str(_INT64.max), str(_INT64.min), "x", "1.5", str(_INT64.max + 1), str(_INT64.min - 1)]
    ),
}
_line_fields = st.sampled_from([0, 1, 2, 3, 3, 3, 4, 4, 4, 5, 6]).flatmap(
    lambda n: st.tuples(
        *(_FIELD[("id", "id", "rating", "stamp", "id", "id")[j]] for j in range(n))
    )
)


@st.composite
def _interaction_files(draw):
    delimiter = draw(st.sampled_from(["\t", ","]))
    other = "," if delimiter == "\t" else "\t"
    lines = draw(
        st.lists(
            st.tuples(_line_fields, st.sampled_from([delimiter] * 5 + [other])), max_size=8
        )
    )
    ends = st.sampled_from(["\n", "\r\n", "\r", "\n\n"])
    text = "".join(sep.join(fields) + draw(ends) for fields, sep in lines)
    return text[: len(text) - draw(st.integers(0, 1))]  # at times cut the last character


def _domain(pairs):
    """A domain from (user id, item id) positives."""
    return DomainDataset.from_records(Interactions.from_rows([(u, i, 5.0) for u, i in pairs]))


def _from_pairs(pairs):
    return _domain((f"u{u}", f"i{i}") for u, i in pairs)


def items_per_user(ds):
    """Each user's items, ascending."""
    out = [[] for _ in range(ds.n_users)]
    for u, i in ds.interactions.tolist():
        out[u].append(i)
    return [sorted(items) for items in out]


def _write(tmp_path, text, name="data.tsv"):
    p = tmp_path / name
    p.write_bytes(text.encode("utf-8"))  # no newline translation
    return str(p)


class TestLoadInteractions:
    def test_tab_and_comma_autodetect(self, tmp_path):
        tab = load_interactions(_write(tmp_path, "u1\ti1\t5.0\nu2\ti2\t3\n"))
        com = load_interactions(_write(tmp_path, "u1,i1,5.0\nu2,i2,3\n", "c.csv"))
        assert as_rows(tab) == as_rows(com)
        assert as_rows(tab)[0] == ("u1", "i1", 5.0, None)

    def test_timestamp_field(self, tmp_path):
        rows = as_rows(load_interactions(_write(tmp_path, "u,i,4.0,123\nv,j,2.0,\n")))
        assert rows[0][3] == 123
        assert rows[1][3] is None

    def test_blank_lines_skipped(self, tmp_path):
        rows = load_interactions(_write(tmp_path, "u,i,4.0\n\n\nv,j,2.0\n"))
        assert len(rows) == 2

    def test_ids_are_codes_in_first_appearance_order(self, tmp_path):
        cols = load_interactions(_write(tmp_path, "b,x,1\na,y,2\nb,y,3\n"))
        assert cols.user_ids == ["b", "a"] and cols.item_ids == ["x", "y"]
        assert cols.users.tolist() == [0, 1, 0] and cols.items.tolist() == [0, 1, 1]

    def test_mixed_field_counts(self, tmp_path):
        text = "u,i,4.0\nv,j,2.0,17,extra\nw,k,3.0,\nx,l,1.0,5\n"
        cols = load_interactions(_write(tmp_path, text))
        assert as_rows(cols) == [
            ("u", "i", 4.0, None),
            ("v", "j", 2.0, 17),
            ("w", "k", 3.0, None),
            ("x", "l", 1.0, 5),
        ]

    def test_empty_file(self, tmp_path):
        assert as_rows(load_interactions(_write(tmp_path, ""))) == []
        assert as_rows(load_interactions(_write(tmp_path, "\n\r\n"))) == []

    def test_errors_carry_line_numbers(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            load_interactions(_write(tmp_path, "u,i,4.0\nu,i\n"))
        with pytest.raises(ParseError, match="line 1.*rating"):
            load_interactions(_write(tmp_path, "u,i,abc\n"))
        with pytest.raises(ParseError, match="non-finite"):
            load_interactions(_write(tmp_path, "u,i,nan\n"))
        with pytest.raises(ParseError, match="timestamp"):
            load_interactions(_write(tmp_path, "u,i,4.0,xx\n"))
        with pytest.raises(ParseError, match="empty"):
            load_interactions(_write(tmp_path, ",i,4.0\n"))

    def test_first_bad_line_wins(self, tmp_path):
        # line 4 fails the rating parse, line 3 (counted after a blank
        # line) the field count: the earlier line is reported
        text = "u,i,4.0\n\nu,i\nv,j,abc\n"
        with pytest.raises(ParseError, match=r"^line 3: expected >=3 fields, got 2$"):
            load_interactions(_write(tmp_path, text))
        with pytest.raises(ParseError, match=r"^line 3: bad rating 'abc'$"):
            load_interactions(_write(tmp_path, "u,i,4.0\r\rv,j,abc,nan\n"))

    def test_timestamp_outside_int64_rejected(self, tmp_path):
        ok = load_interactions(_write(tmp_path, f"u,i,4.0,{_INT64.max}\nv,i,4.0,{_INT64.min}\n"))
        assert ok.timestamps.tolist() == [_INT64.max, _INT64.min]
        for stamp in (_INT64.max + 1, _INT64.min - 1):
            with pytest.raises(ParseError, match=r"^line 2: timestamp out of range"):
                load_interactions(_write(tmp_path, f"u,i,4.0,1\nv,i,4.0,{stamp}\n"))

    def test_no_delimiter_detected(self, tmp_path):
        with pytest.raises(ParseError):
            detect_delimiter("justonefield")
        with pytest.raises(ParseError, match="cannot detect delimiter"):
            load_interactions(_write(tmp_path, "\njustonefield\nu,i,4\n"))

    @_PROPERTY
    @given(text=_interaction_files())
    def test_matches_the_per_line_parser(self, tmp_path_factory, text):
        """Same rows, or the same ParseError message (hence the same first
        bad line), as the per-line reference on the same bytes."""
        assert_loads_like_the_reference(_write(tmp_path_factory.getbasetemp(), text))

    @_PROPERTY
    @given(text=_interaction_files(), chunk=st.integers(1, 7))
    def test_matches_the_per_line_parser_in_small_chunks(self, tmp_path_factory, text, chunk):
        """The same with the file read a few characters at a time, so that
        chunks cut lines, fields and line ends anywhere."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_CHUNK_CHARS", chunk)
            assert_loads_like_the_reference(_write(tmp_path_factory.getbasetemp(), text))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.tsv"
        path.write_bytes(b"\xef\xbb\xbfu1\ti1\t5.0\nu2\ti1\t4.0\n")
        cols = load_interactions(str(path))
        assert cols.user_ids == ["u1", "u2"]
        assert as_rows(cols)[0] == ("u1", "i1", 5.0, None)
        # only a leading mark is skipped; one later in the file is id text
        path.write_bytes(b"u1\ti1\t5.0\n\xef\xbb\xbfu2\ti1\t4.0\n")
        assert load_interactions(str(path)).user_ids == ["u1", "\ufeffu2"]

    @pytest.mark.parametrize("chunk", [3, 1 << 20])
    def test_bytes_that_are_not_utf8_name_the_file_and_line(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(data, "_CHUNK_CHARS", chunk)
        path = tmp_path / "latin1.tsv"
        path.write_bytes(b"u1\ti1\t5.0\n\nu2\ti\xff\t4.0\nu3\ti1\tabc\n")
        with pytest.raises(ParseError, match=r"^line 3: byte 0xff is not UTF-8 \(in .*latin1\.tsv\)$"):
            load_interactions(str(path))
        # an earlier malformed line still comes first
        path.write_bytes(b"u1\ti1\n\xe9\ti1\t4.0\n")
        with pytest.raises(ParseError, match=r"^line 1: expected >=3 fields, got 2$"):
            load_interactions(str(path))


def assert_loads_like_the_reference(path):
    """`load_interactions` gives the rows of `reference_load`, or the same
    ParseError message."""

    def outcome(load):
        try:
            return load(path)
        except ParseError as exc:
            return str(exc)

    want = outcome(reference_load)
    got = outcome(load_interactions)
    assert (got if isinstance(got, str) else as_rows(got)) == want


class TestChunkedReading:
    """`load_interactions` reads `_CHUNK_CHARS` characters at a time; with
    the chunk patched small, every case crosses chunk boundaries."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(data, "_CHUNK_CHARS", 8)

    def test_a_line_longer_than_a_chunk(self, tmp_path):
        text = "u,i,1\n" + "a" * 50 + "," + "b" * 30 + ",4.5,1234567\nv,j,2\n"
        path = _write(tmp_path, text)
        assert as_rows(load_interactions(path)) == reference_load(path)
        assert load_interactions(path).user_ids == ["u", "a" * 50, "v"]

    def test_a_first_chunk_of_blank_lines_only(self, tmp_path):
        path = _write(tmp_path, "\n" * 20 + "u\ti,x\t3\nv\tj\t4\n")
        # the delimiter comes from the first non-blank line, in a later chunk
        assert as_rows(load_interactions(path)) == [("u", "i,x", 3.0, None), ("v", "j", 4.0, None)]
        path = _write(tmp_path, "\n" * 20 + "u,i\n")
        with pytest.raises(ParseError, match=r"^line 21: expected >=3 fields, got 2$"):
            load_interactions(path)

    @pytest.mark.parametrize("chunk", [5, 6, 7, 8, 1 << 20])
    def test_crlf_split_across_reads(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(data, "_CHUNK_CHARS", chunk)
        # "\r" ends the first 8192 bytes, the size the text reader decodes
        # at a time, and chunk 5 ends at the first "\r" of the short file
        first = "u" * (8192 - len(",i,4") - 1) + ",i,4"
        text = first + "\r\nv,j,5\r\n\r\nw,k,bad\r\n"
        path = _write(tmp_path, text)
        with pytest.raises(ParseError, match=r"^line 4: bad rating 'bad'$"):
            load_interactions(path)
        path = _write(tmp_path, "u,i,4\r\nv,j,5\r\n\r\nw,k,3\r\n")
        assert as_rows(load_interactions(path)) == [
            ("u", "i", 4.0, None), ("v", "j", 5.0, None), ("w", "k", 3.0, None)
        ]

    def test_a_bad_line_in_a_later_chunk_reports_its_global_number(self, tmp_path):
        lines = [f"u{n},i{n},4,{n}" for n in range(30)]
        lines[23] = "u23,i23,4,x"
        path = _write(tmp_path, "\n".join(lines[:10]) + "\n\n" + "\n".join(lines[10:]))
        with pytest.raises(ParseError, match=r"^line 25: bad timestamp 'x'$"):
            load_interactions(path)

    def test_ids_first_seen_in_a_later_chunk(self, tmp_path):
        text = "".join(f"u{n % 3},i{n % 2},4\n" for n in range(12)) + "z,i1,1\nu0,k,2\nz,k,3\n"
        path = _write(tmp_path, text)
        cols = load_interactions(path)
        assert cols.user_ids == ["u0", "u1", "u2", "z"]
        assert cols.item_ids == ["i0", "i1", "k"]
        assert cols.users.tolist()[-3:] == [3, 0, 3] and cols.items.tolist()[-3:] == [1, 2, 2]
        assert as_rows(cols) == as_rows(Interactions.from_rows(reference_load(path)))

    def test_three_and_four_field_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_CHUNK_CHARS", 32)
        three = "".join(f"a{n}\tb\t{n}\n" for n in range(8))  # 8-9 characters a line
        four = "".join(f"c{n}\td\t{n}\t{n}\n" for n in range(8))
        mixed = "e\tf\t1\t\ng\th\t2\ne\tf\t3\t5\tx\n"
        path = _write(tmp_path, three + four + mixed + three)
        cols = load_interactions(path)
        assert as_rows(cols) == reference_load(path)
        assert cols.has_timestamp.tolist() == [False] * 8 + [True] * 8 + [False, False, True] + [False] * 8

    def test_memory_is_bounded_by_the_chunk(self, tmp_path, monkeypatch):
        """Peak traced memory of one load of a 160k-line file stays under 3x
        what the returned columns and ids hold: the text is held a chunk at
        a time, not all at once."""
        monkeypatch.setattr(data, "_CHUNK_CHARS", 1 << 16)
        rng = np.random.default_rng(3)
        n = 160_000
        users, items = rng.integers(0, 5_000, n), rng.integers(0, 1_000, n)
        ratings, stamps = rng.integers(1, 6, n), rng.integers(1_500_000_000, 1_700_000_000, n)
        path = tmp_path / "big.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(
                f"u{u}\ti{i}\t{r}.0\t{t}\n"
                for u, i, r, t in zip(users.tolist(), items.tolist(), ratings.tolist(), stamps.tolist())
            )
        tracemalloc.start()
        try:
            cols = load_interactions(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(
            getattr(cols, name).nbytes
            for name in ("users", "items", "ratings", "timestamps", "has_timestamp")
        )
        held += sum(sys.getsizeof(ids) + sum(map(sys.getsizeof, ids)) for ids in (cols.user_ids, cols.item_ids))
        assert len(cols) == n
        assert peak < 3 * held


def _with_stamps(keys, stamps):
    """Rows (user, item, rating = row position, timestamp)."""
    return [(u, i, float(n), t) for n, ((u, i), t) in enumerate(zip(keys, stamps))]


class TestDedupe:
    def test_latest_timestamp_wins(self):
        out = dedupe(Interactions.from_rows([("u", "i", 1.0, 5), ("u", "i", 2.0, 9), ("u", "i", 3.0, 7)]))
        assert len(out) == 1 and out.ratings.tolist() == [2.0]

    def test_equal_timestamps_keep_later_occurrence(self):
        out = dedupe(Interactions.from_rows([("u", "i", 1.0, 5), ("u", "i", 2.0, 5)]))
        assert out.ratings.tolist() == [2.0]

    def test_missing_timestamp_falls_back_to_last(self):
        out = dedupe(Interactions.from_rows([("u", "i", 1.0, 99), ("u", "i", 2.0, None)]))
        assert out.ratings.tolist() == [2.0]

    def test_missing_timestamp_resets_the_choice(self):
        # after the unstamped row only later rows compete, even older ones
        rows = _with_stamps([("u", "i")] * 4, [99, None, 3, 2])
        assert [r[2] for r in as_rows(dedupe(Interactions.from_rows(rows)))] == [2.0]

    def test_first_appearance_order_preserved(self):
        out = dedupe(Interactions.from_rows([("a", "x", 1.0), ("b", "y", 1.0), ("a", "x", 2.0)]))
        assert [r[:2] for r in as_rows(out)] == [("a", "x"), ("b", "y")]

    def test_empty(self):
        assert len(dedupe(Interactions.from_rows([]))) == 0

    @_PROPERTY
    @given(
        data=st.lists(
            st.tuples(
                st.tuples(st.sampled_from("ab"), st.sampled_from("xy")),
                st.none() | st.sampled_from([0, 1, 2, _INT64.min, _INT64.max]),
            ),
            max_size=40,
        )
    )
    def test_matches_the_fold(self, data):
        """Row for row the fold's output, with many repeated pairs and
        missing timestamps; the rating marks which row won."""
        rows = _with_stamps(*zip(*data)) if data else []
        assert as_rows(dedupe(Interactions.from_rows(rows))) == reference_dedupe(rows)

    def test_matches_the_fold_where_the_sort_reorders_equal_keys(self):
        """20k rows over 600 pairs, a fifth unstamped and the rest stamped
        from four values, so most pairs hold tied and reset rows; the
        pair sort is not stable on them, and dedupe must not depend on it."""
        rng = np.random.default_rng(5)
        n = 20_000
        keys = zip(rng.integers(0, 30, n).tolist(), rng.integers(0, 20, n).tolist())
        stamps = [None if s < 0 else s for s in rng.integers(-1, 4, n).tolist()]
        rows = _with_stamps([(f"u{u}", f"i{i}") for u, i in keys], stamps)
        cols = Interactions.from_rows(rows)
        key = cols.users * len(cols.item_ids) + cols.items
        assert not np.array_equal(np.argsort(key), np.argsort(key, kind="stable"))
        assert as_rows(dedupe(cols)) == reference_dedupe(rows)


def test_binarize_threshold_keeps_at_or_above():
    kept = binarize(Interactions.from_rows([("u", "i", r) for r in (2.9, 3.0, 4.5)]), threshold=3.0)
    assert kept.ratings.tolist() == [3.0, 4.5]


class TestDomainDataset:
    def test_from_records_densifies_in_first_appearance_order(self):
        ds = _domain([("bob", "x"), ("amy", "y"), ("bob", "y")])
        assert ds.users == {"bob": 0, "amy": 1}
        assert ds.items == {"x": 0, "y": 1}
        assert ds.interactions.tolist() == [[0, 0], [1, 1], [0, 1]]
        assert items_per_user(ds) == [[0, 1], [1]]
        assert (ds.n_users, ds.n_items, ds.n_interactions) == (2, 2, 3)

    def test_from_records_order_is_that_of_the_kept_rows(self):
        # "a" and "x" appear first in the file but only in a dropped row
        rows = binarize(Interactions.from_rows([("a", "x", 1.0), ("b", "y", 5.0), ("a", "y", 5.0)]))
        ds = DomainDataset.from_records(rows)
        assert list(ds.users.items()) == [("b", 0), ("a", 1)]
        assert list(ds.items.items()) == [("y", 0)]
        assert ds.interactions.tolist() == [[0, 0], [1, 0]]

    def test_id_lists_invert_the_mapping(self):
        ds = _domain([("a", "i")])
        assert ds.user_ids() == ["a"]
        assert ds.item_ids() == ["i"]


class TestKCore:
    def _random_ds(self, seed, n_users=40, n_items=30, n_inter=300):
        rng = np.random.default_rng(seed)
        pairs = {(int(rng.integers(n_users)), int(rng.integers(n_items))) for _ in range(n_inter)}
        return _from_pairs(sorted(pairs))

    def test_star_graph_collapses_to_empty(self):
        # one hub user, each item seen once: items fail k=2, then the hub does
        ds = k_core_filter(_domain(("hub", f"i{j}") for j in range(5)), k=2)
        assert ds.n_users == 0 and ds.n_items == 0 and ds.n_interactions == 0

    def test_surviving_degrees_are_at_least_k(self):
        for seed in range(5):
            ds = k_core_filter(self._random_ds(seed), k=3)
            deg_u = np.zeros(ds.n_users, dtype=int)
            deg_i = np.zeros(ds.n_items, dtype=int)
            for u, i in ds.interactions:
                deg_u[u] += 1
                deg_i[i] += 1
            assert (deg_u >= 3).all() and (deg_i >= 3).all()

    def test_idempotent(self):
        for seed in range(5):
            once = k_core_filter(self._random_ds(seed), k=3)
            twice = k_core_filter(once, k=3)
            assert once.users == twice.users
            assert once.items == twice.items
            assert np.array_equal(once.interactions, twice.interactions)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            k_core_filter(self._random_ds(0), k=0)

    @staticmethod
    def _reference(ds, k):
        """Plain-Python fixed point with dict degrees; returns the filtered
        dataset and the number of rounds that dropped something.
        """
        inter = ds.interactions.tolist()
        rounds = 0
        while True:
            u_deg, i_deg = {}, {}
            for u, i in inter:
                u_deg[u] = u_deg.get(u, 0) + 1
                i_deg[i] = i_deg.get(i, 0) + 1
            nxt = [(u, i) for u, i in inter if u_deg[u] >= k and i_deg[i] >= k]
            if len(nxt) == len(inter):
                break
            inter = nxt
            rounds += 1
        user_ids, item_ids = ds.user_ids(), ds.item_ids()
        u_map = {old: new for new, old in enumerate(sorted({u for u, _ in inter}))}
        i_map = {old: new for new, old in enumerate(sorted({i for _, i in inter}))}
        out = DomainDataset(
            users={user_ids[old]: new for old, new in u_map.items()},
            items={item_ids[old]: new for old, new in i_map.items()},
            interactions=[(u_map[u], i_map[i]) for u, i in inter],
        )
        return out, rounds

    def _chain_ds(self, seed, tail=6):
        """A dense random block plus a user-item chain hanging off it: under
        k=2 the chain loses one node per round, so the fixed point needs
        more than `tail` rounds.
        """
        rng = np.random.default_rng(seed)
        pairs = [(f"u{u}", f"i{i}") for u in range(12) for i in range(10) if rng.random() < 0.6]
        rng.shuffle(pairs)
        prev = "i0"
        for t in range(tail):
            pairs.append((f"c{t}", prev))
            prev = f"ci{t}"
            pairs.append((f"c{t}", prev))
        return _domain(pairs)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_plain_python_reference(self, seed):
        chain = self._chain_ds(seed)
        assert self._reference(chain, 2)[1] >= 3
        for ds, k in ((chain, 2), (self._random_ds(seed), 3)):
            want, _ = self._reference(ds, k)
            got = k_core_filter(ds, k=k)
            assert list(got.users.items()) == list(want.users.items())
            assert list(got.items.items()) == list(want.items.items())
            assert np.array_equal(got.interactions, want.interactions)
            assert items_per_user(got) == items_per_user(want)
            assert got.interactions.dtype == np.int64


def reference_split(ds, ratios, seed):
    """Row for row what a loop over users does: sort the user's items,
    permute them with `rng.permutation` of the shared generator, cut
    train/valid/test."""
    rng = np.random.default_rng(seed)
    want = ([], [], [])
    for u, items in enumerate(items_per_user(ds)):
        n = len(items)
        perm = rng.permutation(n)
        n_valid, n_test = int(n * ratios[1]), int(n * ratios[2])
        cuts = (0, n - n_valid - n_test, n - n_test, n)
        for part, lo, hi in zip(want, cuts, cuts[1:]):
            part.extend([u, items[p]] for p in perm[lo:hi])
    return list(want)


def split_parts(split):
    return [split.train.tolist(), split.valid.tolist(), split.test.tolist()]


class TestSplitPerUser:
    def _uniform_ds(self, n_users, per_user):
        return _domain((f"u{u}", f"i{u}_{j}") for u in range(n_users) for j in range(per_user))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 40])
    def test_in_place_shuffle_draws_what_permutation_draws(self, n):
        """split_per_user shuffles slices of an arange; that must give
        `permutation`'s values and leave the generator in its state."""
        a, b = np.random.default_rng(n), np.random.default_rng(n)
        order = np.arange(n)
        b.shuffle(order)
        assert np.array_equal(a.permutation(n), order)
        assert a.bit_generator.state == b.bit_generator.state

    def test_users_with_zero_one_and_two_positives_match_the_reference(self):
        sizes = [2, 0, 1, 9, 2, 1, 0, 12, 2]
        ds = DomainDataset(
            users={f"u{u}": u for u in range(len(sizes))},
            items={f"i{j}": j for j in range(max(sizes))},
            interactions=[(u, j) for u, n in enumerate(sizes) for j in range(n)],
        )
        for seed in range(5):
            split = split_per_user(ds, (0.5, 0.25, 0.25), seed=seed)
            assert split_parts(split) == reference_split(ds, (0.5, 0.25, 0.25), seed)

    def test_repeated_pairs_match_the_reference(self):
        """A domain that holds a (user, item) row more than once splits as
        the per-user loop splits it, each copy a row of its own."""
        rng = np.random.default_rng(2)
        pairs = np.column_stack((rng.integers(0, 12, 300), rng.integers(0, 9, 300)))
        ds = DomainDataset(
            users={f"u{u}": u for u in range(12)},
            items={f"i{j}": j for j in range(9)},
            interactions=pairs,
        )
        assert len(np.unique(pairs, axis=0)) < len(pairs)
        for seed in range(5):
            split = split_per_user(ds, (0.6, 0.2, 0.2), seed=seed)
            assert split_parts(split) == reference_split(ds, (0.6, 0.2, 0.2), seed)

    def test_floor_rounding_small_history(self):
        # 3 positives at (0.8, 0.1, 0.1): floor gives 0 valid, 0 test
        split = split_per_user(self._uniform_ds(1, 3), (0.8, 0.1, 0.1), seed=0)
        assert len(split.train) == 3 and not len(split.valid) and not len(split.test)

    def test_counts_twenty_positives(self):
        split = split_per_user(self._uniform_ds(1, 20), (0.8, 0.1, 0.1), seed=0)
        assert (len(split.train), len(split.valid), len(split.test)) == (16, 2, 2)
        split = split_per_user(self._uniform_ds(1, 20), (0.2, 0.4, 0.4), seed=0)
        assert (len(split.train), len(split.valid), len(split.test)) == (4, 8, 8)

    def test_exact_partition_per_user(self):
        ds = self._uniform_ds(20, 11)
        split = split_per_user(ds, (0.6, 0.2, 0.2), seed=3)
        for u in range(ds.n_users):
            parts = [
                {i for uu, i in getattr(split, w).tolist() if uu == u}
                for w in ("train", "valid", "test")
            ]
            assert parts[0] | parts[1] | parts[2] == set(items_per_user(ds)[u])
            assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])

    def test_seed_determinism(self):
        ds = self._uniform_ds(10, 9)
        a = split_per_user(ds, seed=5)
        b = split_per_user(ds, seed=5)
        c = split_per_user(ds, seed=6)
        assert np.array_equal(a.train, b.train) and np.array_equal(a.test, b.test)
        assert not np.array_equal(a.train, c.train)

    def test_zero_interaction_users_get_no_rows(self):
        """A hand-built user without interactions gets no row in any part,
        and every other user gets the parts it gets without that user."""
        dense = self._uniform_ds(5, 9)
        users, items = dense.interactions.T
        # user 2 of `hole` has no rows; dense users 2-4 are its users 3-5
        hole = DomainDataset(
            users={**{ext: u + (u >= 2) for ext, u in dense.users.items()}, "empty": 2},
            items=dense.items,
            interactions=np.column_stack((users + (users >= 2), items)),
        )
        for ratios in ((1.0, 0.0, 0.0), (0.5, 0.25, 0.25)):
            got = split_per_user(hole, ratios, seed=4)
            want = split_per_user(dense, ratios, seed=4)
            assert got.n_users == 6
            for part in ("train", "valid", "test"):
                rows = getattr(got, part)
                assert 2 not in rows[:, 0]
                rows[:, 0] -= rows[:, 0] > 2
                assert np.array_equal(rows, getattr(want, part))

    def test_bad_ratios_rejected(self):
        ds = self._uniform_ds(1, 5)
        with pytest.raises(ValueError):
            split_per_user(ds, (0.5, 0.2, 0.2), seed=0)
        with pytest.raises(ValueError):
            split_per_user(ds, (1.2, -0.1, -0.1), seed=0)

    def test_by_user_round_trip(self):
        ds = self._uniform_ds(6, 8)
        split = split_per_user(ds, (0.5, 0.25, 0.25), seed=1)
        by = split.by_user("train")
        assert sorted([u, i] for u in range(6) for i in by[u]) == sorted(split.train.tolist())


class TestBuildCross:
    def _pair(self):
        src = _domain((u, f"s{j}") for j, u in enumerate(["alice", "bob", "carol"]))
        tgt = _domain((u, f"t{j}") for j, u in enumerate(["dan", "carol", "alice"]))
        return build_cross(src, tgt)

    def test_overlap_by_external_id(self):
        cross = self._pair()
        # ordered by target index: carol(t=1), alice(t=2)
        assert cross.overlap.tolist() == [[2, 1], [0, 2]]
        assert cross.target_nonoverlap.tolist() == [0]
        assert list(cross.overlap_src) == [2, 0]
        assert list(cross.overlap_tgt) == [1, 2]

    def test_partition_of_target_users(self):
        cross = self._pair()
        all_t = {t for _, t in cross.overlap} | set(cross.target_nonoverlap)
        assert all_t == set(range(cross.target.n_users))

    def test_src_of_tgt_vector(self):
        cross = self._pair()
        assert list(cross.src_of_tgt()) == [-1, 2, 0]

    def test_injectivity(self):
        cross = self._pair()
        srcs = [s for s, _ in cross.overlap]
        tgts = [t for _, t in cross.overlap]
        assert len(set(srcs)) == len(srcs) and len(set(tgts)) == len(tgts)


class TestProperties:
    @_PROPERTY
    @given(
        pairs=_pair_lists,
        cut=st.tuples(st.integers(0, 10), st.integers(0, 10)).filter(lambda c: sum(c) <= 10),
        seed=st.integers(0, 2**16),
    )
    def test_split_partitions_each_user_by_the_floor_rule(self, pairs, cut, seed):
        ds = _from_pairs(pairs)
        ratios = ((10 - cut[0] - cut[1]) / 10, cut[0] / 10, cut[1] / 10)
        split = split_per_user(ds, ratios, seed=seed)
        parts = [split.by_user(w) for w in ("train", "valid", "test")]
        for u, items in enumerate(items_per_user(ds)):
            got = [set(p[u]) for p in parts]
            assert sum(len(p[u]) for p in parts) == len(items)
            assert got[0] | got[1] | got[2] == set(items)
            n = len(items)
            assert len(got[1]) == int(n * ratios[1]) and len(got[2]) == int(n * ratios[2])
        for part in (split.train, split.valid, split.test):
            assert part.dtype == np.int64 and part.shape[1] == 2
            assert (np.diff(part[:, 0]) >= 0).all()

    @_PROPERTY
    @given(pairs=_pair_lists, seed=st.integers(0, 2**16))
    def test_split_matches_a_per_user_loop(self, pairs, seed):
        ds = _from_pairs(pairs)
        split = split_per_user(ds, (0.6, 0.2, 0.2), seed=seed)
        assert split_parts(split) == reference_split(ds, (0.6, 0.2, 0.2), seed)

    @_PROPERTY
    @given(pairs=_pair_lists, k=st.integers(1, 4))
    def test_k_core_reaches_a_fixed_point(self, pairs, k):
        out = k_core_filter(_from_pairs(pairs), k=k)
        if out.n_users:
            assert np.bincount(out.interactions[:, 0], minlength=out.n_users).min() >= k
            assert np.bincount(out.interactions[:, 1], minlength=out.n_items).min() >= k
        again = k_core_filter(out, k=k)
        assert again.users == out.users and again.items == out.items
        assert np.array_equal(again.interactions, out.interactions)

    @_PROPERTY
    @given(rows=_row_lists, threshold=st.sampled_from([2.5, 3.0, 4.0]))
    def test_dedupe_and_binarize_are_idempotent(self, rows, threshold):
        cols = Interactions.from_rows(rows)
        once = dedupe(cols)
        assert as_rows(dedupe(once)) == as_rows(once)
        kept = binarize(cols, threshold)
        assert as_rows(binarize(kept, threshold)) == as_rows(kept)


def test_dataset_stats_shape():
    ds = _domain([("a", "i")])
    row = dataset_stats(ds, "source", n_overlap=1)
    assert row == {
        "domain": "source",
        "n_users": 1,
        "n_items": 1,
        "n_interactions": 1,
        "overlap_ratio": 1.0,
    }
