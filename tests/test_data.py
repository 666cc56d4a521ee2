"""Ingestion, filtering, splitting, and overlap-registry tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vuglab.data import (
    CrossDomainDataset,
    DomainDataset,
    InteractionRecord,
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

_pair_lists = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 11)), unique=True, max_size=70
)
_record_lists = st.lists(
    st.builds(
        InteractionRecord,
        st.sampled_from("abc"),
        st.sampled_from("xyz"),
        st.sampled_from([1.0, 2.5, 3.0, 4.5]),
        st.none() | st.integers(0, 3),
    ),
    max_size=30,
)


def _from_pairs(pairs):
    return DomainDataset.from_records([InteractionRecord(f"u{u}", f"i{i}", 5.0) for u, i in pairs])


def items_per_user(ds):
    """Each user's items, ascending."""
    out = [[] for _ in range(ds.n_users)]
    for u, i in ds.interactions.tolist():
        out[u].append(i)
    return [sorted(items) for items in out]


def _write(tmp_path, text, name="data.tsv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestLoadInteractions:
    def test_tab_and_comma_autodetect(self, tmp_path):
        tab = load_interactions(_write(tmp_path, "u1\ti1\t5.0\nu2\ti2\t3\n"))
        com = load_interactions(_write(tmp_path, "u1,i1,5.0\nu2,i2,3\n", "c.csv"))
        assert tab == com
        assert tab[0] == InteractionRecord("u1", "i1", 5.0, None)

    def test_timestamp_field(self, tmp_path):
        recs = load_interactions(_write(tmp_path, "u,i,4.0,123\nv,j,2.0,\n"))
        assert recs[0].timestamp == 123
        assert recs[1].timestamp is None

    def test_blank_lines_skipped(self, tmp_path):
        recs = load_interactions(_write(tmp_path, "u,i,4.0\n\n\nv,j,2.0\n"))
        assert len(recs) == 2

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

    def test_no_delimiter_detected(self):
        with pytest.raises(ParseError):
            detect_delimiter("justonefield")


class TestDedupe:
    def test_latest_timestamp_wins(self):
        recs = [
            InteractionRecord("u", "i", 1.0, 5),
            InteractionRecord("u", "i", 2.0, 9),
            InteractionRecord("u", "i", 3.0, 7),
        ]
        out = dedupe(recs)
        assert len(out) == 1 and out[0].rating == 2.0

    def test_equal_timestamps_keep_later_occurrence(self):
        recs = [InteractionRecord("u", "i", 1.0, 5), InteractionRecord("u", "i", 2.0, 5)]
        assert dedupe(recs)[0].rating == 2.0

    def test_missing_timestamp_falls_back_to_last(self):
        recs = [InteractionRecord("u", "i", 1.0, 99), InteractionRecord("u", "i", 2.0, None)]
        assert dedupe(recs)[0].rating == 2.0

    def test_first_appearance_order_preserved(self):
        recs = [
            InteractionRecord("a", "x", 1.0),
            InteractionRecord("b", "y", 1.0),
            InteractionRecord("a", "x", 2.0),
        ]
        out = dedupe(recs)
        assert [(r.user, r.item) for r in out] == [("a", "x"), ("b", "y")]


def test_binarize_threshold_keeps_at_or_above():
    recs = [InteractionRecord("u", "i", r) for r in (2.9, 3.0, 4.5)]
    kept = binarize(recs, threshold=3.0)
    assert [r.rating for r in kept] == [3.0, 4.5]


class TestDomainDataset:
    def test_from_records_densifies_in_first_appearance_order(self):
        recs = [
            InteractionRecord("bob", "x", 5.0),
            InteractionRecord("amy", "y", 5.0),
            InteractionRecord("bob", "y", 5.0),
        ]
        ds = DomainDataset.from_records(recs)
        assert ds.users == {"bob": 0, "amy": 1}
        assert ds.items == {"x": 0, "y": 1}
        assert ds.interactions.tolist() == [[0, 0], [1, 1], [0, 1]]
        assert items_per_user(ds) == [[0, 1], [1]]
        assert (ds.n_users, ds.n_items, ds.n_interactions) == (2, 2, 3)

    def test_id_lists_invert_the_mapping(self):
        ds = DomainDataset.from_records([InteractionRecord("a", "i", 5.0)])
        assert ds.user_ids() == ["a"]
        assert ds.item_ids() == ["i"]


class TestKCore:
    def _random_ds(self, seed, n_users=40, n_items=30, n_inter=300):
        rng = np.random.default_rng(seed)
        pairs = {(int(rng.integers(n_users)), int(rng.integers(n_items))) for _ in range(n_inter)}
        recs = [InteractionRecord(f"u{u}", f"i{i}", 5.0) for u, i in sorted(pairs)]
        return DomainDataset.from_records(recs)

    def test_star_graph_collapses_to_empty(self):
        # one hub user, each item seen once: items fail k=2, then the hub does
        recs = [InteractionRecord("hub", f"i{j}", 5.0) for j in range(5)]
        ds = k_core_filter(DomainDataset.from_records(recs), k=2)
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
        return DomainDataset.from_records([InteractionRecord(u, i, 5.0) for u, i in pairs])

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


class TestSplitPerUser:
    def _uniform_ds(self, n_users, per_user):
        recs = [
            InteractionRecord(f"u{u}", f"i{u}_{j}", 5.0)
            for u in range(n_users)
            for j in range(per_user)
        ]
        return DomainDataset.from_records(recs)

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

    def test_zero_interaction_users_are_counted(self):
        ds = DomainDataset(users={"a": 0, "b": 1}, items={"i": 0}, interactions=[(0, 0)])
        split = split_per_user(ds, (1.0, 0.0, 0.0), seed=0)
        assert split.n_skipped_users == 1

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
        src = DomainDataset.from_records(
            [InteractionRecord(u, f"s{j}", 5.0) for j, u in enumerate(["alice", "bob", "carol"])]
        )
        tgt = DomainDataset.from_records(
            [InteractionRecord(u, f"t{j}", 5.0) for j, u in enumerate(["dan", "carol", "alice"])]
        )
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
        """Row for row what a loop over users does: sort the user's items,
        permute them with the shared generator, cut train/valid/test."""
        ds = _from_pairs(pairs)
        ratios = (0.6, 0.2, 0.2)
        rng = np.random.default_rng(seed)
        want = ([], [], [])
        for u, items in enumerate(items_per_user(ds)):
            n = len(items)
            perm = rng.permutation(n)
            n_valid, n_test = int(n * ratios[1]), int(n * ratios[2])
            cuts = (0, n - n_valid - n_test, n - n_test, n)
            for part, lo, hi in zip(want, cuts, cuts[1:]):
                part.extend([u, items[p]] for p in perm[lo:hi])
        split = split_per_user(ds, ratios, seed=seed)
        assert [split.train.tolist(), split.valid.tolist(), split.test.tolist()] == list(want)

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
    @given(records=_record_lists, threshold=st.sampled_from([2.5, 3.0, 4.0]))
    def test_dedupe_and_binarize_are_idempotent(self, records, threshold):
        once = dedupe(records)
        assert dedupe(once) == once
        kept = binarize(records, threshold)
        assert binarize(kept, threshold) == kept


def test_dataset_stats_shape():
    ds = DomainDataset.from_records([InteractionRecord("a", "i", 5.0)])
    row = dataset_stats(ds, "source", n_overlap=1)
    assert row == {
        "domain": "source",
        "n_users": 1,
        "n_items": 1,
        "n_interactions": 1,
        "overlap_ratio": 1.0,
    }
