"""Ranking metric and group-gap tests.

A single relevant item at rank 2 scores NDCG = (1/log2(3)) / (1/log2(2))
= 0.6309297535714575; that constant anchors several checks below.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vuglab import metrics, params
from vuglab.data import DomainDataset, Interactions, build_cross, split_per_user
from vuglab.metrics import (
    EvalReport,
    evaluate,
    hit_rate_at_k,
    ndcg_at_k,
    rank_items,
    top_columns,
    ugf,
)
from vuglab.model import SRC_USER, TGT_ITEM, TGT_USER, CdrModel

NDCG_RANK2 = 0.6309297535714575


class TestHitRate:
    def test_hit_inside_and_outside_k(self):
        assert hit_rate_at_k([5, 3, 7], {3}, 10) == 1
        assert hit_rate_at_k([5, 3, 7], {7}, 2) == 0
        assert hit_rate_at_k([5, 3, 7], {9}, 3) == 0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            hit_rate_at_k([1], {1}, 0)


class TestNdcg:
    def test_rank_positions(self):
        assert ndcg_at_k([3, 5, 7], {3}, 10) == 1.0
        np.testing.assert_allclose(ndcg_at_k([5, 3, 7], {3}, 10), NDCG_RANK2, atol=1e-15)
        assert ndcg_at_k([5, 3, 7], {9}, 10) == 0.0

    def test_ideal_norm_with_fewer_relevant_than_k(self):
        # both relevant items at the top: ideal ranking, so exactly 1
        assert ndcg_at_k([4, 9, 1, 2], {4, 9}, 10) == 1.0

    def test_ideal_norm_truncates_at_k(self):
        # K=1 with 3 relevant: ideal DCG uses min(K, |rel|) = 1 hit
        assert ndcg_at_k([4, 0, 1], {4, 1, 7}, 1) == 1.0

    def test_invariant_beyond_rank_k(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            ranked = list(rng.permutation(40))
            rel = {int(x) for x in rng.choice(40, size=5, replace=False)}
            k = int(rng.integers(1, 10))
            tail = ranked[k:]
            rng.shuffle(tail)
            assert ndcg_at_k(ranked[:k] + tail, rel, k) == ndcg_at_k(ranked, rel, k)

    def test_validation(self):
        with pytest.raises(ValueError):
            ndcg_at_k([1], {1}, 0)
        with pytest.raises(ValueError, match="non-empty"):
            ndcg_at_k([1], set(), 3)

    def test_range_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            ranked = list(rng.permutation(30))
            rel = {int(x) for x in rng.choice(30, size=int(rng.integers(1, 6)), replace=False)}
            v = ndcg_at_k(ranked, rel, int(rng.integers(1, 15)))
            assert 0.0 <= v <= 1.0


class TestUgf:
    def test_absolute_gap_and_symmetry(self):
        a = [1.0, 0.0, 1.0]
        b = [0.0, 0.0]
        assert ugf(a, b) == pytest.approx(2.0 / 3.0)
        assert ugf(a, b) == ugf(b, a)
        assert ugf(a, a) == 0.0

    def test_permutation_within_group(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(size=9)
        b = rng.uniform(size=7)
        assert ugf(a, b) == ugf(list(reversed(a)), list(rng.permutation(b)))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="overlap group"):
            ugf([], [1.0])
        with pytest.raises(ValueError, match="nonoverlap group"):
            ugf([1.0], [])


class TestRankItems:
    def test_descending_with_index_tie_break(self):
        scores = np.array([0.5, 2.0, 0.5, -1.0, 2.0])
        assert rank_items(scores, exclude=set()).tolist() == [1, 4, 0, 2, 3]

    def test_exclusion(self):
        scores = np.array([3.0, 2.0, 1.0])
        assert rank_items(scores, exclude={0, 2}).tolist() == [1]

    def test_matches_python_sort(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            scores = rng.standard_normal(25).round(1)  # rounding forces ties
            excl = {int(x) for x in rng.choice(25, size=4, replace=False)}
            expected = sorted(
                (i for i in range(25) if i not in excl), key=lambda i: (-scores[i], i)
            )
            assert rank_items(scores, excl).tolist() == expected


def make_eval_setup(n_tgt=10, n_overlap=4, n_items=8, d=3, lam=0.5, seed=0):
    """Target users with 4 positives each, split in half into train/test."""
    recs_t = [
        (f"p{u}" if u < n_overlap else f"t{u}", f"ti{(u + j) % n_items}", 5.0)
        for u in range(n_tgt)
        for j in range(4)
    ]
    recs_s = [
        (f"p{u}" if u < n_overlap else f"s{u}", f"si{u % 3}", 5.0)
        for u in range(n_tgt - 2)
    ]
    cross = build_cross(
        DomainDataset.from_records(Interactions.from_rows(recs_s)),
        DomainDataset.from_records(Interactions.from_rows(recs_t)),
    )
    split = split_per_user(cross.target, (0.5, 0.0, 0.5), seed=seed)
    model = CdrModel.create(cross, d=d, lam=lam, seed=seed + 1)
    return cross, split, model


class TestEvaluate:
    def test_matches_brute_force(self):
        cross, split, model = make_eval_setup()
        rng = np.random.default_rng(3)
        vmap = {int(u): rng.standard_normal(3) for u in cross.target_nonoverlap}
        virtual = np.zeros((cross.target.n_users, 3))
        for u, row in vmap.items():
            virtual[u] = row
        ks = (1, 3, 5)
        report = evaluate(model, cross, split, ks=ks, virtual_sources=virtual)

        tu = model.store.get(TGT_USER)
        su = model.store.get(SRC_USER)
        ti = model.store.get(TGT_ITEM)
        src_of = cross.src_of_tgt()
        by_train = split.by_user("train")
        by_test = split.by_user("test")
        vals = {(m, k): [] for m in ("hr", "ndcg") for k in ks}
        for u in range(split.n_users):
            if not by_test[u]:
                continue
            ehat = su[src_of[u]] if src_of[u] >= 0 else vmap[u]
            scores = ti @ (tu[u] + model.effective_lam * ehat)
            ranked = sorted(
                (i for i in range(split.n_items) if i not in set(by_train[u])),
                key=lambda i: (-scores[i], i),
            )
            rel = set(by_test[u])
            for k in ks:
                vals[("hr", k)].append(1.0 if any(i in rel for i in ranked[:k]) else 0.0)
                dcg = sum(
                    1.0 / np.log2(p + 2) for p, i in enumerate(ranked[:k]) if i in rel
                )
                ideal = sum(1.0 / np.log2(p + 2) for p in range(min(k, len(rel))))
                vals[("ndcg", k)].append(dcg / ideal)
        for m in ("hr", "ndcg"):
            for k in ks:
                assert abs(report.value(m, k) - np.mean(vals[(m, k)])) <= 1e-12

    def test_group_gap_recomputable(self):
        cross, split, model = make_eval_setup()
        report = evaluate(model, cross, split, ks=(3,))
        for row in report.rows:
            assert abs(row["ugf"] - abs(row["overlap"] - row["nonoverlap"])) <= 1e-12
        assert report.counts["n_overlap"] + report.counts["n_nonoverlap"] == report.counts[
            "n_users_evaluated"
        ]

    def test_planted_train_positive_cannot_move_metrics(self):
        """Train positives are excluded from ranking, so making one score
        arbitrarily high must leave every metric untouched."""
        recs = [("u0", f"ti{j}", 5.0) for j in range(6)]
        tgt = DomainDataset.from_records(Interactions.from_rows(recs))
        src = DomainDataset.from_records(Interactions.from_rows([("s0", "si0", 5.0)]))
        cross = build_cross(src, tgt)
        split = split_per_user(tgt, (0.5, 0.0, 0.5), seed=1)
        model = CdrModel.create(cross, d=2, lam=0.0, seed=2)
        before = evaluate(model, cross, split, ks=(2, 4)).to_dict()
        planted = split.by_user("train")[0][0]
        model.store.get(TGT_ITEM)[planted] = [1e9, 1e9]
        after = evaluate(model, cross, split, ks=(2, 4)).to_dict()
        assert before == after

    def test_validation_positives_stay_in_candidates(self):
        recs = [("u0", f"ti{j}", 5.0) for j in range(4)]
        tgt = DomainDataset.from_records(Interactions.from_rows(recs))
        src = DomainDataset.from_records(Interactions.from_rows([("s0", "si0", 5.0)]))
        cross = build_cross(src, tgt)
        # 4 items at (0.5, 0.25, 0.25): 2 train, 1 valid, 1 test
        split = split_per_user(tgt, (0.5, 0.25, 0.25), seed=0)
        model = CdrModel.create(cross, d=2, lam=0.0, seed=0)
        ti = model.store.get(TGT_ITEM)
        model.store.get(TGT_USER)[0] = [1.0, 0.0]
        ti[:] = -1.0
        valid_item = split.valid[0][1]
        test_item = split.test[0][1]
        ti[valid_item] = [10.0, 0.0]
        ti[test_item] = [5.0, 0.0]
        report = evaluate(model, cross, split, ks=(1, 3))
        # the valid positive outranks the test positive: rank-1 miss, rank-2 hit
        assert report.value("hr", 1) == 0.0
        np.testing.assert_allclose(report.value("ndcg", 3), NDCG_RANK2, atol=1e-15)

    def test_users_without_part_positives_are_skipped_and_counted(self):
        recs = [("u0", f"ti{j}", 5.0) for j in range(4)]
        recs += [("u1", "ti0", 5.0)]  # too small to get a test item
        tgt = DomainDataset.from_records(Interactions.from_rows(recs))
        src = DomainDataset.from_records(Interactions.from_rows([("s0", "si0", 5.0)]))
        cross = build_cross(src, tgt)
        split = split_per_user(tgt, (0.5, 0.0, 0.5), seed=0)
        report = evaluate(CdrModel.create(cross, d=2, seed=0), cross, split, ks=(2,))
        assert report.counts["n_users_evaluated"] == 1
        assert report.counts["n_skipped"] == 1

    def test_single_group_reports_none_fields(self):
        cross, split, model = make_eval_setup(n_tgt=6, n_overlap=0)
        report = evaluate(model, cross, split, ks=(3,))
        for row in report.rows:
            assert row["overlap"] is None and row["ugf"] is None
            assert row["nonoverlap"] == row["all"]

    def test_errors(self):
        cross, split, model = make_eval_setup()
        with pytest.raises(ValueError, match=">= 1"):
            evaluate(model, cross, split, ks=(0,))
        empty = split_per_user(cross.target, (1.0, 0.0, 0.0), seed=0)
        with pytest.raises(ValueError, match="no user has test"):
            evaluate(model, cross, empty, ks=(3,))

    def test_valid_part_evaluation(self):
        cross, split, model = make_eval_setup()
        split = split_per_user(cross.target, (0.5, 0.25, 0.25), seed=2)
        report = evaluate(model, cross, split, ks=(3,), part="valid")
        assert report.counts["n_users_evaluated"] > 0


class TestEvalReport:
    def test_value_lookup_and_missing_row(self):
        report = EvalReport(ks=(3,), rows=[{"metric": "hr", "K": 3, "all": 0.5}])
        assert report.value("hr", 3) == 0.5
        with pytest.raises(KeyError):
            report.value("ndcg", 7)

    def test_json_round_trip_sorted_and_newline_terminated(self):
        cross, split, model = make_eval_setup(n_tgt=6)
        report = evaluate(model, cross, split, ks=(2,))
        s = report.json_str()
        assert s.endswith("\n")
        parsed = json.loads(s)
        assert parsed == json.loads(json.dumps(report.to_dict(), sort_keys=True))


def reference_evaluate(model, cross, split, ks, virtual_sources=None, part="test"):
    """The per-user definition of `evaluate`: one `rank_items` ranking per
    user, scored by the scalar `hit_rate_at_k` and `ndcg_at_k`.

    Scores come from one product over all users. BLAS may round a row of a
    smaller block product differently in the last bit; integer setups are
    exact, and the random float setups here have no gaps that small.
    """
    by_train = split.by_user("train")
    by_rel = split.by_user(part)
    users = [u for u in range(split.n_users) if by_rel[u]]
    ov_set = {int(t) for t in cross.overlap_tgt}
    q, _ = model.query_rows(np.asarray(users, dtype=np.int64), virtual_sources)
    scores = q @ model.store.get(TGT_ITEM).T
    vals = {(m, k): np.empty(len(users)) for m in ("hr", "ndcg") for k in ks}
    is_ov = np.zeros(len(users), dtype=bool)
    for b, u in enumerate(users):
        ranked = rank_items(scores[b], by_train[u])[: max(ks)]
        rel = set(by_rel[u])
        is_ov[b] = u in ov_set
        for k in ks:
            vals[("hr", k)][b] = hit_rate_at_k(ranked, rel, k)
            vals[("ndcg", k)][b] = ndcg_at_k(ranked, rel, k)
    has_both = is_ov.any() and (~is_ov).any()
    rows = []
    for m in ("hr", "ndcg"):
        for k in ks:
            v = vals[(m, k)]
            rows.append(
                {
                    "metric": m,
                    "K": k,
                    "all": float(np.mean(v)),
                    "overlap": float(np.mean(v[is_ov])) if is_ov.any() else None,
                    "nonoverlap": float(np.mean(v[~is_ov])) if (~is_ov).any() else None,
                    "ugf": ugf(v[is_ov], v[~is_ov]) if has_both else None,
                }
            )
    counts = {
        "n_users_evaluated": len(users),
        "n_overlap": int(is_ov.sum()),
        "n_nonoverlap": int((~is_ov).sum()),
        "n_skipped": split.n_users - len(users),
    }
    return EvalReport(ks=tuple(ks), rows=rows, counts=counts)


def make_ranking_setup(n_tgt, n_items, per_user, seed=0, integer=False, d=4):
    """Target users with `per_user` distinct random positives split
    (0.6, 0.2, 0.2); every third user also lives in the source domain.
    With `integer`, embeddings are drawn from {-1, 0, 1}, so scores are
    small integers and ties are everywhere.
    """
    rng = np.random.default_rng(seed)
    picks = np.argpartition(rng.random((n_tgt, n_items)), per_user - 1, axis=1)[:, :per_user]

    def domain(names):
        return DomainDataset(
            users={name: u for u, name in enumerate(names)},
            items={f"i{j}": j for j in range(n_items)},
            interactions=[(u, int(i)) for u in range(len(names)) for i in picks[u]],
        )

    target = domain([f"p{u}" if u % 3 == 0 else f"t{u}" for u in range(n_tgt)])
    source = domain([f"p{u}" for u in range(0, n_tgt, 3)])
    cross = build_cross(source, target)
    split = split_per_user(target, (0.6, 0.2, 0.2), seed=seed)
    model = CdrModel.create(cross, d=d, lam=0.5, seed=seed + 1)
    if integer:
        for name in (SRC_USER, TGT_USER, TGT_ITEM):
            emb = model.store.get(name)
            emb[:] = rng.integers(-1, 2, emb.shape)
    return cross, split, model


class TestBlockedEvaluateMatchesReference:
    """`evaluate` ranks users in blocks with `top_columns`; its report must
    equal the per-user reference byte for byte.
    """

    def assert_same(self, model, cross, split, ks, **kw):
        got = evaluate(model, cross, split, ks=ks, **kw).json_str()
        assert got == reference_evaluate(model, cross, split, ks, **kw).json_str()

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_heavy_integer_scores(self, seed):
        cross, split, model = make_ranking_setup(60, 30, 10, seed=seed, integer=True)
        self.assert_same(model, cross, split, (1, 3, 5, 10))

    def test_k_larger_than_the_item_count(self):
        cross, split, model = make_ranking_setup(50, 40, 10, seed=1)
        self.assert_same(model, cross, split, (10, 60))

    def test_fewer_candidates_than_k(self):
        # 10 positives of 12 items: 6 train leave 6 candidates for K = 10
        cross, split, model = make_ranking_setup(40, 12, 10, seed=2, integer=True)
        self.assert_same(model, cross, split, (3, 10, 20))

    def test_relevant_train_items_never_hit(self):
        # a hand-built split whose test part repeats train items: they count
        # in the ideal DCG but are excluded from the ranking
        cross, split, model = make_ranking_setup(40, 12, 10, seed=2, integer=True)
        split = dataclasses.replace(split, test=np.concatenate([split.test, split.train[::3]]))
        self.assert_same(model, cross, split, (3, 10, 20))

    def test_unsorted_ks(self):
        cross, split, model = make_ranking_setup(50, 40, 10, seed=3)
        self.assert_same(model, cross, split, (20, 1, 10))

    def test_valid_part(self):
        cross, split, model = make_ranking_setup(50, 40, 10, seed=4, integer=True)
        self.assert_same(model, cross, split, (5, 10), part="valid")

    @pytest.mark.parametrize("table", [False, True])
    def test_virtual_sources(self, table):
        """With an array, half the non-overlap users consume a virtual row
        (the other rows are zero); without one, non-overlap users rank on
        their target row alone."""
        cross, split, model = make_ranking_setup(60, 30, 10, seed=5)
        rng = np.random.default_rng(6)
        virtual = None
        if table:
            virtual = np.zeros((cross.target.n_users, model.d))
            for u in cross.target_nonoverlap[::2]:
                virtual[u] = rng.standard_normal(model.d)
        self.assert_same(model, cross, split, (5, 10), virtual_sources=virtual)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("table", [False, True])
    def test_item_relabelling_changes_nothing(self, seed, table):
        """Item ids are labels: permuting the rows of the target item table
        and the split's item ids together leaves the report unchanged, with
        and without virtual rows. Float embeddings leave no score ties, so
        the tie-break by item index never decides."""
        cross, split, model = make_ranking_setup(60, 30, 10, seed=seed)
        rng = np.random.default_rng([seed, 1])
        virtual = None
        if table:
            virtual = np.zeros((cross.target.n_users, model.d))
            virtual[cross.target_nonoverlap] = rng.standard_normal(
                (len(cross.target_nonoverlap), model.d)
            )
        before = evaluate(model, cross, split, ks=(1, 5, 10), virtual_sources=virtual).to_dict()
        perm = rng.permutation(split.n_items)  # item i becomes item perm[i]
        items = model.store.get(TGT_ITEM)
        items[perm] = items.copy()

        def relabel(rows):
            return np.column_stack((rows[:, 0], perm[rows[:, 1]]))

        relabelled = dataclasses.replace(
            split, train=relabel(split.train), valid=relabel(split.valid), test=relabel(split.test)
        )
        assert not np.array_equal(perm, np.arange(split.n_items))
        after = evaluate(model, cross, relabelled, ks=(1, 5, 10), virtual_sources=virtual)
        assert after.to_dict() == before

    @pytest.mark.parametrize("budget", [1, 30 * 3, 30 * 7 + 5])
    def test_block_boundaries(self, monkeypatch, budget):
        monkeypatch.setattr(params, "_BLOCK_CELL_BUDGET", budget)
        cross, split, model = make_ranking_setup(60, 30, 10, seed=7, integer=True)
        self.assert_same(model, cross, split, (1, 5, 10), part="valid")

    def test_non_finite_scores_follow_the_reference(self):
        cross, split, model = make_ranking_setup(30, 20, 10, seed=8)
        model.store.get(TGT_USER)[3] = np.nan
        model.store.get(TGT_ITEM)[5] = [np.inf, 0.0, 0.0, 0.0]
        self.assert_same(model, cross, split, (3, 10))

    @pytest.mark.parametrize("budget", [1, 20 * 3 + 7, 1 << 20])
    def test_shuffled_repeated_train_rows(self, monkeypatch, budget):
        """A hand-built split: train rows shuffled and every fourth one
        repeated; every fourth user keeps train rows but has no test
        positives, so its train keys fall below 0; users 6, 14, 22 and 30
        score NaN, so `rank_items` excludes each one's own slice of the
        train keys. Blocks of 1 and 3 rows cut the users into many blocks."""
        monkeypatch.setattr(params, "_BLOCK_CELL_BUDGET", budget)
        cross, split, model = make_ranking_setup(40, 20, 10, seed=9)
        rng = np.random.default_rng(9)
        train = np.concatenate([split.train, split.train[::4]])
        split = dataclasses.replace(
            split,
            train=train[rng.permutation(len(train))],
            test=split.test[split.test[:, 0] % 4 != 1],
        )
        model.store.get(TGT_USER)[6::8] = np.nan
        self.assert_same(model, cross, split, (3, 10))

    @pytest.mark.parametrize("n_items, integer, want_calls", [(30, False, 1), (12, True, 40)])
    def test_reference_ranks_only_rows_whose_top_n_is_not_below_inf(
        self, monkeypatch, n_items, integer, want_calls
    ):
        """With 30 items, item 5 scores +inf or -inf for every user and
        user 3 scores NaN throughout: a -inf item never reaches the top 10
        of 24 candidates, so only user 3 goes to `rank_items`. With 12
        items every user has 6 candidates, fewer than K = 10, so every
        top-N reaches a masked train item and all 40 users go."""
        cross, split, model = make_ranking_setup(40, n_items, 10, seed=8, integer=integer)
        model.store.get(TGT_USER)[3] = np.nan
        model.store.get(TGT_ITEM)[5] = [np.inf, 0.0, 0.0, 0.0]
        calls = []

        def counted(scores, exclude):
            calls.append(1)
            return rank_items(scores, exclude)

        with np.errstate(invalid="ignore"):  # inf x 0 in the score products
            want = reference_evaluate(model, cross, split, (3, 10)).json_str()
            monkeypatch.setattr(metrics, "rank_items", counted)
            got = evaluate(model, cross, split, ks=(3, 10)).json_str()
        assert got == want
        assert len(calls) == want_calls


class TestTwoLanes:
    """Above the cell gate each block's two row halves rank on `run_pair`'s
    two sides; threaded and inline reports must be byte-identical and equal
    the per-user reference."""

    N_ITEMS = 1100
    BLOCK = 123  # rows per block, odd: halves of 61 and 62 rows

    @pytest.mark.parametrize("part", ["test", "valid"])
    @pytest.mark.parametrize("table", [False, True])
    def test_threaded_halves_equal_inline(self, monkeypatch, both_paths, part, table):
        monkeypatch.setattr(params, "_BLOCK_CELL_BUDGET", self.BLOCK * self.N_ITEMS)
        assert self.BLOCK * self.N_ITEMS >= params._THREAD_CELL_MIN
        # integer embeddings: tied scores in every row
        cross, split, model = make_ranking_setup(400, self.N_ITEMS, 10, seed=11, integer=True)
        tgt = model.store.get(TGT_USER)
        # blocks 0 and 1 split into rows 0-60 | 61-122 and 123-183 | 184-245:
        # equal rows across each split, non-finite rows in all four halves
        tgt[60], tgt[183] = tgt[61], tgt[184]
        tgt[[5, 130]] = np.nan
        tgt[[100, 200], 0] = np.inf
        virtual = None
        if table:
            rng = np.random.default_rng(12)
            virtual = np.zeros((cross.target.n_users, model.d))
            non = cross.target_nonoverlap[::2]
            virtual[non] = rng.integers(-1, 2, (len(non), model.d))
        kw = dict(ks=(1, 5, 10), virtual_sources=virtual, part=part)
        with np.errstate(invalid="ignore"):  # inf x 0 in the score products
            threaded, inline = both_paths(lambda: evaluate(model, cross, split, **kw).json_str())
            want = reference_evaluate(model, cross, split, **kw).json_str()
        assert threaded == inline == want


def test_evaluate_at_compare_d64_size_matches_the_argsort_oracle(monkeypatch):
    """2,000 users by 500 items, one block of two 1,000-row halves, as the
    default config evaluates: the report equals one whose top-N is a
    truncated stable argsort, and the per-user reference. A zero query row
    scores -0.0 or +0.0 against each item, the case where negating the item
    table instead of the scores can flip the sign of zero; non-finite rows
    go to `rank_items`."""
    cross, split, model = make_ranking_setup(2000, 500, 20, seed=13, d=8)
    non = cross.target_nonoverlap
    model.store.get(TGT_USER)[non[:3]] = 0.0
    model.store.get(TGT_USER)[non[3]] = np.nan
    model.store.get(TGT_USER)[non[4], 0] = np.inf
    with np.errstate(invalid="ignore"):  # inf x 0 in the score products
        got = evaluate(model, cross, split, ks=(10, 20)).json_str()
        monkeypatch.setattr(
            metrics, "top_columns", lambda key, kk: np.argsort(key, axis=1, kind="stable")[:, :kk]
        )
        want = evaluate(model, cross, split, ks=(10, 20)).json_str()
        ref = reference_evaluate(model, cross, split, (10, 20)).json_str()
    assert got == want == ref


# signed zeros, infinities and NaN: few distinct values, ties everywhere
SPECIAL = [-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(0, 12),
    n=st.integers(1, 300),
    kk=st.integers(1, 40),
    pool=st.lists(st.sampled_from(SPECIAL), min_size=1, max_size=6),
    share=st.sampled_from([0.0, 0.02, 0.3, 0.9, 1.0]),
    grid=st.sampled_from([0, 4, 32]),
    seed=st.integers(0, 2**32 - 1),
)
# n = 8 kk is the smallest width the per-row bound runs at; rows of +inf or
# NaN alone go to the full argsort
@example(m=4, n=160, kk=20, pool=[0.0], share=0.0, grid=0, seed=1)
@example(m=4, n=159, kk=20, pool=[0.0], share=0.0, grid=0, seed=1)
@example(m=5, n=160, kk=20, pool=[np.inf], share=1.0, grid=0, seed=2)
@example(m=5, n=160, kk=20, pool=[np.nan], share=1.0, grid=0, seed=2)
@example(m=0, n=200, kk=5, pool=[0.0], share=0.0, grid=0, seed=3)
def test_top_columns_is_a_truncated_stable_argsort(m, n, kk, pool, share, grid, seed):
    """Normal keys, rounded to multiples of 1/grid (ties among a row's
    candidates) unless grid is 0, with a `share` of their cells drawn from
    `pool`, at widths on both sides of 8 kk."""
    rng = np.random.default_rng(seed)
    key = rng.standard_normal((m, n))
    if grid:
        key = np.round(key * grid) / grid
    cells = rng.random((m, n)) < share
    key[cells] = rng.choice(pool, size=np.count_nonzero(cells))
    want = np.argsort(key, axis=1, kind="stable")[:, :kk]
    assert np.array_equal(top_columns(key, kk), want)


@pytest.mark.parametrize("kk", [10, 20])
def test_tie_free_keys_never_take_the_full_argsort(monkeypatch, kk):
    """Distinct keys, with the +inf cells of masked train positives, give
    every row between kk and 8 kk candidates: no row needs the full sort."""
    rng = np.random.default_rng(kk)
    key = rng.standard_normal((1000, 500))
    key[rng.random(key.shape) < 0.02] = np.inf
    want = np.argsort(key, axis=1, kind="stable")[:, :kk]

    def full_argsort(key, kk):
        raise AssertionError(f"{len(key)} rows took the full argsort")

    monkeypatch.setattr(metrics, "_argsort_top", full_argsort)
    assert np.array_equal(top_columns(key, kk), want)


def test_evaluate_memory_is_bounded_in_the_user_count():
    """Peak traced memory of one evaluate grows with the block, not with
    users x items: 8x the users at the same item count stays under 1.5x.
    """

    def peak(n_users):
        n_items, per_user = 512, 10
        cross, split, model = make_ranking_setup(n_users, n_items, per_user, seed=9, d=8)
        tracemalloc.start()
        try:
            evaluate(model, cross, split, ks=(10, 20))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16_000) <= 1.5 * peak(2_000)
