"""Recommender backbone tests: query rows, BPR gradients, ranking, sampling.

At zero-initialized embeddings every pairwise score difference is 0, so the
BPR loss is softplus(0) = ln 2 = 0.6931471805599453 exactly. That anchors
the loss scale without any optimizer in the loop.
"""

import dataclasses

import numpy as np
import pytest

from vuglab.data import DomainDataset, Interactions, SplitDataset, build_cross, split_per_user
from vuglab.model import (
    SOURCE,
    SRC_ITEM,
    SRC_USER,
    TARGET,
    TGT_ITEM,
    TGT_USER,
    CdrModel,
    PositivePool,
    TrainBatch,
    _in_sorted,
    _sorted_distinct,
    sample_negatives_batch,
    softplus_sigmoid,
)
from vuglab.metrics import evaluate, rank_items
from vuglab.params import MAIN, ParameterStore, finite_diff_check

LN2 = 0.6931471805599453


def make_cross(n_src=6, n_tgt=8, n_overlap=3, n_src_items=5, n_tgt_items=7):
    """Overlap users share external ids p0..p{k-1}; every user gets two items."""
    def recs(n, k, item_prefix, n_items, other_prefix):
        out = []
        for u in range(n):
            uid = f"p{u}" if u < k else f"{other_prefix}{u}"
            out.append((uid, f"{item_prefix}{u % n_items}", 5.0))
            out.append((uid, f"{item_prefix}{(u + 1) % n_items}", 5.0))
        return out

    src = recs(n_src, n_overlap, "si", n_src_items, "s")
    tgt = recs(n_tgt, n_overlap, "ti", n_tgt_items, "t")
    return build_cross(*(DomainDataset.from_records(Interactions.from_rows(r)) for r in (src, tgt)))


def zeroed_model(cross, d=3, lam=0.5):
    model = CdrModel.create(cross, d=d, lam=lam, seed=0)
    for name in (SRC_USER, TGT_USER, SRC_ITEM, TGT_ITEM):
        model.store.get(name)[:] = 0.0
    return model


def softplus(x):
    return softplus_sigmoid(x)[0]


def sigmoid(x):
    return softplus_sigmoid(x)[1]


class TestActivations:
    def test_softplus_oracle_and_overflow(self):
        assert softplus(np.array([0.0]))[0] == LN2
        x = np.array([800.0, -800.0, 30.0])
        out = softplus(x)
        assert np.isfinite(out).all()
        assert out[0] == 800.0 and out[1] == 0.0
        np.testing.assert_allclose(out[2], np.log1p(np.exp(30.0)), rtol=1e-15)

    def test_sigmoid_oracle_and_saturation(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5
        out = sigmoid(np.array([800.0, -800.0]))
        assert np.isfinite(out).all()
        assert out[0] == 1.0 and out[1] == 0.0
        np.testing.assert_allclose(
            sigmoid(np.array([1.3])), 1.0 / (1.0 + np.exp(-1.3)), rtol=1e-15
        )

    def test_one_exp_equals_the_two_formulas_bitwise(self):
        """Both outputs are bit for bit what the separate formulas give:
        softplus with its own exp, and sigmoid split by sign with one exp per
        side through boolean-mask gathers."""

        def softplus_alone(x):
            return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

        def sigmoid_by_masks(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        rng = np.random.default_rng(0)
        tiny = np.finfo(float).tiny
        edges = np.array([0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 5e-324, -5e-324,
                          tiny / 3, -tiny / 3, tiny, -tiny, 1e300, -1e300, np.inf, -np.inf])
        for case in range(300):
            x = rng.standard_normal(4096) * 10.0 ** rng.integers(-3, 4)
            x[rng.integers(0, 4096, size=len(edges))] = edges
            sp, sg = softplus_sigmoid(x)
            assert sp.tobytes() == softplus_alone(x).tobytes(), case
            assert sg.tobytes() == sigmoid_by_masks(x).tobytes(), case


class TestVirtualTable:
    """Virtual source rows are one plain (n_target_users, d) array."""

    def test_rows_assigned_by_user_are_looked_up(self):
        """A row assigned to a non-overlap user is the row that user's
        query reads; an unassigned (zero) row reads as no row."""
        cross = make_cross()
        model = CdrModel.create(cross, d=2, lam=0.5, seed=6)
        non = cross.target_nonoverlap
        virtual = np.zeros((cross.target.n_users, 2))
        virtual[non[0]] = [1.0, 2.0]
        virtual[non[2]] = [3.0, 4.0]
        tu = model.store.get(TGT_USER)
        q, _ = model.query_rows(non[:3], virtual)
        assert np.array_equal(q[0], tu[non[0]] + 0.5 * np.array([1.0, 2.0]))
        assert np.array_equal(q[1], model.query_rows(non[1:2], None)[0][0])
        assert np.array_equal(q[2], tu[non[2]] + 0.5 * np.array([3.0, 4.0]))

    def test_empty_table_reads_as_no_table(self):
        """`query_rows` applies any array it is given; an all-zero one gives
        `q` bitwise equal to passing None (an array with rows:
        `test_query_rows_dict_and_table_agree`)."""
        cross = make_cross()
        model = CdrModel.create(cross, d=3, lam=0.5, seed=6)
        users = np.arange(cross.target.n_users, dtype=np.int64)
        q_none, src_none = model.query_rows(users, None)
        q_empty, src_empty = model.query_rows(users, np.zeros((cross.target.n_users, 3)))
        assert q_empty.tobytes() == q_none.tobytes()
        assert np.array_equal(src_empty, src_none)


class TestModelBasics:
    def test_create_registers_main_tables(self):
        cross = make_cross()
        model = CdrModel.create(cross, d=4, seed=3)
        assert set(model.store.names(MAIN)) == {SRC_USER, TGT_USER, SRC_ITEM, TGT_ITEM}
        assert model.store.get(TGT_USER).shape == (cross.target.n_users, 4)
        assert model.store.get(SRC_ITEM).shape == (cross.source.n_items, 4)

    def test_validation(self):
        cross = make_cross()
        with pytest.raises(ValueError, match="lam"):
            CdrModel.create(cross, d=2, lam=1.5)
        with pytest.raises(ValueError, match="lam"):
            CdrModel.create(cross, d=2, lam=float("nan"))
        store = CdrModel.create(cross, d=2).store
        with pytest.raises(ValueError, match="dim"):
            CdrModel(store, d=3, lam=0.5, src_of_tgt=cross.src_of_tgt())

    def test_hand_score_oracle(self):
        cross = make_cross(n_overlap=2)
        model = zeroed_model(cross, d=2, lam=0.5)
        tu = model.store.get(TGT_USER)
        su = model.store.get(SRC_USER)
        ti = model.store.get(TGT_ITEM)
        ov_t, ov_s = int(cross.overlap_tgt[0]), int(cross.overlap_src[0])
        non = int(cross.target_nonoverlap[0])
        tu[ov_t] = [1.0, 0.0]
        su[ov_s] = [0.0, 2.0]
        tu[non] = [0.0, 1.0]
        ti[3] = [1.0, 1.0]
        vt = np.zeros((cross.target.n_users, 2))
        vt[non] = [2.0, 0.0]

        def score(u, virtual=None):
            return float(model.query_rows(np.array([u]), virtual)[0][0] @ ti[3])

        # overlap: (e_t + lam e_s) . e_i = (1, 1) . (1, 1) = 2
        assert score(ov_t) == 2.0
        # nonoverlap without a virtual source: e_t . e_i = 1
        assert score(non) == 1.0
        # nonoverlap with a virtual source v: (e_t + lam v) . e_i
        assert score(non, vt) == 2.0

    def test_query_rows_match_per_item_dot_products(self):
        cross = make_cross()
        model = CdrModel.create(cross, d=3, lam=0.7, seed=1)
        u = int(cross.overlap_tgt[0])
        q, _ = model.query_rows(np.array([u]), None)
        all_scores = q[0] @ model.store.get(TGT_ITEM).T
        e_q = model.store.get(TGT_USER)[u] + 0.7 * model.store.get(SRC_USER)[cross.src_of_tgt()[u]]
        # matrix-vector vs dot product may differ in the last ulp
        for i in range(cross.target.n_items):
            np.testing.assert_allclose(
                all_scores[i], float(e_q @ model.store.get(TGT_ITEM)[i]), rtol=1e-12
            )

    def test_virtual_source_shape_checked(self):
        cross = make_cross()
        model = CdrModel.create(cross, d=3)
        u = int(cross.target_nonoverlap[0])
        vt = np.zeros((cross.target.n_users, 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            model.query_rows(np.array([u]), vt)


class TestModeEquivalences:
    def test_vug_with_true_source_matches_cdr(self):
        """An overlapping user's true source row wins over any virtual row."""
        cross = make_cross()
        model = CdrModel.create(cross, d=3, lam=0.6, seed=5)
        src = model.store.get(SRC_USER)
        vt = np.zeros((cross.target.n_users, 3))
        vt[cross.overlap_tgt] = src[cross.overlap_src] + 1.0
        q_vug, _ = model.query_rows(cross.overlap_tgt, vt)
        assert np.array_equal(q_vug, model.query_rows(cross.overlap_tgt, None)[0])

    def test_query_rows_dict_and_table_agree(self):
        """An array filled from a {user: row} map feeds exactly those rows
        to the non-overlap users it holds, and nothing to the others."""
        cross = make_cross()
        model = CdrModel.create(cross, d=3, lam=0.5, seed=6)
        rng = np.random.default_rng(0)
        vmap = {int(u): rng.standard_normal(3) for u in cross.target_nonoverlap[:2]}
        vt = np.zeros((cross.target.n_users, 3))
        for u, row in vmap.items():
            vt[u] = row
        users = np.arange(cross.target.n_users, dtype=np.int64)
        q_t, s_t = model.query_rows(users, vt)
        q_0, s_0 = model.query_rows(users, None)
        tu = model.store.get(TGT_USER)
        for b, u in enumerate(users):
            if u in vmap:
                assert np.array_equal(q_t[b], tu[u] + 0.5 * vmap[u])
            else:
                assert np.array_equal(q_t[b], q_0[b])
        assert np.array_equal(s_t, s_0)
        # the users fed a virtual row are non-overlap ones
        assert (s_t[list(vmap)] < 0).all()


class TestBprLoss:
    def test_ln2_at_zero_embeddings(self):
        cross = make_cross()
        model = zeroed_model(cross, lam=0.5)
        batch = TrainBatch(TARGET, [0, 1, 2], [0, 1, 2], [3, 4, 5])
        loss, grads = model.bpr_loss(batch)
        assert loss == LN2
        assert set(grads) == {TGT_USER, TGT_ITEM, SRC_USER}
        src_batch = TrainBatch(SOURCE, [0, 1], [0, 1], [2, 3])
        loss_s, grads_s = model.bpr_loss(src_batch)
        assert loss_s == LN2
        assert set(grads_s) == {SRC_USER, SRC_ITEM}

    def test_lambda_zero_drops_source_gradient(self):
        cross = make_cross()
        model = CdrModel.create(cross, d=3, lam=0.0, seed=2)
        _, grads = model.bpr_loss(TrainBatch(TARGET, [0, 1], [0, 1], [2, 3]))
        assert SRC_USER not in grads

    def test_source_gradients_match_finite_differences(self):
        cross = make_cross()
        model = CdrModel.create(cross, d=3, seed=7)
        batch = TrainBatch(SOURCE, [0, 1, 2, 3], [0, 1, 2, 3], [4, 0, 1, 2])
        _, grads = model.bpr_loss(batch)
        err = finite_diff_check(
            lambda: model.bpr_loss(batch)[0],
            model.store,
            grads,
            names=[SRC_USER, SRC_ITEM],
            n_probe=80,
            seed=1,
        )
        assert err <= 1e-6

    def test_target_gradients_match_finite_differences(self):
        cross = make_cross()
        model = CdrModel.create(cross, d=3, lam=0.8, seed=8)
        rng = np.random.default_rng(3)
        vmap = np.zeros((cross.target.n_users, 3))
        for u in cross.target_nonoverlap:
            vmap[u] = rng.standard_normal(3)
        users = np.concatenate([cross.overlap_tgt, cross.target_nonoverlap[:2]])
        batch = TrainBatch(
            TARGET, users, np.arange(len(users)), np.arange(len(users)) + 1
        )
        _, grads = model.bpr_loss(batch, vmap)
        err = finite_diff_check(
            lambda: model.bpr_loss(batch, vmap)[0],
            model.store,
            grads,
            names=[TGT_USER, TGT_ITEM, SRC_USER],
            n_probe=80,
            seed=2,
        )
        assert err <= 1e-6

    def test_empty_batch_rejected(self):
        cross = make_cross()
        model = CdrModel.create(cross, d=3)
        with pytest.raises(ValueError, match="non-empty"):
            model.bpr_loss(TrainBatch(TARGET, [], [], []))


class TestTrainBatch:
    def test_validation(self):
        with pytest.raises(ValueError, match="domain"):
            TrainBatch("both", [0], [0], [0])
        with pytest.raises(ValueError, match="equal length"):
            TrainBatch(TARGET, [0, 1], [0], [0])


class TestRecommendTopk:
    """Top-K recommendation is `rank_items` over one `query_rows` row."""

    def _model(self):
        cross = make_cross()
        model = zeroed_model(cross, d=2, lam=0.0)
        ti = model.store.get(TGT_ITEM)
        tu = model.store.get(TGT_USER)
        tu[0] = [1.0, 0.0]
        for i in range(cross.target.n_items):
            ti[i] = [float(i), 0.0]
        return cross, model

    @staticmethod
    def topk(model, K, exclude):
        q, _ = model.query_rows(np.array([0]), None)
        return rank_items(q[0] @ model.store.get(TGT_ITEM).T, exclude)[:K].tolist()

    def test_ordering_and_exclusion(self):
        cross, model = self._model()
        n = cross.target.n_items
        assert self.topk(model, 3, exclude=set()) == [n - 1, n - 2, n - 3]
        assert self.topk(model, 3, exclude={n - 1, n - 3}) == [n - 2, n - 4, n - 5]

    def test_affine_score_invariance(self):
        """Positive query scaling multiplies all scores; a shared item offset
        adds a per-user constant. Neither may change the ranking."""
        cross, model = self._model()
        base = self.topk(model, 5, exclude={2})
        model.store.get(TGT_USER)[0] *= 3.7
        model.store.get(TGT_ITEM)[:] += np.array([0.9, -4.2])
        assert self.topk(model, 5, exclude={2}) == base

    def test_tie_break_is_ascending_index(self):
        cross, model = self._model()
        model.store.get(TGT_ITEM)[:] = 1.0
        assert self.topk(model, 4, exclude={0}) == [1, 2, 3, 4]

    def test_k_validation_and_exhaustion(self):
        cross, model = self._model()
        split = split_per_user(cross.target, (0.5, 0.0, 0.5), seed=0)
        with pytest.raises(ValueError):
            evaluate(model, cross, split, ks=(0,))
        n = cross.target.n_items
        assert len(self.topk(model, n + 10, exclude={0})) == n - 1
        assert self.topk(model, 3, exclude=set(range(n))) == []


class TestNegativeSampling:
    def _split(self, n_users=6, n_items=12, per_user=4, seed=0):
        # the modular stride covers every item index, so the split has the
        # full vocabulary without any user holding all items
        recs = [
            (f"u{u}", f"i{(u * 3 + j) % n_items}", 5.0)
            for u in range(n_users)
            for j in range(per_user)
        ]
        ds = DomainDataset.from_records(Interactions.from_rows(recs))
        assert ds.n_items == n_items
        return split_per_user(ds, (1.0, 0.0, 0.0), seed=seed)

    def test_never_draws_a_positive(self):
        split = self._split()
        pool = PositivePool.from_split(split)
        pos = {i for uu, i in split.train.tolist() if uu == 2}
        draws = sample_negatives_batch(pool.keys, pool.n_items, np.full(200, 2), np.random.default_rng(0))
        assert not (set(draws.tolist()) & pos)

    def test_keys_are_the_sorted_distinct_pairs(self):
        split = self._split()
        repeated = np.concatenate([split.train, split.train[::3]])
        for train in (split.train, repeated, split.train[:0]):
            part = dataclasses.replace(split, train=train)
            keys = PositivePool.from_split(part).keys
            assert keys.dtype == np.int64
            assert np.array_equal(keys, np.unique(train[:, 0] * split.n_items + train[:, 1]))

    @pytest.mark.parametrize(
        "keys",
        [[], [7], [4, 4, 4, 4], [5, 1, 5, 3, 1, 1, 9, -2, 3], list(range(50, 0, -3)) * 3],
    )
    def test_sorted_distinct_is_np_unique(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        got = _sorted_distinct(keys)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(keys))
        rng = np.random.default_rng(len(keys))
        drawn = rng.integers(-20, 20, size=5 * len(keys))
        assert np.array_equal(_sorted_distinct(drawn), np.unique(drawn))

    @pytest.mark.parametrize("keys", [[7], [-3, 0, 4, 9], list(range(-40, 60, 7))])
    def test_in_sorted_is_np_isin(self, keys):
        """Queries below the first key, above the last, equal to each key and
        between keys, flat and as a 2-d array."""
        keys = np.asarray(keys, dtype=np.int64)
        q = np.concatenate([[keys[0] - 5, keys[0] - 1], keys, keys + 1, [keys[-1] + 1, 10**12]])
        for query in (q, q[::-1], q[: len(q) // 2 * 2].reshape(2, -1)):
            got = _in_sorted(keys, query)
            assert got.shape == query.shape
            assert np.array_equal(got, np.isin(query, keys))

    def test_saturated_user_rejected(self):
        recs = [("u0", f"i{j}", 5.0) for j in range(4)]
        ds = DomainDataset.from_records(Interactions.from_rows(recs))
        split = split_per_user(ds, (1.0, 0.0, 0.0), seed=0)
        with pytest.raises(ValueError, match="user 0 has no eligible negative"):
            PositivePool.from_split(split)

    def test_mask_and_set_paths_share_the_draw_sequence(self):
        """The sorted-key sampler makes the draws of the dense-mask and
        per-user-set rejection loops it replaced, from the same generator."""
        split = self._split()
        pool = PositivePool.from_split(split)
        mask = np.zeros((split.n_users, split.n_items), dtype=bool)
        for u, i in split.train:
            mask[u, i] = True
        user_positives = [frozenset(np.flatnonzero(row).tolist()) for row in mask]
        users = np.asarray([2, 3, 4, 5] * 10, dtype=np.int64)

        def mask_loop(rng):
            out = rng.integers(0, split.n_items, size=len(users))
            bad = mask[users, out]
            while bad.any():
                idx = np.flatnonzero(bad)
                out[idx] = rng.integers(0, split.n_items, size=len(idx))
                bad[idx] = mask[users[idx], out[idx]]
            return out

        def set_loop(rng):
            out = rng.integers(0, split.n_items, size=len(users))
            bad = np.array([int(o) in user_positives[u] for u, o in zip(users, out)])
            while bad.any():
                idx = np.flatnonzero(bad)
                out[idx] = rng.integers(0, split.n_items, size=len(idx))
                bad[idx] = [int(out[b]) in user_positives[users[b]] for b in idx]
            return out

        got = sample_negatives_batch(pool.keys, pool.n_items, users, np.random.default_rng(7))
        assert np.array_equal(got, mask_loop(np.random.default_rng(7)))
        assert np.array_equal(got, set_loop(np.random.default_rng(7)))
        for u, neg in zip(users, got):
            assert int(neg) not in user_positives[u]

    def test_pool_batches_cover_all_positives(self):
        split = self._split()
        pool = PositivePool.from_split(split)
        positives = set(map(tuple, split.train.tolist()))
        rng = np.random.default_rng(1)
        seen = []
        for u, p, n in pool.iter_batches(batch_size=7, rng=rng):
            assert len(u) == len(p) == len(n)
            for uu, nn in zip(u.tolist(), n.tolist()):
                assert (uu, nn) not in positives
            seen += list(zip(u.tolist(), p.tolist()))
        assert sorted(seen) == sorted(map(tuple, split.train.tolist()))
