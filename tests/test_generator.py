"""Dual-attention generator tests.

Oracle notes
------------
With identity value/query/key matrices and zero biases the logits collapse
to plain scaled dot products, so tiny instances have hand-checkable values:
at d=1, q=2 against keys [1, 3] gives beta = (2, 6). softmax([2, 6]) is
(1/(1+e^4), e^4/(1+e^4)). These are frozen below.
"""

import multiprocessing
import sys

import numpy as np
import pytest

from vuglab.data import DomainDataset, Interactions, build_cross
from vuglab.generator import (
    GEN_TENSORS,
    AttentionCache,
    GeneratorParams,
    attention_backward,
    _softmax_inplace,
    attention_forward,
    compute_item_profiles,
    forward_users,
    knn_generate,
    knn_generate_all,
)
from vuglab import generator, params
from vuglab.params import GEN, MAIN, ParameterStore, finite_diff_check


def make_gp(d=4, gamma1=0.5, seed=0, noise=0.0):
    """Identity-initialized generator params whose matrices are then jittered
    in place by `noise` standard normals."""
    store = ParameterStore()
    gp = GeneratorParams.create(store, d=d, gamma1=gamma1)
    rng = np.random.default_rng(seed)
    for name in ("gen_wv", "gen_wq", "gen_wk"):
        w = store.get(name)
        w += noise * rng.standard_normal(w.shape)
    return gp, store


def tiny_cross(n_src=4, n_tgt=5, n_overlap=3):
    """Overlap pairs (s, t) = (0,0), (1,1), ... via shared external ids."""
    src = [(f"p{u}" if u < n_overlap else f"s{u}", f"si{u}", 5.0) for u in range(n_src)]
    tgt = [(f"p{u}" if u < n_overlap else f"t{u}", f"ti{u}", 5.0) for u in range(n_tgt)]
    return build_cross(*(DomainDataset.from_records(Interactions.from_rows(r)) for r in (src, tgt)))


class TestParamsAndInit:
    def test_gamma1_validated(self):
        store = ParameterStore()
        gp = GeneratorParams.create(store, d=2)
        with pytest.raises(ValueError):
            GeneratorParams(store=store, d=2, gamma1=1.5)
        assert gp.gamma1 == 0.5

    def test_create_registers_identity_init_in_gen_partition(self):
        """The value map, then the query and key maps stacked over the two
        channels on axis 0: matrices at identity, biases at zero."""
        _, store = make_gp(d=3)
        assert store.names(GEN) == list(GEN_TENSORS)
        eye, eye2 = np.eye(3), np.stack([np.eye(3)] * 2)
        want = {
            "gen_wv": eye, "gen_bv": np.zeros(3), "gen_wq": eye2,
            "gen_bq": np.zeros((2, 3)), "gen_wk": eye2, "gen_bk": np.zeros((2, 3)),
        }
        for name in GEN_TENSORS:
            assert store.get(name).shape == want[name].shape, name
            assert np.array_equal(store.get(name), want[name]), name


def forward(gp, q_user, k_user, q_item=None, k_item=None, source=None):
    """attention_forward on per-channel rows, with the item channel and the
    source rows defaulting to copies of the user channel's inputs."""
    q_item = q_user if q_item is None else q_item
    k_item = k_user if k_item is None else k_item
    source = k_user if source is None else source
    return attention_forward(gp, np.stack([q_user, q_item]), np.stack([k_user, k_item]), source)


class TestChannelLogits:
    def test_identity_init_is_scaled_dot_product(self):
        gp, _ = make_gp(d=4, gamma1=1.0)
        rng = np.random.default_rng(0)
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((5, 4))
        _, cache = forward(gp, q, k)
        np.testing.assert_allclose(cache.qt[0] @ cache.kt[0].T, q @ k.T, atol=1e-14)
        np.testing.assert_allclose(
            cache.alpha_c[0], _softmax_inplace((q @ k.T) / 2.0), atol=1e-14
        )

    def test_one_dimensional_oracle(self):
        # beta = (2, 6), so the weights are softmax([2, 6])
        gp, _ = make_gp(d=1, gamma1=1.0)
        _, cache = forward(gp, np.array([[2.0]]), np.array([[1.0], [3.0]]))
        e4 = np.exp(4.0)
        np.testing.assert_allclose(cache.alpha[0], [1 / (1 + e4), e4 / (1 + e4)], atol=1e-15)

    def test_single_query_returns_vector(self):
        gp, _ = make_gp(d=2)
        out, cache = forward(gp, np.zeros((1, 2)), np.zeros((4, 2)))
        assert out.shape == (1, 2)
        assert cache.alpha.shape == (1, 4)

    def test_bad_dims_rejected(self):
        gp, _ = make_gp(d=2)
        with pytest.raises(ValueError, match="dim"):
            forward(gp, np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="overlapping"):
            forward(gp, np.zeros((1, 2)), np.zeros((0, 2)))


class TestAttentionWeights:
    def test_convex_combination_sweep(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            gp, _ = make_gp(d=2, gamma1=float(rng.uniform()), noise=0.5)
            q = rng.standard_normal((3, 2)) * 3.0
            _, cache = forward(gp, q, rng.standard_normal((n, 2)), q[::-1], rng.standard_normal((n, 2)))
            assert np.abs(cache.alpha.sum(axis=1) - 1.0).max() <= 1e-9
            assert (cache.alpha >= 0).all()

    def test_gamma_endpoints_select_single_channel(self):
        rng = np.random.default_rng(1)
        inputs = [rng.standard_normal((2, 2)), rng.standard_normal((3, 2))] * 2
        gp_u, _ = make_gp(d=2, gamma1=1.0)
        gp_i, _ = make_gp(d=2, gamma1=0.0)
        _, cache_u = forward(gp_u, *inputs)
        _, cache_i = forward(gp_i, *inputs)
        assert np.array_equal(cache_u.alpha, cache_u.alpha_c[0])
        assert np.array_equal(cache_i.alpha, cache_i.alpha_c[1])

    def test_softmax_oracle(self):
        beta = np.array([[0.0, np.log(2.0)]])
        out = _softmax_inplace(beta)
        assert out is beta
        np.testing.assert_allclose(out, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)

    def test_shift_invariance(self):
        """Shifting a key bias adds q_t . shift / sqrt(d) to a whole logit
        row; the softmax must not move."""
        rng = np.random.default_rng(3)
        gp, store = make_gp(d=2, gamma1=0.4, noise=0.3, seed=1)
        for _ in range(50):
            args = [rng.standard_normal((4, 2)), rng.standard_normal((6, 2))] * 2
            base = forward(gp, *args)[1].alpha
            for c in range(2):
                store.get("gen_bk")[c] = rng.uniform(-30, 30) * rng.standard_normal(2)
            moved = forward(gp, *args)[1].alpha
            store.get("gen_bk")[:] = 0.0
            np.testing.assert_allclose(moved, base, atol=1e-12)
            beta = rng.standard_normal((4, 6))
            shift = rng.uniform(-30, 30, size=(4, 1))
            np.testing.assert_allclose(
                _softmax_inplace(beta + shift), _softmax_inplace(beta), atol=1e-12
            )

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        gp, _ = make_gp(d=2, gamma1=0.7, noise=0.3)
        for _ in range(50):
            q_u, q_i = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
            k_u, k_i, s = (rng.standard_normal((7, 2)) for _ in range(3))
            perm = rng.permutation(7)
            out, base = forward(gp, q_u, k_u, q_i, k_i, s)
            out_p, moved = forward(gp, q_u, k_u[perm], q_i, k_i[perm], s[perm])
            np.testing.assert_allclose(moved.alpha, base.alpha[:, perm], atol=1e-12)
            np.testing.assert_allclose(out_p, out, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        au = _softmax_inplace(np.array([[800.0, -800.0]]))
        ai = _softmax_inplace(np.array([[-700.0, 700.0]]))
        alpha = 0.5 * au + 0.5 * ai
        assert np.isfinite(alpha).all()
        assert abs(alpha.sum() - 1.0) <= 1e-9
        gp, _ = make_gp(d=1, gamma1=0.5)
        _, cache = forward(gp, np.array([[40.0]]), np.array([[40.0], [-40.0]]),
                           np.array([[-40.0]]), np.array([[40.0], [-40.0]]))
        assert np.isfinite(cache.alpha).all()
        assert abs(cache.alpha.sum() - 1.0) <= 1e-9

    def test_mismatched_lengths_rejected(self):
        gp, _ = make_gp(d=2)
        with pytest.raises(ValueError):
            attention_forward(gp, np.zeros((2, 1, 2)), np.zeros((2, 3, 2)), np.zeros((4, 2)))


class TestGenerateVirtual:
    def test_identity_params_weighted_mean(self):
        gp, _ = make_gp(d=3)
        rng = np.random.default_rng(2)
        s = np.arange(12, dtype=float).reshape(4, 3)
        out, cache = forward(gp, rng.standard_normal((2, 3)), rng.standard_normal((4, 3)), source=s)
        np.testing.assert_allclose(out, cache.alpha @ s, atol=1e-12)

    def test_validation(self):
        gp, _ = make_gp(d=3)
        z, k = np.zeros((1, 3)), np.zeros((4, 3))
        _, cache = forward(gp, z, k)
        np.testing.assert_allclose(cache.alpha.sum(axis=1), 1.0, atol=1e-15)
        with pytest.raises(ValueError):
            forward(gp, z, k, source=np.zeros((1, 3)))
        with pytest.raises(ValueError, match="dim"):
            forward(gp, z, k, source=np.zeros((4, 2)))


def _pairs(by_user):
    """(user, item) rows of per-user item lists."""
    rows = [(u, i) for u, items in enumerate(by_user) for i in items]
    return np.asarray(rows, dtype=np.int64).reshape(-1, 2)


class TestProfiles:
    def test_profile_is_mean_of_train_items(self):
        embs = np.arange(10, dtype=float).reshape(5, 2)
        profiles, valid = compute_item_profiles(_pairs([[0, 2, 4], [1]]), 2, embs)
        np.testing.assert_allclose(profiles[0], embs[[0, 2, 4]].mean(axis=0))
        np.testing.assert_allclose(profiles[1], embs[1])
        assert valid.all()

    def test_empty_history_raises(self):
        cross = tiny_cross(n_src=2, n_tgt=3, n_overlap=1)
        profiles, valid = compute_item_profiles(_pairs([[0], [1], []]), 3, np.ones((3, 2)))
        assert list(valid) == [True, True, False]
        gp, _ = make_gp(d=2)
        with pytest.raises(ValueError, match="without item profiles"):
            forward_users(gp, [2], cross, np.ones((3, 2)), np.ones((2, 2)), profiles, valid)

    def test_batched_matches_single_and_flags_empty(self):
        rng = np.random.default_rng(5)
        embs = rng.standard_normal((8, 3))
        by_user = [[0, 1], [], [3, 4, 5], [7]]
        profiles, valid = compute_item_profiles(_pairs(by_user), 4, embs)
        assert list(valid) == [True, False, True, True]
        for u in (0, 2, 3):
            np.testing.assert_allclose(profiles[u], embs[by_user[u]].mean(axis=0), atol=1e-14)
        assert np.array_equal(profiles[1], np.zeros(3))

    def test_all_empty_users(self):
        profiles, valid = compute_item_profiles(_pairs([[], []]), 2, np.zeros((2, 4)))
        assert profiles.shape == (2, 4) and not valid.any()


class TestForwardBackward:
    def _random_inputs(self, seed, n_q=6, n_k=4, d=3):
        """Stacked queries (2, n_q, d), stacked keys (2, n_k, d), source rows."""
        rng = np.random.default_rng(seed)
        return (
            rng.standard_normal((2, n_q, d)),
            rng.standard_normal((2, n_k, d)),
            rng.standard_normal((n_k, d)),
        )

    def test_cache_and_no_cache_paths_bitwise_equal(self):
        qs, ks, s = self._random_inputs(9)
        gp, _ = make_gp(d=3, gamma1=0.3, noise=0.2, seed=2)
        with_cache, cache = attention_forward(gp, qs, ks, s, need_cache=True)
        without, none = attention_forward(gp, qs, ks, s, need_cache=False)
        assert isinstance(cache, AttentionCache) and none is None
        assert with_cache.tobytes() == without.tobytes()

    def test_empty_overlap_rejected(self):
        gp, _ = make_gp(d=3)
        with pytest.raises(ValueError, match="at least one overlapping"):
            attention_forward(gp, np.zeros((2, 2, 3)), np.zeros((2, 0, 3)), np.zeros((0, 3)))

    def test_backward_matches_finite_differences_on_all_tensors(self):
        """Every GEN tensor is wired into the backward pass with a finite,
        finite-difference-consistent gradient. Key biases shift a whole
        logit row by a per-query constant, so softmax shift invariance
        forces their gradient to vanish; everything else must move under a
        generic loss."""
        qs, ks, s = self._random_inputs(21, n_q=5, n_k=6, d=4)
        gp, store = make_gp(d=4, gamma1=0.4, noise=0.3, seed=13)
        w = np.random.default_rng(1).standard_normal((5, 4))

        def loss_fn():
            out, _ = attention_forward(gp, qs, ks, s, need_cache=False)
            return float((w * out).sum())

        _, cache = attention_forward(gp, qs, ks, s)
        grads = attention_backward(gp, cache, w)
        assert set(grads) == set(GEN_TENSORS)
        for name in GEN_TENSORS:
            g = grads[name]
            assert g.shape == store.get(name).shape
            assert np.isfinite(g).all(), f"{name} gradient not finite"
            # the stacked maps are checked one channel slice at a time
            for part in [g] if name in ("gen_wv", "gen_bv") else g:
                if name == "gen_bk":
                    assert np.abs(part).max() <= 1e-12
                else:
                    assert np.abs(part).max() > 1e-8, f"{name} has a dead gradient"
        err = finite_diff_check(loss_fn, store, grads, names=list(GEN_TENSORS), n_probe=120, seed=3)
        assert err <= 1e-5

    def test_gamma_endpoint_kills_other_channel_gradients(self):
        """At gamma1 1 the item slice (1) of every stacked gradient is zero."""
        qs, ks, s = self._random_inputs(2)
        gp, _ = make_gp(d=3, gamma1=1.0, noise=0.2, seed=5)
        _, cache = attention_forward(gp, qs, ks, s)
        grads = attention_backward(gp, cache, np.ones((6, 3)))
        for name in ("gen_wq", "gen_bq", "gen_wk", "gen_bk"):
            assert np.abs(grads[name][1]).max() == 0.0
        assert np.abs(grads["gen_wq"][0]).max() > 0.0


def _above_the_gate(seed=0, n_q=512, n_k=300, d=8):
    """Generator params and attention inputs with n_q * n_k above the
    `run_pair` cell gate."""
    assert n_q * n_k >= params._THREAD_CELL_MIN
    gp, _ = make_gp(d=d, gamma1=0.35, noise=0.3, seed=seed)
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal(shape) for shape in ((2, n_q, d), (2, n_k, d), (n_k, d))]
    return gp, inputs, rng.standard_normal((n_q, d))


class TestPairedChannels:
    """The two channels run side by side above the cell gate; every output
    must be bitwise what the inline path gives."""

    def test_forward_and_backward_equal_inline(self, both_paths):
        gp, inputs, d_out = _above_the_gate()

        def run():
            out, cache = attention_forward(gp, *inputs, need_cache=True)
            plain, _ = attention_forward(gp, *inputs, need_cache=False)
            grads = attention_backward(gp, cache, d_out)
            arrays = {"out": out, "plain": plain, "alpha": cache.alpha, "values": cache.values,
                      "alpha_c": cache.alpha_c, "qt": cache.qt, "kt": cache.kt}
            return {**arrays, **grads}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads swap the interpreter lock often
        try:
            threaded, inline = both_paths(run)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.keys() == inline.keys()
        for key in threaded:
            assert threaded[key].tobytes() == inline[key].tobytes(), key

    def test_forked_child_gets_a_working_pool(self, pair_worker):
        """A child forked after the parent used the worker inherits an
        executor whose thread is gone; it must start its own, not hang."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        gp, inputs, _ = _above_the_gate(seed=4)
        expected, _ = attention_forward(gp, *inputs, need_cache=False)
        assert params._worker is not None

        def child():
            out, _ = attention_forward(gp, *inputs, need_cache=False)
            if out.tobytes() != expected.tobytes():
                raise SystemExit(1)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        hung = proc.is_alive()
        if hung:
            proc.kill()
            proc.join()
        assert not hung, "the forked child's attention pass never finished"
        assert proc.exitcode == 0


class TestForwardUsers:
    def _setup(self, seed=0, d=3):
        cross = tiny_cross(n_src=4, n_tgt=5, n_overlap=3)
        rng = np.random.default_rng(seed)
        tgt_e = rng.standard_normal((cross.target.n_users, d))
        src_e = rng.standard_normal((cross.source.n_users, d))
        profiles = rng.standard_normal((cross.target.n_users, d))
        valid = np.ones(cross.target.n_users, dtype=bool)
        return cross, tgt_e, src_e, profiles, valid

    def test_matches_manual_attention(self):
        cross, tgt_e, src_e, profiles, valid = self._setup()
        gp, _ = make_gp(d=3, gamma1=0.6, noise=0.1, seed=1)
        users = np.asarray(cross.target_nonoverlap)
        ov_t = cross.overlap_tgt
        out, _ = forward_users(gp, users, cross, tgt_e, src_e, profiles, valid)
        expected, _ = attention_forward(
            gp,
            np.stack([tgt_e[users], profiles[users]]),
            np.stack([tgt_e[ov_t], profiles[ov_t]]),
            src_e[cross.overlap_src],
        )
        assert out.tobytes() == expected.tobytes()

    def test_invalid_profile_rejected(self):
        cross, tgt_e, src_e, profiles, valid = self._setup()
        gp, _ = make_gp(d=3)
        users = np.asarray(cross.target_nonoverlap)
        bad = valid.copy()
        bad[users[0]] = False
        with pytest.raises(ValueError, match="without item profiles"):
            forward_users(gp, users, cross, tgt_e, src_e, profiles, bad)
        bad2 = valid.copy()
        bad2[cross.overlap_tgt[0]] = False
        with pytest.raises(ValueError, match="overlapping users lack"):
            forward_users(gp, users, cross, tgt_e, src_e, profiles, bad2)

    def test_covers_both_groups(self):
        cross, tgt_e, src_e, profiles, valid = self._setup()
        gp, _ = make_gp(d=3, gamma1=0.5)
        for users in (cross.target_nonoverlap, cross.overlap_tgt):
            out, _ = forward_users(gp, users, cross, tgt_e, src_e, profiles, valid)
            assert out.shape == (len(users), 3) and np.isfinite(out).all()

    def test_breakdown_shapes(self):
        cross, tgt_e, src_e, profiles, valid = self._setup()
        gp, _ = make_gp(d=3, gamma1=0.5)
        users = cross.target_nonoverlap[:1]
        _, cache = forward_users(gp, users, cross, tgt_e, src_e, profiles, valid)
        n_ov = len(cross.overlap_tgt)
        assert cache.alpha_c.shape == (2, 1, n_ov) and cache.alpha.shape == (1, n_ov)
        assert cache.queries.shape == (2, 1, 3) and cache.keys.shape == (2, n_ov, 3)


class TestKnn:
    def _setup(self, seed=0, d=3):
        cross = tiny_cross(n_src=5, n_tgt=6, n_overlap=4)
        rng = np.random.default_rng(seed)
        tgt_e = rng.standard_normal((cross.target.n_users, d))
        src_e = rng.standard_normal((cross.source.n_users, d))
        return cross, tgt_e, src_e

    def test_single_neighbor_equals_one_hot_attention(self):
        """With one neighbor, identity value map, and a one-hot weight at the
        cosine argmax, the learned and non-learned generators coincide."""
        cross, tgt_e, src_e = self._setup(seed=8)
        _, store = make_gp(d=3)
        u = int(cross.target_nonoverlap[0])
        got = knn_generate(cross, tgt_e, src_e, [u], n_neighbors=1)[0]
        keys = tgt_e[cross.overlap_tgt]
        cos = keys @ tgt_e[u] / (np.linalg.norm(keys, axis=1) * np.linalg.norm(tgt_e[u]))
        alpha = np.zeros(len(keys))
        alpha[int(np.argmax(cos))] = 1.0
        values = src_e[cross.overlap_src] @ store.get("gen_wv").T + store.get("gen_bv")
        np.testing.assert_allclose(got, alpha @ values, atol=1e-12)

    def test_mean_of_top_neighbors(self):
        cross, tgt_e, src_e = self._setup(seed=2)
        u = int(cross.target_nonoverlap[0])
        keys = tgt_e[cross.overlap_tgt]
        cos = keys @ tgt_e[u] / (np.linalg.norm(keys, axis=1) * np.linalg.norm(tgt_e[u]))
        top2 = np.argsort(-cos, kind="stable")[:2]
        expected = src_e[cross.overlap_src[top2]].mean(axis=0)
        np.testing.assert_allclose(knn_generate(cross, tgt_e, src_e, [u], 2)[0], expected, atol=1e-12)

    def test_tie_break_prefers_lower_overlap_index(self):
        # two overlap users share the exact same target embedding
        cross = tiny_cross(n_src=3, n_tgt=4, n_overlap=2)
        tgt_e = np.zeros((4, 2))
        tgt_e[cross.overlap_tgt[0]] = [1.0, 0.0]
        tgt_e[cross.overlap_tgt[1]] = [1.0, 0.0]
        tgt_e[cross.target_nonoverlap[0]] = [2.0, 0.0]
        src_e = np.arange(6, dtype=float).reshape(3, 2)
        got = knn_generate(cross, tgt_e, src_e, cross.target_nonoverlap[:1], 1)[0]
        np.testing.assert_allclose(got, src_e[cross.overlap_src[0]])

    def test_more_neighbors_than_overlap_is_clamped(self):
        cross, tgt_e, src_e = self._setup()
        u = int(cross.target_nonoverlap[0])
        got = knn_generate(cross, tgt_e, src_e, [u], 99)[0]
        np.testing.assert_allclose(got, src_e[cross.overlap_src].mean(axis=0), atol=1e-12)

    def test_validation_and_coverage(self):
        cross, tgt_e, src_e = self._setup()
        with pytest.raises(ValueError):
            knn_generate(cross, tgt_e, src_e, [0], 0)
        table = knn_generate_all(cross, tgt_e, src_e, 2)
        assert table.shape == (len(cross.target_nonoverlap), 3)
        for row, u in zip(table, cross.target_nonoverlap):
            assert np.array_equal(row, knn_generate(cross, tgt_e, src_e, [u], 2)[0])

    def test_top_n_is_a_stable_argsort(self, monkeypatch):
        """On tie-heavy cosines (integer and zero embeddings) the shared
        argpartition top-N picks and orders neighbours exactly as a stable
        argsort, so the mean rows are bitwise equal."""
        cross = tiny_cross(n_src=12, n_tgt=30, n_overlap=10)
        rng = np.random.default_rng(4)
        tgt_e = rng.integers(-1, 2, size=(30, 3)).astype(float)
        tgt_e[cross.overlap_tgt[::4]] = 0.0
        src_e = rng.standard_normal((12, 5))
        users = np.arange(30)
        for n in (1, 3, 9, 10):
            got = knn_generate(cross, tgt_e, src_e, users, n)
            with monkeypatch.context() as mp:
                mp.setattr(
                    generator, "top_columns",
                    lambda key, kk: np.argsort(key, axis=1, kind="stable")[:, :kk],
                )
                assert knn_generate(cross, tgt_e, src_e, users, n).tobytes() == got.tobytes()

    @pytest.mark.parametrize("budget", [1, 4 * 3 + 1])
    def test_blocks_match_one_pass(self, monkeypatch, budget):
        """Rows ranked in small blocks equal the rows of one pass, and each
        row equals a scalar top-N over the cosine column with ties going to
        the lower overlap index."""
        cross = tiny_cross(n_src=12, n_tgt=30, n_overlap=10)
        rng = np.random.default_rng(9)
        # integer embeddings make many exact cosine ties
        tgt_e = rng.integers(-1, 2, size=(30, 2)).astype(float)
        src_e = rng.standard_normal((12, 4))
        users = np.arange(30)
        whole = knn_generate(cross, tgt_e, src_e, users, 3)
        monkeypatch.setattr(generator, "_KNN_CELL_BUDGET", budget)
        assert np.array_equal(knn_generate(cross, tgt_e, src_e, users, 3), whole)
        keys = tgt_e[cross.overlap_tgt]
        for u in users:
            denom = np.linalg.norm(keys, axis=1) * np.linalg.norm(tgt_e[u])
            cos = [k @ tgt_e[u] / n if n > 0 else 0.0 for k, n in zip(keys, denom)]
            top = sorted(range(len(keys)), key=lambda j: (-cos[j], j))[:3]
            np.testing.assert_allclose(
                whole[u], src_e[cross.overlap_src[top]].mean(axis=0), atol=1e-12
            )
