"""Alignment and uniformity loss tests.

Frozen closed forms
-------------------
Three points in 1-d at 0, 1, 1 have ordered-pair squared distances
(1, 1, 1, 0, 1, 0) -> mean weight (4 e^-2 + 2) / 6 = (2 e^-2 + 1) / 3,
so the uniformity loss is ln((1 + 2 e^-2) / 3) = -0.8590675224462252.
A single pair at unit squared distance gives ln(e^-2) = -2 exactly.
"""

import math

import numpy as np
import pytest

from vuglab.cli import SyntheticCdrSpec, prepare_splits, synth_cdr
from vuglab.generator import GEN_TENSORS, attention_backward, forward_users
from vuglab.limiter import constrain_loss, super_loss
from vuglab.model import SOURCE, SRC_USER, TARGET, TGT_USER, TrainBatch
from vuglab.params import GEN, AdamConfig
from vuglab.training import CDR_VUG, Trainer, TrainConfig

THREE_POINT = -0.8590675224462252


def fd_grad(fn, x, h=1e-6):
    """Central finite differences of scalar fn over array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for j in range(flat.size):
        keep = flat[j]
        flat[j] = keep + h
        up = fn(x)
        flat[j] = keep - h
        dn = fn(x)
        flat[j] = keep
        gf[j] = (up - dn) / (2 * h)
    return g


class TestSuperLoss:
    def test_zero_on_exact_match(self):
        x = np.random.default_rng(0).standard_normal((5, 3))
        loss, grad = super_loss(x, x.copy())
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(x))

    def test_hand_value_and_gradient(self):
        loss, grad = super_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))
        assert loss == 1.0
        np.testing.assert_allclose(grad, [[2.0, 0.0]], atol=1e-15)

    def test_mean_over_users(self):
        g = np.array([[2.0], [0.0]])
        t = np.array([[0.0], [0.0]])
        loss, grad = super_loss(g, t)
        assert loss == 2.0  # (4 + 0) / 2
        np.testing.assert_allclose(grad, [[2.0], [0.0]])

    def test_mismatches_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            super_loss(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="shape"):
            super_loss(np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="at least one"):
            super_loss(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((6, 4))
        t = rng.standard_normal((6, 4))
        _, grad = super_loss(g, t)
        num = fd_grad(lambda x: super_loss(x, t)[0], g)
        np.testing.assert_allclose(grad, num, atol=1e-8)


class TestConstrainLoss:
    def test_coincident_embeddings_hit_zero_exactly(self):
        loss, grad = constrain_loss(np.ones((4, 3)) * 2.5)
        assert loss == 0.0
        np.testing.assert_allclose(grad, np.zeros((4, 3)), atol=1e-15)

    def test_unit_distance_pair(self):
        loss, _ = constrain_loss(np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(loss, -2.0, atol=1e-15)

    def test_three_point_frozen_value(self):
        loss, _ = constrain_loss(np.array([[0.0], [1.0], [1.0]]))
        np.testing.assert_allclose(loss, THREE_POINT, atol=1e-15)
        # cross-check the frozen constant in place
        assert abs(THREE_POINT - math.log((1 + 2 * math.exp(-2)) / 3)) < 1e-15

    def test_never_positive(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            b = int(rng.integers(2, 12))
            d = int(rng.integers(1, 6))
            loss, _ = constrain_loss(rng.standard_normal((b, d)) * rng.uniform(0.1, 4))
            assert loss <= 0.0

    def test_monotone_in_pairwise_distance(self):
        """Swing one point along a fixed-radius arc: two pair distances stay
        fixed, the third grows, so the loss must strictly decrease."""
        a = np.array([0.0, 0.0])
        bpt = np.array([1.0, 0.0])
        losses = []
        for theta in (0.3, 1.2, 2.1, 3.0):
            c = 0.8 * np.array([np.cos(theta), np.sin(theta)])
            loss, _ = constrain_loss(np.stack([a, bpt, c]))
            losses.append(loss)
        assert all(losses[j + 1] < losses[j] for j in range(len(losses) - 1))

    def test_needs_two_embeddings(self):
        with pytest.raises(ValueError, match=">= 2"):
            constrain_loss(np.zeros((1, 3)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((7, 3)) * 0.7
        _, grad = constrain_loss(x)
        num = fd_grad(lambda y: constrain_loss(y)[0], x)
        np.testing.assert_allclose(grad, num, atol=1e-7)


def gen_step_terms(gamma2):
    """One `train_step` of a small CDR_VUG trainer with the generator's Adam
    update intercepted. Returns the logged step row, the GEN gradients handed
    to Adam, and (loss, gradients) of the supervision and the uniformity term,
    each recomputed on its own from the same sampled users and parameters.
    """
    spec = SyntheticCdrSpec(
        n_source_users=40, n_target_users=40, overlap_ratio=0.4, n_items_source=25,
        n_items_target=25, latent_dim=4, interactions_per_user=8, noise=0.5, seed=1,
    )
    cross = synth_cdr(spec)
    split_src, split_tgt = prepare_splits(cross, seed=1)
    cfg = TrainConfig(
        mode=CDR_VUG, epochs=1, batch_size=64, d=6, gamma2=gamma2, super_sample=8,
        constrain_sample=8, adam_main=AdamConfig(lr=0.01), eval_every=0, seed=1,
    )
    tr = Trainer(cross, split_src, split_tgt, cfg)
    tr.refresh_virtuals()
    rng_state = tr.rng_gen.bit_generator.state
    handed = {}
    adam_step = tr.store.adam_step

    def record(grads, adam_cfg, partition):
        if partition == GEN:
            handed.update(grads)
        else:
            adam_step(grads, adam_cfg, partition)

    tr.store.adam_step = record
    tr.train_step(
        TrainBatch(SOURCE, *next(tr.pool_src.iter_batches(64, tr.rng_src))),
        TrainBatch(TARGET, *next(tr.pool_tgt.iter_batches(64, tr.rng_tgt))),
    )
    # replay the step's draws: supervision users first, spread users after
    rng = np.random.default_rng()
    rng.bit_generator.state = rng_state
    ov_t, ov_s = cross.overlap_tgt, cross.overlap_src
    posn = rng.permutation(len(ov_t))[: cfg.super_sample]
    non = np.asarray(cross.target_nonoverlap)
    users_c = non[rng.permutation(len(non))[: cfg.constrain_sample]]
    tgt_u, src_u = tr.store.get(TGT_USER), tr.store.get(SRC_USER)
    terms = []
    for users, loss_fn in (
        (ov_t[posn], lambda rows: super_loss(rows, src_u[ov_s[posn]])),
        (users_c, constrain_loss),
    ):
        rows, cache = forward_users(
            tr.gen, users, cross, tgt_u, src_u, tr.profiles, tr.profile_valid
        )
        loss, d_rows = loss_fn(rows)
        terms.append((loss, attention_backward(tr.gen, cache, d_rows)))
    return tr.log.steps[-1], handed, terms[0], terms[1]


def assert_grads_close(got, want):
    assert set(got) == set(want) == set(GEN_TENSORS)
    for name in GEN_TENSORS:
        np.testing.assert_allclose(got[name], want[name], rtol=1e-9, atol=1e-12)


class TestGeneratorObjective:
    """The limiter step optimizes gamma2 * L_super + (1 - gamma2) * L_constrain:
    `Trainer._gen_step` logs that value and hands Adam the same mix of the
    two terms' gradients."""

    def test_convex_mix_of_values_and_grads(self):
        row, handed, (l_sup, g_sup), (l_con, g_con) = gen_step_terms(0.3)
        assert row["objective"] == 0.3 * row["l_super"] + 0.7 * row["l_constrain"]
        assert row["l_super"] == pytest.approx(l_sup, rel=1e-12)
        assert row["l_constrain"] == pytest.approx(l_con, rel=1e-12)
        assert_grads_close(handed, {n: 0.3 * g_sup[n] + 0.7 * g_con[n] for n in GEN_TENSORS})

    def test_endpoints(self):
        row, handed, (_, g_sup), _ = gen_step_terms(1.0)
        assert row["objective"] == row["l_super"]
        assert_grads_close(handed, g_sup)
        row, handed, _, (_, g_con) = gen_step_terms(0.0)
        assert row["objective"] == row["l_constrain"]
        assert_grads_close(handed, g_con)

    def test_constrain_only_names_survive(self):
        """With the supervision term weighted out, every GEN tensor still
        receives its uniformity gradient."""
        _, handed, _, (_, g_con) = gen_step_terms(0.0)
        assert_grads_close(handed, g_con)
        # every channel's slice of the stacked query and key maps moves too
        parts = [handed["gen_wv"], handed["gen_bv"]]
        parts += [handed[n][c] for n in ("gen_wq", "gen_bq", "gen_wk") for c in range(2)]
        assert all(np.abs(p).max() > 0 for p in parts)
