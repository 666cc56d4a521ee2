"""Shared-latent channel lab tests.

Frozen oracle: symmetric binary channel, uniform prior, flip 0.1 on both
emissions. The coupled joint is [[0.41, 0.09], [0.09, 0.41]], giving
H(R^T | R^S) = 0.6800770457282796 bits, I = 0.31992295427172035 bits, and
Bayes error 0.18. All three were computed from the 2x2 arithmetic directly.
"""

import dataclasses

import numpy as np
import pytest

from vuglab.channels import (
    NONOVERLAPPING,
    OVERLAPPING,
    ChannelSpec,
    bayes_error,
    bias_experiment,
    entropy_bits,
    exact_joint,
    fano_bound,
    info_quantities,
    random_spec,
)

BSC_H_COND = 0.6800770457282796
BSC_I_BITS = 0.31992295427172035


def bsc(eps=0.1):
    flip = np.array([[1 - eps, eps], [eps, 1 - eps]])
    return ChannelSpec(prior=np.array([0.5, 0.5]), p_s=flip, p_t=flip.copy())


def uniform4():
    """Uninformative target emission: p(r^T | z) uniform over 4 symbols."""
    return ChannelSpec(
        prior=np.array([0.5, 0.5]),
        p_s=np.array([[1.0, 0.0], [0.0, 1.0]]),
        p_t=np.full((2, 4), 0.25),
    )


class TestSpecValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="prior has non-finite"):
            ChannelSpec(np.array([bad, bad]), np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="p_t has non-finite"):
            ChannelSpec(np.array([0.5, 0.5]), np.eye(2), np.array([[bad, 1.0], [0.0, 1.0]]))

    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ChannelSpec(np.array([0.6, 0.6]), np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="negative"):
            ChannelSpec(np.array([1.5, -0.5]), np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="row count"):
            ChannelSpec(np.array([0.5, 0.5]), np.eye(3), np.eye(2))
        with pytest.raises(ValueError, match="vector"):
            ChannelSpec(np.eye(2), np.eye(2), np.eye(2))

    def test_alphabet_sizes(self):
        spec = uniform4()
        assert (spec.n_z, spec.v_s, spec.v_t) == (2, 2, 4)


class TestSpecIsFrozen:
    """A spec keeps read-only float64 copies of its arrays, so nothing can
    change it after its checks."""

    def test_arrays_are_read_only(self):
        spec = bsc()
        for arr in (spec.prior, spec.p_s, spec.p_t):
            assert arr.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 3.0
        assert np.array_equal(spec.prior, [0.5, 0.5])

    def test_fields_cannot_be_reassigned(self):
        spec = bsc()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.prior = np.array([0.6, 0.6])

    def test_replace_checks_the_new_spec(self):
        with pytest.raises(ValueError, match="sum to 1"):
            dataclasses.replace(bsc(), prior=np.array([0.6, 0.6]))
        assert np.array_equal(dataclasses.replace(bsc(), prior=[1.0, 0.0]).prior, [1.0, 0.0])

    def test_callers_arrays_stay_writeable(self):
        prior, flip = np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.1, 0.9]])
        spec = ChannelSpec(prior=prior, p_s=flip, p_t=flip)
        prior[0] = 3.0
        flip[0, 0] = 3.0
        assert spec.prior[0] == 0.5 and spec.p_s[0, 0] == 0.9 and spec.p_t[0, 0] == 0.9


class TestExactJoint:
    def test_bsc_coupled_joint(self):
        joint = exact_joint(bsc(), OVERLAPPING)
        np.testing.assert_allclose(joint, [[0.41, 0.09], [0.09, 0.41]], atol=1e-15)

    def test_product_joint_is_outer_of_marginals(self):
        spec = bsc()
        joint = exact_joint(spec, NONOVERLAPPING)
        np.testing.assert_allclose(joint, np.full((2, 2), 0.25), atol=1e-15)

    def test_joints_share_marginals_across_modes(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            spec = random_spec(rng, max_alphabet=6)
            jo = exact_joint(spec, OVERLAPPING)
            jn = exact_joint(spec, NONOVERLAPPING)
            np.testing.assert_allclose(jo.sum(axis=0), jn.sum(axis=0), atol=1e-12)
            np.testing.assert_allclose(jo.sum(axis=1), jn.sum(axis=1), atol=1e-12)
            assert abs(jo.sum() - 1.0) <= 1e-12

    def test_matches_enumerated_generative_story(self):
        """Each joint equals the generative story summed term by term: one
        shared z per pair when overlapping, an independent (z, z') pair
        otherwise."""
        rng = np.random.default_rng(11)
        for _ in range(25):
            spec = random_spec(rng, max_alphabet=8)
            shared = np.zeros((spec.v_s, spec.v_t))
            independent = np.zeros((spec.v_s, spec.v_t))
            for z in range(spec.n_z):
                shared += spec.prior[z] * np.outer(spec.p_s[z], spec.p_t[z])
                for z2 in range(spec.n_z):
                    weight = spec.prior[z] * spec.prior[z2]
                    independent += weight * np.outer(spec.p_s[z], spec.p_t[z2])
            np.testing.assert_allclose(exact_joint(spec, OVERLAPPING), shared, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                exact_joint(spec, NONOVERLAPPING), independent, rtol=0, atol=1e-12
            )

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            exact_joint(bsc(), "SIDEWAYS")


class TestEntropy:
    def test_uniform_is_log2_n(self):
        for n in (2, 4, 8, 16):
            assert entropy_bits(np.full(n, 1.0 / n)) == pytest.approx(np.log2(n), abs=1e-12)

    def test_point_mass_is_zero(self):
        assert entropy_bits(np.array([1.0, 0.0, 0.0])) == 0.0


class TestInfoQuantities:
    def test_bsc_frozen_values(self):
        est = info_quantities(exact_joint(bsc(), OVERLAPPING))
        np.testing.assert_allclose(est["h_cond"], BSC_H_COND, atol=1e-14)
        np.testing.assert_allclose(est["i_bits"], BSC_I_BITS, atol=1e-14)
        np.testing.assert_allclose(est["bayes_error"], 0.18, atol=1e-15)
        assert est["h_t"] == pytest.approx(1.0, abs=1e-14)
        # flip 0.1 beats the Fano floor: (0.680 - 1)/1 < 0 clamps to 0
        assert est["fano_lower_bound"] == 0.0

    def test_bsc_product_mode(self):
        est = info_quantities(exact_joint(bsc(), NONOVERLAPPING))
        assert est["i_bits"] == pytest.approx(0.0, abs=1e-14)
        assert est["h_cond"] == pytest.approx(1.0, abs=1e-14)
        assert est["bayes_error"] == pytest.approx(0.5, abs=1e-15)

    def test_uninformative_target_oracles(self):
        est = info_quantities(exact_joint(uniform4(), OVERLAPPING))
        assert est["h_cond"] == pytest.approx(2.0, abs=1e-13)
        assert est["bayes_error"] == pytest.approx(0.75, abs=1e-15)
        assert fano_bound(est["h_cond"], 4) == pytest.approx(0.5, abs=1e-13)

    def test_chain_identity_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            est = info_quantities(exact_joint(random_spec(rng, 8), OVERLAPPING))
            assert abs((est["h_t"] - est["h_cond"]) - est["i_bits"]) <= 1e-12
            assert est["i_bits"] >= -1e-15
            assert est["h_cond"] <= est["h_t"] + 1e-12

    def test_product_joint_information_is_exactly_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            jn = exact_joint(random_spec(rng, 6), NONOVERLAPPING)
            # outer-product cancellation in the KL term is exact in floats
            assert info_quantities(jn)["i_bits"] == 0.0


class TestBayesAndFano:
    def test_bayes_error_by_hand(self):
        # predict column from row: rows pick 0.41 and 0.41
        assert bayes_error(np.array([[0.41, 0.09], [0.09, 0.41]])) == pytest.approx(0.18)

    def test_fano_validation_and_clamp(self):
        with pytest.raises(ValueError):
            fano_bound(0.5, 1)
        assert fano_bound(0.2, 4) == 0.0
        assert fano_bound(2.6, 4) == pytest.approx(0.8, abs=1e-15)

    def test_bayes_respects_fano_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            spec = random_spec(rng, 8)
            for mode in (OVERLAPPING, NONOVERLAPPING):
                est = info_quantities(exact_joint(spec, mode))
                assert est["bayes_error"] >= fano_bound(est["h_cond"], spec.v_t) - 1e-12


class TestBiasExperiment:
    def test_bsc_report(self):
        out = bias_experiment(bsc())
        assert not out["degenerate"]
        assert out["strict_entropy_reduction"] is True
        np.testing.assert_allclose(
            out["entropy_reduction_bits"], 1.0 - BSC_H_COND, atol=1e-13
        )
        assert out["overlapping"]["h_cond"] < out["nonoverlapping"]["h_cond"]

    def test_degenerate_single_latent(self):
        spec = ChannelSpec(
            prior=np.array([1.0]),
            p_s=np.array([[0.5, 0.5]]),
            p_t=np.array([[0.25, 0.75]]),
        )
        out = bias_experiment(spec)
        assert out["degenerate"]
        assert out["strict_entropy_reduction"] is None

    def test_random_sweep_never_raises(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            bias_experiment(random_spec(rng, 8))


def test_random_spec_validity_and_ranges():
    rng = np.random.default_rng(9)
    for _ in range(100):
        spec = random_spec(rng, max_alphabet=5)
        assert 2 <= spec.n_z <= 5 and 2 <= spec.v_s <= 5 and 2 <= spec.v_t <= 5
    with pytest.raises(ValueError):
        random_spec(rng, max_alphabet=1)
