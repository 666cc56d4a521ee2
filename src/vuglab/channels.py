"""Discrete shared-latent-channel lab for the overlap-advantage argument.

A latent symbol z drives one record in each domain. Overlapping users share
one z across domains; non-overlapping pairs draw independent z's, so their
joint factorizes. Entropies of the exact joints, the Bayes error and the
Fano bound quantify how much easier the target record is to predict given
the source record when z is shared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OVERLAPPING = "OVERLAPPING"
NONOVERLAPPING = "NONOVERLAPPING"
MODES = (OVERLAPPING, NONOVERLAPPING)

_ROW_TOL = 1e-12


def _check_rows(mat: np.ndarray, what: str):
    if not np.isfinite(mat).all():
        raise ValueError(f"{what} has non-finite entries")
    if np.any(mat < 0):
        raise ValueError(f"{what} has negative entries")
    sums = mat.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > _ROW_TOL):
        raise ValueError(f"{what} rows must sum to 1 (got {sums})")


@dataclass(frozen=True)
class ChannelSpec:
    """Latent prior p(z) and per-domain emission matrices p(r|z), kept as
    read-only float64 copies so that no spec changes after its checks."""

    prior: np.ndarray
    p_s: np.ndarray
    p_t: np.ndarray

    def __post_init__(self):
        for name in ("prior", "p_s", "p_t"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.prior.ndim != 1 or self.p_s.ndim != 2 or self.p_t.ndim != 2:
            raise ValueError("prior must be a vector, emissions matrices")
        if self.p_s.shape[0] != self.n_z or self.p_t.shape[0] != self.n_z:
            raise ValueError("emission row count must equal |Z|")
        _check_rows(self.prior, "prior")
        _check_rows(self.p_s, "p_s")
        _check_rows(self.p_t, "p_t")

    @property
    def n_z(self) -> int:
        return len(self.prior)

    @property
    def v_s(self) -> int:
        return self.p_s.shape[1]

    @property
    def v_t(self) -> int:
        return self.p_t.shape[1]


def exact_joint(spec: ChannelSpec, mode: str) -> np.ndarray:
    """p(r^S, r^T): latent-coupled mixture, or the product of marginals."""
    if mode == OVERLAPPING:
        return np.einsum("z,zs,zt->st", spec.prior, spec.p_s, spec.p_t)
    if mode == NONOVERLAPPING:
        return np.outer(spec.prior @ spec.p_s, spec.prior @ spec.p_t)
    raise ValueError(f"mode must be one of {MODES}")


def entropy_bits(p: np.ndarray) -> float:
    """Plug-in Shannon entropy in bits with 0 log 0 = 0."""
    q = np.asarray(p, dtype=np.float64).ravel()
    q = q[q > 0]
    return float(-(q * np.log2(q)).sum())


def bayes_error(joint: np.ndarray) -> float:
    """Error of the optimal predictor of the column symbol from the row
    symbol: 1 - sum_s max_t p(s, t).
    """
    j = np.asarray(joint, dtype=np.float64)
    return float(1.0 - j.max(axis=1).sum())


def fano_bound(h_cond: float, v_t: int) -> float:
    """max(0, (H(R^T|R^S) - 1) / log2 |V^T|)."""
    if v_t < 2:
        raise ValueError(f"Fano bound needs an alphabet of >= 2 symbols, got {v_t}")
    return float(max(0.0, (h_cond - 1.0) / np.log2(v_t)))


def info_quantities(joint: np.ndarray) -> dict:
    """All plug-in quantities of one joint distribution table, the entries
    of one mode in the infolab report: `i_bits`, `h_t`, `h_cond` (bits),
    `bayes_error` and `fano_lower_bound` (None below two target symbols).

    i_bits comes from the KL form; h_cond from the entropy difference
    H(joint) - H(marginal source). The identity i = h_t - h_cond is a test
    target, not enforced here.
    """
    j = np.asarray(joint, dtype=np.float64)
    marg_s = j.sum(axis=1)
    marg_t = j.sum(axis=0)
    # KL(joint || product of marginals), in bits
    mask = j > 0
    prod = np.outer(marg_s, marg_t)
    i_bits = float((j[mask] * np.log2(j[mask] / prod[mask])).sum())
    # marginals recomputed from a product joint don't reproduce its factors
    # bit-exactly, leaving the KL sum at +-1e-16; snap that noise to an exact
    # zero so independence reads as I = 0 and I can never go negative
    if i_bits < 1e-12:
        i_bits = 0.0
    h_cond = entropy_bits(j) - entropy_bits(marg_s)
    return {
        "i_bits": i_bits,
        "h_t": entropy_bits(marg_t),
        "h_cond": h_cond,
        "bayes_error": bayes_error(j),
        "fano_lower_bound": fano_bound(h_cond, j.shape[1]) if j.shape[1] >= 2 else None,
    }


def bias_experiment(spec: ChannelSpec) -> dict:
    """Compare both modes on one spec and check the ordering claims: shared
    latent strictly lowers H(R^T|R^S) and never raises the Bayes error.
    Degenerate specs (I = 0, e.g. |Z| = 1) are flagged and skip strictness.
    """
    est_ov = info_quantities(exact_joint(spec, OVERLAPPING))
    est_non = info_quantities(exact_joint(spec, NONOVERLAPPING))
    degenerate = est_ov["i_bits"] <= 1e-12
    if not degenerate:
        if not est_ov["h_cond"] < est_non["h_cond"]:
            raise RuntimeError(
                f"conditional entropy not reduced: {est_ov['h_cond']} vs {est_non['h_cond']}"
            )
        # the two sides follow different float paths; equality cases can
        # invert by one ulp
        if not est_ov["bayes_error"] <= est_non["bayes_error"] + 1e-12:
            raise RuntimeError(
                f"Bayes error increased: {est_ov['bayes_error']} vs {est_non['bayes_error']}"
            )
    return {
        "alphabet": {"n_z": spec.n_z, "v_s": spec.v_s, "v_t": spec.v_t},
        "degenerate": degenerate,
        "overlapping": est_ov,
        "nonoverlapping": est_non,
        "entropy_reduction_bits": est_non["h_cond"] - est_ov["h_cond"],
        "strict_entropy_reduction": (None if degenerate else True),
    }


def random_spec(rng: np.random.Generator, max_alphabet: int = 8) -> ChannelSpec:
    """Dirichlet-random spec with alphabet sizes in [2, max_alphabet]."""
    if max_alphabet < 2:
        raise ValueError("max_alphabet must be >= 2")
    n_z, v_s, v_t = (int(rng.integers(2, max_alphabet + 1)) for _ in range(3))
    prior = rng.dirichlet(np.ones(n_z))
    p_s = rng.dirichlet(np.ones(v_s), size=n_z)
    p_t = rng.dirichlet(np.ones(v_t), size=n_z)
    for mat in (p_s, p_t):
        mat /= mat.sum(axis=1, keepdims=True)
    # a draw once used as a sampler seed; kept so later specs of a sweep stay the same
    rng.integers(2**31)
    return ChannelSpec(prior=prior / prior.sum(), p_s=p_s, p_t=p_t)
