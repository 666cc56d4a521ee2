"""Generator-shaping losses: supervised alignment and pairwise uniformity.

The supervised term pulls generated embeddings of overlapping users toward
their true source embeddings (which act as constants); the uniformity term
log E[exp(-2 ||e'_u - e'_u'||^2)] pushes sampled virtual users apart. Both
return gradients with respect to the generated embeddings only; callers pull
those back through the attention backward pass into GEN tensors.
"""

from __future__ import annotations

import numpy as np


def super_loss(generated, true_source):
    """(1/|U^o|) sum_o ||e'_o - e^S_o||^2 and its gradient in the generated
    embeddings; rows of the two arrays are aligned by user.
    """
    g = np.atleast_2d(np.asarray(generated, dtype=np.float64))
    t = np.atleast_2d(np.asarray(true_source, dtype=np.float64))
    if g.shape != t.shape:
        raise ValueError(f"shape mismatch {g.shape} vs {t.shape}")
    if g.shape[0] == 0:
        raise ValueError("super_loss needs at least one overlapping user")
    diff = g - t
    loss = float(np.mean(np.sum(diff * diff, axis=1)))
    return loss, (2.0 / g.shape[0]) * diff


def constrain_loss(generated) -> tuple[float, np.ndarray]:
    """log of the mean of exp(-2 ||e'_u - e'_u'||^2) over unordered pairs.

    Always <= 0; equals 0 iff all embeddings coincide. Gradient returned for
    the generated embeddings.
    """
    x = np.atleast_2d(np.asarray(generated, dtype=np.float64))
    b = x.shape[0]
    if b < 2:
        raise ValueError(f"constrain_loss needs >= 2 embeddings, got {b}")
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    w = np.exp(-2.0 * d2)
    np.fill_diagonal(w, 0.0)
    mean_w = w.sum() / (b * (b - 1))
    loss = float(np.log(mean_w))
    # d/dx_i of mean_w: -8/(B(B-1)) * sum_j w_ij (x_i - x_j)
    row = w.sum(axis=1)
    d_mean = (-8.0 / (b * (b - 1))) * (row[:, None] * x - w @ x)
    return loss, d_mean / mean_w
