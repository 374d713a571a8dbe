"""SPD layer primitives: HalfVec and SPDSpatAgg.

Each layer has a forward and an exact backward (adjoint), both pure.  The
other layers have one batched implementation each, where the network runs
them: the per-frame GaussAgg, ReEig and LogEig are the single map
``network._frame_log``, and the pyramid-range GaussAgg is
``network._batched_gauss``, each with its adjoint.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import InvalidInput


def half_vec_dim(d: int) -> int:
    return d * (d + 1) // 2


def half_vec(y: np.ndarray) -> np.ndarray:
    """Row-major upper-triangle vectorization, off-diagonals scaled by sqrt 2.

    An isometry: the output 2-norm equals the Frobenius norm of the input.
    Supports batched input (..., d, d) -> (..., d(d+1)/2).
    """
    y = np.asarray(y, dtype=np.float64)
    d = y.shape[-1]
    rows, cols = np.triu_indices(d)
    scale = np.where(rows == cols, 1.0, np.sqrt(2.0))
    return y[..., rows, cols] * scale


def half_vec_adjoint(g: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Exact adjoint of half_vec: <g, half_vec(Y)> == <half_vec_adjoint(g), Y>.

    Supports batched input (..., d(d+1)/2) -> (..., d, d).
    """
    g = np.asarray(g, dtype=np.float64)
    length = g.shape[-1]
    if dim is None:
        dim = int(round((np.sqrt(8 * length + 1) - 1) / 2))
    if half_vec_dim(dim) != length:
        raise InvalidInput(f"length {length} is not a triangular number for dim {dim}")
    rows, cols = np.triu_indices(dim)
    # Off-diagonal mass splits evenly between (i,j) and (j,i): sqrt(2)/2.
    scale = np.where(rows == cols, 1.0, np.sqrt(2.0) / 2.0)
    out = np.zeros(g.shape[:-1] + (dim, dim))
    out[..., rows, cols] = g * scale
    out[..., cols, rows] = g * scale
    return out


def _check_spat(inputs: np.ndarray, weights: np.ndarray):
    inputs = np.asarray(inputs, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[-1] != inputs.shape[-2]:
        raise InvalidInput(f"inputs must be (n_L, d_in, d_in), got {inputs.shape}")
    if weights.ndim != 3 or weights.shape[0] != inputs.shape[0]:
        raise InvalidInput(
            f"need one weight matrix per input: {weights.shape} vs {inputs.shape}"
        )
    if weights.shape[2] != inputs.shape[1]:
        raise InvalidInput(
            f"weight column dim {weights.shape[2]} != input dim {inputs.shape[1]}"
        )
    return inputs, weights


def spd_spat_agg(inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i W_i X_i W_i^T; SPD whenever every X_i is SPD and W_i has full row rank."""
    inputs, weights = _check_spat(inputs, weights)
    terms = weights @ inputs @ np.swapaxes(weights, -1, -2)
    return linalg.symmetrize(terms.sum(axis=0))


def spd_spat_agg_backward(inputs: np.ndarray, weights: np.ndarray, grad_out: np.ndarray):
    """Euclidean gradients (dX_i, dW_i) of <grad_out, spd_spat_agg(...)>.

    dX_i = W_i^T G W_i and dW_i = 2 G W_i X_i for symmetric G; manifold
    projection of the weight gradients happens in the optimizer.
    """
    inputs, weights = _check_spat(inputs, weights)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (weights.shape[1], weights.shape[1]):
        raise InvalidInput(f"grad_out shape {grad_out.shape} does not match output dim")
    g = linalg.symmetrize(grad_out)
    grad_inputs = np.swapaxes(weights, -1, -2) @ g @ weights
    grad_weights = 2.0 * g @ weights @ inputs
    return grad_inputs, grad_weights
