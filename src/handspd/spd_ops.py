"""SPD layer primitives: HalfVec and SPDSpatAgg.

Each layer has a forward and an exact backward (adjoint), both pure.  The
other layers have one batched implementation each, where the network runs
them: the per-frame GaussAgg, ReEig and LogEig are the single map
``network._frame_log``, and the pyramid-range GaussAgg is
``network._batched_gauss``, each with its adjoint.

Operand contract: matrix inputs and cotangents are symmetric, and outputs
are symmetric up to rounding; ``half_vec`` reads the upper triangle only.
Shapes and finiteness are checked once, in ``network.forward``, not here.
"""

from __future__ import annotations

from functools import cache

import numpy as np


def half_vec_dim(d: int) -> int:
    return d * (d + 1) // 2


@cache
def _triu_maps(d: int):
    """Flat row-major indices of the upper triangle of a d x d matrix, the
    half_vec scale (1 on the diagonal, sqrt 2 off it), and the half_vec slot
    that each of the d*d entries reads; read-only, shared by callers."""
    rows, cols = np.triu_indices(d)
    slot = np.empty((d, d), dtype=np.intp)
    slot[rows, cols] = slot[cols, rows] = np.arange(rows.size)
    maps = (rows * d + cols, np.where(rows == cols, 1.0, np.sqrt(2.0)), slot.ravel())
    for m in maps:
        m.setflags(write=False)
    return maps


def half_vec(y: np.ndarray) -> np.ndarray:
    """Row-major upper-triangle vectorization, off-diagonals scaled by sqrt 2.

    An isometry on symmetric input: the output 2-norm equals the Frobenius
    norm of the input.  Supports batched input (..., d, d) -> (..., d(d+1)/2).
    """
    d = y.shape[-1]
    upper, scale, _ = _triu_maps(d)
    out = y.reshape(y.shape[:-2] + (d * d,))[..., upper]
    out *= scale
    return out


def half_vec_adjoint(g: np.ndarray, dim: int) -> np.ndarray:
    """Adjoint of half_vec on symmetric dim x dim matrices: the symmetric Y
    with <g, half_vec(S)> == <Y, S> for every symmetric S.

    Supports batched input (..., dim(dim+1)/2) -> (..., dim, dim).
    """
    _, scale, slot = _triu_maps(dim)
    # Off-diagonal mass splits evenly between (i,j) and (j,i): sqrt(2)/2.
    out = g[..., slot]
    out /= scale[slot]
    return out.reshape(g.shape[:-1] + (dim, dim))


def spd_spat_agg(inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i W_i X_i W_i^T for inputs (n_L, d_in, d_in) and weights
    (n_L, d_out, d_in); SPD whenever every X_i is SPD and W_i has full row
    rank."""
    return (weights @ inputs @ np.swapaxes(weights, -1, -2)).sum(axis=0)


def spd_spat_agg_backward(inputs: np.ndarray, weights: np.ndarray, grad_out: np.ndarray):
    """Euclidean gradients (dX_i, dW_i) of <grad_out, spd_spat_agg(...)> for
    symmetric grad_out G: dX_i = W_i^T (G W_i) and dW_i = 2 (G W_i) X_i.
    Manifold projection of the weight gradients happens in the optimizer.
    """
    gw = grad_out @ weights
    dw = gw @ inputs
    dw *= 2.0
    return np.swapaxes(weights, -1, -2) @ gw, dw
