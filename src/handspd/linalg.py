"""Dense symmetric linear algebra.

Batched eigendecomposition, spectral matrix functions
f(S) = U f(V) U^T (LOG for the final LogEig; ``gram_log_fn`` for the frame
ReEig+LogEig, applied to the small Gram matrix B^T B of each low-rank frame
matrix B B^T), the eigendecomposition chain rule (Daleckii-Krein form)
shared by every spectral layer's backward pass, and batched QR
row-orthonormalization used for Stiefel retractions.

All functions are pure and operate on plain float64 numpy arrays.  The
spectral functions are batched over leading axes, (..., d, d), and take the
eigendecomposition as a cache so the network decomposes each matrix once;
there are no unbatched or validating variants.

Operand contract: matrix inputs and cotangents are symmetric, and outputs
are symmetric up to rounding; nothing re-symmetrizes them.
``np.linalg.eigh`` reads one triangle only.  Only ``sym_eig_batch`` and
``qr_orthonormalize`` check their input stack, before the one LAPACK call
per stack.  ``sym_eig_batch``, ``_apply_fn`` and ``qr_orthonormalize`` raise
``NumericalError``, with the caller's ``layer`` and the failing matrix's
1-based index on each named leading axis as fields (``_first``; the QR's one
axis is ``matrix``); a failure inside LAPACK is typed but not located.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalError


class EigenPair(NamedTuple):
    """Eigendecomposition S = vectors @ diag(values) @ vectors.T.

    Eigenvalues ascend, as ``np.linalg.eigh`` returns them.  Eigenvector
    signs are LAPACK's and follow no convention: every consumer (U f(V) U^T,
    the Daleckii-Krein adjoint, the minimum eigenvalue) is invariant to the
    choice of eigenbasis.
    """

    vectors: np.ndarray
    values: np.ndarray


class SpectralFn(NamedTuple):
    """A scalar map and its derivative, lifted to symmetric matrices.

    ``dd(a, b)`` is the divided difference (f(a) - f(b)) / (a - b) for
    a != b, in a form that stays accurate at close a, b.
    """

    f: Callable[[np.ndarray], np.ndarray]
    df: Callable[[np.ndarray], np.ndarray]
    dd: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _log_dd(a, b):
    # Higham's 2 atanh((a - b) / (a + b)) / (a - b) (Functions of Matrices,
    # 2008): log(a) - log(b) cancels at close a, b; this form does not.
    # Once a / b passes about 2^53 the quotient rounds to +-1 and atanh is
    # infinite; there a and b are far apart and the plain quotient is accurate.
    z = (a - b) / (a + b)
    out = 2.0 * np.arctanh(z) / (a - b)
    far = np.abs(z) == 1.0
    if np.any(far):
        out = np.where(far, (np.log(a) - np.log(b)) / (a - b), out)
    return out


LOG = SpectralFn(np.log, lambda x: 1.0 / x, _log_dd)


def gram_log_fn(eps: float) -> SpectralFn:
    """h(x) = (log max(x, eps) - log eps) / x, with h = 0 for x <= eps.

    For X = B B^T this gives log max(X, eps) = log(eps) I + B h(B^T B) B^T
    exactly: B v / sqrt(x) is a unit eigenvector of X for each eigenpair
    (x, v) of the Gram matrix with x > 0, and every other eigenvalue of X is 0.
    The derivative is (1 - log(x / eps)) / x^2 for x >= eps and 0 below, so
    at exactly x == eps it takes the rectifier's subgradient 1.  For
    a, b > eps the divided difference is (b L(a, b) - log(b / eps)) / (a b),
    L the LOG divided difference, which does not cancel at close a, b.
    eps > 0 is ``NetworkConfig``'s check.
    """

    def h(x):
        top = np.maximum(x, eps)
        return np.log(top / eps) / top

    def dh(x):
        top = np.maximum(x, eps)
        return np.where(x >= eps, (1.0 - np.log(top / eps)) / (top * top), 0.0)

    def dd(a, b):
        above = (a > eps) & (b > eps)
        stable = (b * _log_dd(a, b) - np.log(b / eps)) / (a * b)
        return np.where(above, stable, (h(a) - h(b)) / (a - b))

    return SpectralFn(h, dh, dd)


def _first(bad: np.ndarray, axes: tuple) -> dict:
    """Location fields of the first True entry of ``bad``: its 1-based index
    on each leading axis named in ``axes``."""
    return {a: int(i) + 1 for a, i in zip(axes, np.argwhere(bad)[0])}


def symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def sym_eig_batch(s: np.ndarray, *, layer: str | None = None, axes: tuple = ()) -> EigenPair:
    """Batched eigendecomposition of symmetric (..., d, d) arrays.

    The caller guarantees symmetry.  The first matrix that is not finite (a
    Gram matrix that overflowed) raises ``NumericalError`` with
    ``layer`` and its 1-based index on each leading axis named in ``axes``
    as fields; a LAPACK failure on a finite stack raises it with ``layer``.
    """
    bad = ~np.isfinite(s).all(axis=(-2, -1))
    if np.any(bad):
        raise NumericalError("matrix is not finite", layer=layer, **_first(bad, axes))
    try:
        vals, vecs = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(str(exc), layer=layer) from exc
    return EigenPair(vecs, vals)


def _apply_fn(fn: SpectralFn, values: np.ndarray, layer: str | None = None, axes: tuple = ()) -> np.ndarray:
    """f(values); a non-finite result raises ``NumericalError`` at the first
    such eigenvalue, with ``layer`` and its 1-based index on each leading axis
    named in ``axes`` as fields."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = fn.f(values)
    bad = ~np.isfinite(out)
    if np.any(bad):
        raise NumericalError("spectral function undefined", layer=layer,
                             eigenvalue=float(values[bad][0]), **_first(bad, axes))
    return out


def spectral_apply_cached(cache: EigenPair, fn: SpectralFn, layer: str | None = None) -> np.ndarray:
    """U diag(f(V)) U^T for the eigendecomposition (U, V) in ``cache``."""
    fv = _apply_fn(fn, cache.values, layer)
    u = cache.vectors
    return (u * fv[..., None, :]) @ np.swapaxes(u, -1, -2)


@functools.cache
def _pair_maps(n: int):
    """Pairs i < j of an n x n matrix, and the slot that each of its n*n
    entries reads in [diagonal, pairs]; read-only."""
    rows, cols = np.triu_indices(n, 1)
    slot = np.diag(np.arange(n))
    slot[rows, cols] = slot[cols, rows] = n + np.arange(rows.size)
    maps = (rows, cols, slot.ravel())
    for m in maps:
        m.setflags(write=False)
    return maps


def loewner_matrix(values: np.ndarray, fn: SpectralFn) -> np.ndarray:
    """Divided-difference kernel K(i,j) of the Daleckii-Krein chain rule.

    K(i,j) = (f(l_i) - f(l_j)) / (l_i - l_j) away from ties, through
    ``fn.dd``, which stays accurate to rounding at close eigenvalues above
    the guard; within the guard
    tau = 1e-10 * max(1, |l_i|, |l_j|) it switches to f'((l_i+l_j)/2), the
    exact limit value, avoiding catastrophic cancellation.  Each pair i < j
    is evaluated once and mirrored (K is exactly symmetric); K(i,i) = f'(l_i).
    """
    rows, cols, slot = _pair_maps(values.shape[-1])
    li, lj = values[..., rows], values[..., cols]
    near = np.abs(li - lj) <= 1e-10 * np.maximum(1.0, np.maximum(np.abs(li), np.abs(lj)))
    # np.where evaluates every branch; the ones it discards may divide by
    # zero or overflow.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        pairs = np.where(near, fn.df(0.5 * (li + lj)), fn.dd(li, lj))
        k = np.concatenate([fn.df(values), pairs], axis=-1)[..., slot]
    return k.reshape(values.shape + values.shape[-1:])


def spectral_fn_backward_cached(fn: SpectralFn, grad_out: np.ndarray, cache: EigenPair) -> np.ndarray:
    """Adjoint of spectral_apply_cached: dL/dS given dL/df(S) = grad_out.

    With G = U^T grad_out U, returns U (K * G) U^T where K is the
    divided-difference kernel of ``loewner_matrix``; symmetric whenever
    grad_out is.  The network runs it for the final LogEig only.
    """
    u = cache.vectors
    ut = np.swapaxes(u, -1, -2)
    g = ut @ grad_out @ u
    k = loewner_matrix(cache.values, fn)
    return u @ (k * g) @ ut


def qr_orthonormalize(m: np.ndarray) -> np.ndarray:
    """Orthonormalize the rows of each matrix of the stack m (..., p, n), p <= n.

    Sign convention: the triangular factor has nonnegative diagonal, making
    the map deterministic and the identity on already-orthonormal input.
    Returns a C-contiguous stack.  Rank-deficient or non-finite input or
    factors raise ``NumericalError`` with the first offending matrix's 1-based
    index on the stack's first axis as its ``matrix`` field (none for a lone
    matrix); a LAPACK failure raises it unlocated.
    Input and factors are checked whole: when a Householder reflector is the
    identity, a NaN of the input stays above R's diagonal and Q is finite.
    """
    m = np.asarray(m, dtype=np.float64)
    cols = m.shape[-1]
    _reject(~np.isfinite(m).all(axis=(-2, -1)), "input is not finite")
    try:
        q, r = np.linalg.qr(np.swapaxes(m, -1, -2))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"QR factorization failed: {exc}") from exc
    _reject(~(np.isfinite(q).all(axis=(-2, -1)) & np.isfinite(r).all(axis=(-2, -1))), "QR factors are not finite")
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    scale = np.maximum(1.0, np.abs(r).max(axis=(-2, -1)))
    tol = cols * np.finfo(np.float64).eps * scale
    _reject((np.abs(diag) <= tol[..., None]).any(axis=-1), "input rows are rank-deficient")
    sign = np.where(diag < 0, -1.0, 1.0)
    return np.ascontiguousarray(np.swapaxes(q * sign[..., None, :], -1, -2))


def _reject(bad: np.ndarray, message: str):
    """Raise ``NumericalError`` at the first matrix of a stack where ``bad`` is True."""
    if np.any(bad):
        raise NumericalError(message, **_first(bad, ("matrix",)))
