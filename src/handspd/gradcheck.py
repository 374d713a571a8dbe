"""Finite-difference verification of every analytic backward pass: ``LAYERS``
is the package's one such harness.

Each layer check compares the analytic gradient of the scalar probe
L(theta) = <C, layer(theta)>, for a random cotangent C, against central
differences at step ``H`` (``_probe_error``); the ``network`` check does so
for the cross-entropy loss.  ``run`` reports the worst relative error over
seeded random instances.  Each check calls the implementation the network
runs, on a small stack of inputs where that implementation is batched.  The
affine FC layer and the softmax cross-entropy have no check of their own: the
``network`` check finite-differences every parameter, ``fc_weight`` and
``fc_bias`` included, through ``network.loss_and_backward``.  The command and
the acceptance suite pass a check below ``THRESHOLD`` (1e-4); the unit tests
hold each layer check below 1e-8 and the ``network`` check below 1e-6.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import linalg, network, optim, skeleton, spd_ops
from .data import GestureSequence
from .errors import InvalidInput
from .network import NetworkConfig
from .skeleton import HandGraph

H = 1e-5
THRESHOLD = 1e-4


def fd_grad(fn, x: np.ndarray) -> np.ndarray:
    """Central finite differences, at step ``H``, of a scalar function over an ndarray."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    grad = np.zeros(x.shape)
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += H
        xm[idx] -= H
        grad[idx] = (fn(xp) - fn(xm)) / (2.0 * H)
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    num = np.linalg.norm(np.ravel(analytic) - np.ravel(numeric))
    return float(num / max(np.linalg.norm(np.ravel(numeric)), 1e-8))


def _probe_error(analytic: np.ndarray, layer, theta: np.ndarray, cot: np.ndarray) -> float:
    """Relative error of ``analytic`` against the finite-difference gradient
    of the probe <cot, layer(theta)> at ``theta``."""
    return rel_error(analytic, fd_grad(lambda t: float(np.sum(cot * layer(t))), theta))


def _check_graph_conv(rng):
    # The filters only: the coordinates are the network's input, not trained.
    graph = HandGraph(2, 3)
    d1 = 3
    frame = rng.standard_normal((graph.n_joints, 3))
    weights = rng.standard_normal((3, d1, 3))
    cot = rng.standard_normal((graph.n_fingers, graph.joints_per_finger, d1))
    analytic = skeleton.graph_conv_backward(frame, cot, graph)
    return _probe_error(analytic, lambda w: skeleton.graph_conv(frame, w, graph), weights, cot)


def _check_gauss_range(rng):
    # The pyramid on a (2, 7, d) stack of frames: n_T = 3 gives six
    # overlapping ranges cut into four segments, so every frame enters three
    # ranges and the segment sums are checked too.  The cotangent is not
    # symmetric: the adjoint holds for any.
    n_f, n_t, d, lambda_reg = 7, 3, 4, 0.1
    z = rng.standard_normal((2, n_f, d))
    n_q = len(network.pyramid_split(n_f, n_t))
    cot = rng.standard_normal((2, n_q, d + 1, d + 1))
    analytic = network._gauss_backward_batched(z, n_t, cot)
    return _probe_error(analytic, lambda v: network._batched_gauss(v, n_t, lambda_reg), z, cot)


def _check_frame_log(rng):
    # A (2, 3) stack of n d-vectors whose centered parts have two large and
    # one small squared singular value, so each n x n Gram matrix B^T B has
    # its smallest eigenvalue in (0, eps) and the other three above eps.
    # eps sits at the geometric mean of the gap between the smallest two,
    # which keeps every eigenvalue at least eps/2 from the kink and central
    # differences on a smooth map.
    n, d = 4, 4
    # basis[..., 1:] spans the zero-sum vectors, so its rows are centered.
    basis, _ = np.linalg.qr(
        np.concatenate([np.ones((2, 3, n, 1)), rng.standard_normal((2, 3, n, n - 1))], axis=-1)
    )
    directions, _ = np.linalg.qr(rng.standard_normal((2, 3, d, n - 1)))
    gram_values = np.concatenate(
        [rng.uniform(0.5, 2.0, (2, 3, 2)), rng.uniform(0.001, 0.005, (2, 3, 1))], axis=-1
    )
    centered = (basis[..., 1:] * np.sqrt((n - 1) * gram_values)[..., None, :]) @ np.swapaxes(
        directions, -1, -2
    )
    vectors = centered + 0.3 * rng.standard_normal((2, 3, 1, d))
    values = network._frame_log(vectors, 1.0)[2].values
    eps = float(np.sqrt(values[..., 1].min() * values[..., 0].max()))
    cot = linalg.symmetrize(rng.standard_normal((2, 3, d + 1, d + 1)))
    _, factor, gram_eig, h = network._frame_log(vectors, eps)
    analytic = network._frame_log_backward(cot, factor, gram_eig, h, eps)
    return _probe_error(analytic, lambda v: network._frame_log(v, eps)[0], vectors, cot)


def _check_half_vec(rng):
    d = 6
    y = linalg.symmetrize(rng.standard_normal((d, d)))
    cot = rng.standard_normal(spd_ops.half_vec_dim(d))
    analytic = spd_ops.half_vec_adjoint(cot, d)
    return _probe_error(analytic, lambda s: spd_ops.half_vec(linalg.symmetrize(s)), y, cot)


def _check_spat_agg(rng):
    n_l, d_in, d_out = 3, 5, 4
    a = rng.standard_normal((n_l, d_in, d_in))
    inputs = a @ np.swapaxes(a, -1, -2) / d_in + 0.5 * np.eye(d_in)
    weights = linalg.qr_orthonormalize(rng.standard_normal((n_l, d_out, d_in)))
    cot = linalg.symmetrize(rng.standard_normal((d_out, d_out)))
    gx, gw = spd_ops.spd_spat_agg_backward(inputs, weights, cot)
    return max(
        _probe_error(gx, lambda xs: spd_ops.spd_spat_agg(xs, weights), inputs, cot),
        _probe_error(gw, lambda ws: spd_ops.spd_spat_agg(inputs, ws), weights, cot),
    )


def _check_final_log(rng):
    # The final LogEig on (3, 6, 6) spectra with two pairs at relative gaps
    # 1e-9 ... 1e-6 (the kernel's atanh form) and one exact tie (its guard).
    base = rng.uniform(0.5, 2.0, (3, 3))
    close = base[:, :2] * (1.0 + 10.0 ** rng.uniform(-9, -6, (3, 2)))
    values = np.concatenate([base, close, base[:, 2:]], axis=-1)
    q, _ = np.linalg.qr(rng.standard_normal((3, 6, 6)))
    s = linalg.symmetrize((q * values[:, None, :]) @ np.swapaxes(q, -1, -2))
    cot = linalg.symmetrize(rng.standard_normal((3, 6, 6)))
    analytic = linalg.spectral_fn_backward_cached(linalg.LOG, cot, linalg.sym_eig_batch(s))
    log_of = lambda m: linalg.spectral_apply_cached(linalg.sym_eig_batch(linalg.symmetrize(m)), linalg.LOG)
    return _probe_error(analytic, log_of, s, cot)


def toy_config() -> NetworkConfig:
    return NetworkConfig(
        d1=2, n_T=2, n_F=4, eps=1e-4, lambda_reg=1e-3,
        n_classes=3, n_fingers=2, joints_per_finger=2, d_spat=4,
    )


def _check_network(rng):
    cfg = toy_config()
    graph = cfg.graph()
    params = optim.init_params(cfg, seed=int(rng.integers(1 << 31)))
    batch = [
        GestureSequence(
            rng.standard_normal((cfg.n_F, cfg.n_joints, 3)), int(rng.integers(1, cfg.n_classes + 1))
        )
        for _ in range(2)
    ]
    _, grads = network.loss_and_backward(batch, params, cfg, graph)
    loss_of = lambda v: network.loss_and_backward(batch, params.from_vector(v), cfg, graph)[0]
    return rel_error(grads.to_vector(), fd_grad(loss_of, params.to_vector()))


LAYERS = {
    "graph_conv": _check_graph_conv,
    "frame_log": _check_frame_log,
    "gauss_range": _check_gauss_range,
    "half_vec": _check_half_vec,
    "spd_spat_agg": _check_spat_agg,
    "final_log": _check_final_log,
    "network": _check_network,
}


def run(seed: int = 0, n_instances: int = 20, layers=None):
    """Max relative FD error per layer."""
    if seed < 0 or n_instances < 1:
        raise InvalidInput(f"need seed >= 0 and n_instances >= 1, got {seed} and {n_instances}")
    results = {}
    names = layers or list(LAYERS)
    for name in names:
        if name not in LAYERS:
            raise InvalidInput(f"unknown layer {name!r}; choose from {sorted(LAYERS)}")
        count = n_instances if name != "network" else max(1, n_instances // 4)
        # np.max, unlike max, keeps a NaN error, which then reads FAIL.
        results[name] = float(np.max([
            LAYERS[name](np.random.default_rng((seed, zlib.crc32(name.encode()), k))) for k in range(count)
        ]))
    return results


def format_table(results) -> str:
    lines = [f"{'layer':<20s} {'max rel err':>12s}  status"]
    for name, err in results.items():
        status = "PASS" if err < THRESHOLD else "FAIL"
        lines.append(f"{name:<20s} {err:>12.3e}  {status}")
    return "\n".join(lines)
