"""The forward gate: each layer the network runs, called through the module
attribute the network calls and on a batched stack, against its straight-line
oracle in ``tests/oracles.py``.  ``LAYERS`` is keyed like ``gradcheck.LAYERS``,
the backward gate; each entry is (module, attribute, bound, check), and its
check returns the worst error, absolute except in the ``network`` entry."""

import dataclasses
import functools

import numpy as np
import pytest

from handspd import gradcheck, linalg, network, optim, skeleton, spd_ops
from handspd.network import NetworkConfig

import oracles

N_CONFIGS = 100


def _worst(got, want):
    # np.max, unlike max, keeps a NaN, which then fails its bound.
    return float(np.max(np.abs(got - np.reshape(want, np.shape(got)))))


def _graph_conv():
    errors = []
    for fingers, jpf in ((5, 4), (2, 3), (1, 2)):
        rng = np.random.default_rng(fingers * 10 + jpf)
        frames, weights = rng.standard_normal((3, 2 + fingers * jpf, 3)), rng.standard_normal((3, 4, 3))
        out = np.swapaxes(skeleton.graph_conv(frames, weights, skeleton.HandGraph(fingers, jpf)), 0, 1)  # (T, S, J, d1)
        errors.append(_worst(out, [oracles.graph_conv_reference(f, weights, fingers, jpf) for f in frames]))
    return np.max(errors)


def _frame_log():
    random = np.random.default_rng(0).standard_normal((2, 3, 4, 9))
    # A small spread: three Gram eigenvalues in (0, eps), the mean's near 1.
    small = 0.5 + 1e-3 * np.random.default_rng(2).standard_normal((1, 4, 3))
    # All vectors equal: B, and so P = B U, has rank 1.
    equal = np.tile([0.3, -1.2, 2.0], (1, 4, 1))
    errors = []
    for vectors, eps in ((random, 1e-4), (small, 1e-2), (equal, 1e-4)):
        out, factor, gram_eig, _ = network._frame_log(vectors, eps)
        n, d = vectors.shape[-2:]
        assert out.shape == vectors.shape[:-2] + (d + 1, d + 1) and factor.shape == vectors.shape[:-2] + (d + 1, n)
        assert gram_eig.values.shape == vectors.shape[:-1]
        assert vectors is not small or ((gram_eig.values > 1e-9) & (gram_eig.values < eps)).sum() == 3
        assert vectors is not equal or np.linalg.matrix_rank(factor[0]) == 1
        dense = [oracles.gauss_agg_reference(v, unbiased=True) for v in vectors.reshape(-1, n, d)]
        errors.append(_worst(out, [oracles.logm(oracles.clamp_eig(x2, eps)) for x2 in dense]))
    return np.max(errors)


def _gauss_range():
    # n_T = 1: one range of all 7 frames; n_T = 3: ranges of 7, 3, 4, 2, 2 and 3.
    one = np.random.default_rng(0).standard_normal((1, 7, 4))
    errors = []
    for z, n_t, lam in ((one, 1, 0.0), (one, 1, 0.5), (np.random.default_rng(4).standard_normal((2, 7, 4)), 3, 0.5)):
        out = network._batched_gauss(z, n_t, lam)
        ranges = network.pyramid_split(7, n_t)
        assert out.shape == (len(z), len(ranges), 5, 5)
        want = [[oracles.gauss_agg_reference(zs[tb - 1 : te], lambda_reg=lam) for tb, te in ranges] for zs in z]
        errors.append(_worst(out, want))
    return np.max(errors)


def _half_vec():
    ys = [np.random.default_rng(d).standard_normal((3, d, d)) for d in (2, 3, 6)]
    ys = [y + np.swapaxes(y, -1, -2) for y in ys]
    return np.max([_worst(spd_ops.half_vec(y), [oracles.half_vec_reference(m) for m in y]) for y in ys])


def _spd_spat_agg():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 5, 5))
    inputs = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(5)
    weights = linalg.qr_orthonormalize(rng.standard_normal((3, 4, 5)))
    return _worst(spd_ops.spd_spat_agg(inputs, weights), sum(w @ x @ w.T for w, x in zip(weights, inputs)))


def _final_log():
    a = np.random.default_rng(3).standard_normal((3, 5, 5))
    s = a @ np.swapaxes(a, -1, -2) + np.eye(5)
    return _worst(linalg.spectral_apply_cached(linalg.sym_eig_batch(s), linalg.LOG), [oracles.logm(m) for m in s])


def _draw_config(rng):
    """A config drawn from the whole config space, eps and lambda_reg log-uniform."""
    n_t = int(rng.integers(1, 5))
    cfg = NetworkConfig(
        d1=int(rng.integers(1, 5)), n_T=n_t, n_F=int(rng.integers(max(2, n_t), 14)),
        eps=10.0 ** rng.uniform(-6, -1), lambda_reg=10.0 ** rng.uniform(-6, -1), n_classes=int(rng.integers(2, 6)),
        n_fingers=int(rng.integers(1, 6)), joints_per_finger=int(rng.integers(2, 6)),
    )
    return dataclasses.replace(cfg, d_spat=int(rng.integers(1, cfg.temp_dim + 1)))


@functools.cache
def _network_cases():
    """(config, params, frames, oracle outputs, finger with rank-1 frame
    factors) per case; the oracle runs once for the check and its control."""
    cases = []

    def add(cfg, seed, frames, collapsed=None):
        p = optim.init_params(cfg, seed=seed)
        want = oracles.network_forward_reference(frames, p.conv, p.spat, p.fc_weight, p.fc_bias, cfg)
        cases.append((cfg, p, frames, want, collapsed))

    rng = np.random.default_rng(0)
    add(gradcheck.toy_config(), 0, rng.standard_normal((4, 6, 3)))
    for cfg in (_draw_config(rng) for _ in range(N_CONFIGS)):
        add(cfg, int(rng.integers(1 << 31)), rng.standard_normal((cfg.n_F, cfg.n_joints, 3)))
    cfg = NetworkConfig()
    # The palm and finger 2 at the origin: that finger's features are all zero.
    collapsed = np.random.default_rng(1).standard_normal((cfg.n_F, cfg.n_joints, 3))
    collapsed[:, [1, *range(6, 10)]] = 0.0
    add(cfg, 1, collapsed, collapsed=1)
    # Every frame identical: the pyramid matrices rest on the ridge.
    add(cfg, 2, np.repeat(np.random.default_rng(2).standard_normal((1, cfg.n_joints, 3)), cfg.n_F, axis=0))
    # n_F = n_T = 3: one-frame ranges; n_F = 12 < half_dim + 1: every range on the ridge.
    for n_f in (3, 12):
        add(NetworkConfig(n_F=n_f), 4, np.random.default_rng(4).standard_normal((n_f, cfg.n_joints, 3)))
    return cases


def _network():
    """The worst error of the logits, feature and final matrix, each relative
    to max(1, |oracle|_inf), as a fraction of 1e-10 or of float64's floor
    2^-53 (lambda_max / lambda_min of the final matrix + lambda_max / eps of
    the frame Grams, whose zero eigenvalues the oracle clamps to eps)."""
    errors = []
    for cfg, params, frames, wants, collapsed in _network_cases():
        logits, final, tape = network.forward(frames, params, cfg)
        error = np.max([_worst(got, want) / max(1.0, np.abs(want).max())
                        for got, want in zip((logits, tape.feature, final), wants)])
        final_eig, gram_eig = tape.final_eig.values, tape.frame_eig.values
        floor = 2.0**-53 * (final_eig.max() / final_eig.min() + gram_eig.max() / cfg.eps)
        errors.append(error / max(1e-10, floor))
        assert collapsed is None or all(np.linalg.matrix_rank(b) == 1 for b in tape.frame_factor[collapsed])
    return np.max(errors)


LAYERS = {
    "graph_conv": (skeleton, "graph_conv", 1e-12, _graph_conv),
    "frame_log": (network, "_frame_log", 1e-10, _frame_log),
    "gauss_range": (network, "_batched_gauss", 1e-12, _gauss_range),
    "half_vec": (spd_ops, "half_vec", 1e-14, _half_vec),
    "spd_spat_agg": (spd_ops, "spd_spat_agg", 1e-12, _spd_spat_agg),
    "final_log": (linalg, "spectral_apply_cached", 1e-12, _final_log),
    "network": (network, "forward", 1.0, _network),
}


@pytest.mark.parametrize("layer", list(LAYERS))
def test_batched_layer_matches_its_oracle(layer):
    assert list(LAYERS) == list(gradcheck.LAYERS)
    _, _, bound, check = LAYERS[layer]
    assert check() < bound


@pytest.mark.parametrize("factor", [1.01, np.nan])
@pytest.mark.parametrize("layer", list(LAYERS))
def test_scaled_forward_fails(layer, factor, monkeypatch):
    # Negative control: each check reads the attribute it names, so a value
    # 1% off, or NaN, fails the bound.  Of a tuple, the first item is scaled.
    module, name, bound, check = LAYERS[layer]
    layer_fn = getattr(module, name)

    def scaled(*args):
        out = layer_fn(*args)
        return (factor * out[0], *out[1:]) if isinstance(out, tuple) else factor * out

    monkeypatch.setattr(module, name, scaled)
    assert not check() < bound
