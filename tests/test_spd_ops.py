"""Layer primitives, forward: the pyramid's GaussAgg (network._batched_gauss),
the per-frame GaussAgg+ReEig+LogEig map (network._frame_log), and spd_ops'
HalfVec and SPDSpatAgg, by hand-computed values and the properties their
callers rely on.  Each is compared with its straight-line oracle in
test_oracle_layers.py's LAYERS alone, and its backward pass is
finite-differenced in gradcheck.LAYERS alone (tests/test_gradcheck.py)."""

import numpy as np
import pytest

from handspd import linalg, network, spd_ops
from handspd.errors import InvalidInput
from handspd.network import NetworkConfig

import oracles


def _single_range(vectors, lambda_reg=0.0):
    """The pyramid's GaussAgg of an (n, d) set over its one range: n_T = 1."""
    return network._batched_gauss(vectors[None], 1, lambda_reg)[0, 0]


class TestGaussAgg:
    """The pyramid's biased GaussAgg, network._batched_gauss."""

    def test_hand_computed_two_samples(self):
        # Samples (0,) and (2,): mu = 1, biased sigma = 1.
        out = _single_range(np.array([[0.0], [2.0]]))
        assert np.allclose(out, [[2.0, 1.0], [1.0, 1.0]], atol=1e-14)

    def test_output_positive_definite_with_ridge(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((3, 5))  # fewer samples than dims
        out = _single_range(vectors, 1e-3)
        assert np.linalg.eigvalsh(out).min() > 0

    def test_symmetric_output(self):
        rng = np.random.default_rng(2)
        out = _single_range(rng.standard_normal((6, 3)))
        assert np.abs(out - out.T).max() == 0.0

    def test_rejects_bad_config(self):
        # The ridge is NetworkConfig.lambda_reg; the denominators are fixed
        # per stage, so no normalization mode can be misspelled.
        with pytest.raises(InvalidInput):
            NetworkConfig(lambda_reg=-1.0)

    def test_rejects_too_few_samples(self):
        # Unbiased frame covariances need two joints per finger; biased range
        # covariances need a non-empty range, i.e. n_F >= n_T.
        with pytest.raises(InvalidInput):
            NetworkConfig(joints_per_finger=1).graph()
        with pytest.raises(InvalidInput):
            NetworkConfig(n_F=2, n_T=3)


class TestFrameLog:
    """network._frame_log: log max(X2, eps) of the unbiased Gaussian embedding
    X2 = B B^T, computed from the Gram matrix B^T B = U diag(l) U^T; it
    returns the factor P = B U in that eigenbasis and h(l)."""

    def test_factor_reproduces_the_embedding(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((4, 3))
        _, factor, gram_eig, h = network._frame_log(vectors, 1e-4)
        expected = oracles.gauss_agg_reference(vectors, unbiased=True)
        assert np.abs(factor @ factor.T - expected).max() < 1e-12
        # P's columns are orthogonal, with squared norms the Gram eigenvalues.
        assert np.abs(factor.T @ factor - np.diag(gram_eig.values)).max() < 1e-12
        assert np.array_equal(h, linalg.gram_log_fn(1e-4).f(gram_eig.values))

class TestHalfVec:
    def test_hand_computed_2x2(self):
        y = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert np.allclose(spd_ops.half_vec(y), [1.0, 2.0 * np.sqrt(2.0), 3.0], atol=1e-15)

    def test_batched_agrees_with_single(self):
        rng = np.random.default_rng(1)
        ys = rng.standard_normal((3, 4, 5, 5))
        ys = ys + np.swapaxes(ys, -1, -2)
        batched = spd_ops.half_vec(ys)
        assert batched.shape == (3, 4, 15)
        for i in range(3):
            for j in range(4):
                assert np.array_equal(batched[i, j], spd_ops.half_vec(ys[i, j]))

    def test_adjoint_inner_product_identity(self):
        rng = np.random.default_rng(2)
        d = 5
        y = rng.standard_normal((d, d))
        y = y + y.T
        g = rng.standard_normal(spd_ops.half_vec_dim(d))
        lhs = float(g @ spd_ops.half_vec(y))
        rhs = float(np.sum(spd_ops.half_vec_adjoint(g, d) * y))
        assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("d", [1, 4, 10])
    def test_adjoint_matches_literal_mirror(self, d):
        # Entry (i, j) and its mirror both read g's slot for the pair,
        # divided by sqrt 2 off the diagonal: bit for bit, batched.
        g = np.random.default_rng(d).standard_normal((2, 3, spd_ops.half_vec_dim(d)))
        want = np.empty((2, 3, d, d))
        k = 0
        for i in range(d):
            for j in range(i, d):
                want[..., i, j] = want[..., j, i] = g[..., k] / (1.0 if i == j else np.sqrt(2.0))
                k += 1
        assert np.array_equal(spd_ops.half_vec_adjoint(g, d), want)

    def test_round_trip_through_adjoint_scaling(self):
        # half_vec(half_vec_adjoint(g)) recovers g exactly.
        rng = np.random.default_rng(3)
        g = rng.standard_normal(spd_ops.half_vec_dim(4))
        back = spd_ops.half_vec(spd_ops.half_vec_adjoint(g, 4))
        assert np.abs(back - g).max() < 1e-14

    def test_dim_formula(self):
        assert [spd_ops.half_vec_dim(d) for d in (1, 2, 10, 56)] == [1, 3, 55, 1596]


class TestSpdSpatAgg:
    def _random_case(self, seed, n_l=3, d_in=5, d_out=4):
        rng = np.random.default_rng(seed)
        inputs = np.stack(
            [rng.standard_normal((d_in, d_in)) for _ in range(n_l)]
        )
        inputs = inputs @ np.swapaxes(inputs, -1, -2) + 0.1 * np.eye(d_in)
        weights = np.stack(
            [linalg.qr_orthonormalize(rng.standard_normal((d_out, d_in))) for _ in range(n_l)]
        )
        return inputs, weights

    def test_output_positive_definite(self):
        for seed in range(5):
            inputs, weights = self._random_case(seed)
            out = spd_ops.spd_spat_agg(inputs, weights)
            assert np.linalg.eigvalsh(out).min() > 0
