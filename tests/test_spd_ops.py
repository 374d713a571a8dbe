"""Layer primitives, forward: the pyramid's GaussAgg (network._batched_gauss),
the per-frame GaussAgg+ReEig+LogEig map (network._frame_log), the dense
ReEig+LogEig reference map it is checked against, and spd_ops' HalfVec
and SPDSpatAgg, each against a straight-line oracle.  The backward passes
are finite-differenced in gradcheck.LAYERS alone (tests/test_gradcheck.py);
the reference map's adjoint is compared with the checked frame_log backward
pass in test_network.py's test_frame_log_backward_matches_dense_chain."""

import numpy as np
import pytest

from handspd import linalg, network, spd_ops
from handspd.errors import InvalidInput
from handspd.network import NetworkConfig

import oracles


def _single_range(vectors, lambda_reg=0.0):
    """The pyramid's GaussAgg of an (n, d) set over its one range: n_T = 1."""
    return network._batched_gauss(vectors[None], 1, lambda_reg)[0, 0]


def _reeig_log(x, eps):
    return linalg.spectral_apply_cached(linalg.sym_eig_batch(x), oracles.reeig_log_fn(eps))


class TestGaussAgg:
    """The pyramid's biased GaussAgg, network._batched_gauss."""

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_matches_definitional_oracle(self, lam):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((7, 4))
        expected = oracles.gauss_agg_reference(vectors, lambda_reg=lam)
        assert np.abs(_single_range(vectors, lam) - expected).max() < 1e-12

    def test_pyramid_stack_matches_oracle_range_by_range(self):
        # n_F = 7, n_T = 3: overlapping ranges of 7, 3, 4, 2, 2 and 3 frames.
        rng = np.random.default_rng(4)
        z = rng.standard_normal((2, 7, 4))
        out = network._batched_gauss(z, 3, 0.5)
        assert out.shape == (2, 6, 5, 5)
        for s in range(2):
            for q, (tb, te) in enumerate(network.pyramid_split(7, 3)):
                expected = oracles.gauss_agg_reference(z[s, tb - 1 : te], lambda_reg=0.5)
                assert np.abs(out[s, q] - expected).max() < 1e-12

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

    @staticmethod
    def _dense(vectors, eps):
        x2 = oracles.gauss_agg_reference(vectors, unbiased=True)
        return oracles.logm(oracles.clamp_eig(x2, eps))

    def test_batched_stack_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((2, 3, 4, 9))
        out, factor, gram_eig, _ = network._frame_log(vectors, 1e-4)
        assert out.shape == (2, 3, 10, 10) and factor.shape == (2, 3, 10, 4)
        assert gram_eig.values.shape == (2, 3, 4)
        for i in range(2):
            for j in range(3):
                assert np.abs(out[i, j] - self._dense(vectors[i, j], 1e-4)).max() < 1e-10

    def test_factor_reproduces_the_embedding(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((4, 3))
        _, factor, gram_eig, h = network._frame_log(vectors, 1e-4)
        expected = oracles.gauss_agg_reference(vectors, unbiased=True)
        assert np.abs(factor @ factor.T - expected).max() < 1e-12
        # P's columns are orthogonal, with squared norms the Gram eigenvalues.
        assert np.abs(factor.T @ factor - np.diag(gram_eig.values)).max() < 1e-12
        assert np.array_equal(h, linalg.gram_log_fn(1e-4).f(gram_eig.values))

    def test_gram_eigenvalues_between_zero_and_eps(self):
        # Small centered spread: three Gram eigenvalues in (0, eps) besides
        # the mean direction's eigenvalue near 1.
        rng = np.random.default_rng(2)
        vectors = 0.5 + 1e-3 * rng.standard_normal((4, 3))
        out, _, gram_eig, _ = network._frame_log(vectors, 1e-2)
        assert ((gram_eig.values > 1e-9) & (gram_eig.values < 1e-2)).sum() == 3
        assert np.abs(out - self._dense(vectors, 1e-2)).max() < 1e-10

    def test_collapsed_vectors(self):
        # All vectors equal: B, and so P = B U, has rank 1 and X2 has one
        # eigenvalue 1 + |mu|^2.
        vectors = np.tile([0.3, -1.2, 2.0], (4, 1))
        out, factor, _, _ = network._frame_log(vectors, 1e-4)
        assert np.linalg.matrix_rank(factor) == 1
        assert np.all(np.isfinite(out))
        assert np.abs(out - self._dense(vectors, 1e-4)).max() < 1e-10


class TestReEig:
    """The rectifying half of the dense ReEig+LogEig reference map."""

    def test_clamps_small_eigenvalues(self):
        out = _reeig_log(np.diag([5.0, 1e-9, -2.0]), 1e-4)
        assert np.allclose(np.sort(np.linalg.eigvalsh(out)), np.log([1e-4, 1e-4, 5.0]))

    def test_identity_above_threshold(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        x = a @ a.T + np.eye(4)
        assert np.abs(_reeig_log(x, 1e-4) - oracles.logm(x)).max() < 1e-12

    def test_matches_basis_free_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        x = a @ a.T / 50.0  # eigenvalues straddle the threshold
        expected = oracles.logm(oracles.clamp_eig(x, 1e-2))
        assert np.abs(_reeig_log(x, 1e-2) - expected).max() < 1e-10

    def test_output_always_positive_definite(self):
        # The rectified matrix exp(out) has every eigenvalue >= eps.
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = rng.standard_normal((4, 4))
            s = s + s.T
            out = _reeig_log(s, 1e-4)
            assert np.exp(np.linalg.eigvalsh(out).min()) >= 1e-4 * (1 - 1e-6)


class TestLogEig:
    """The logarithm half of the dense ReEig+LogEig reference map."""

    def test_matches_basis_free_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        x = a @ a.T + 0.3 * np.eye(5)
        expected = oracles.logm(oracles.clamp_eig(x, 1e-4))
        assert np.abs(_reeig_log(x, 1e-4) - expected).max() < 1e-10

    def test_log_of_scaled_identity(self):
        out = _reeig_log(3.0 * np.eye(4), 1e-4)
        assert np.allclose(out, np.log(3.0) * np.eye(4), atol=1e-14)


class TestHalfVec:
    def test_hand_computed_2x2(self):
        y = np.array([[1.0, 2.0], [2.0, 3.0]])
        assert np.allclose(spd_ops.half_vec(y), [1.0, 2.0 * np.sqrt(2.0), 3.0], atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_matches_literal_oracle(self, d):
        rng = np.random.default_rng(d)
        y = rng.standard_normal((d, d))
        y = y + y.T
        assert np.abs(spd_ops.half_vec(y) - oracles.half_vec_reference(y)).max() < 1e-14

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

    def test_matches_loop_reference(self):
        inputs, weights = self._random_case(0)
        expected = np.zeros((4, 4))
        for w, x in zip(weights, inputs):
            expected += w @ x @ w.T
        assert np.abs(spd_ops.spd_spat_agg(inputs, weights) - expected).max() < 1e-12

    def test_output_positive_definite(self):
        for seed in range(5):
            inputs, weights = self._random_case(seed)
            out = spd_ops.spd_spat_agg(inputs, weights)
            assert np.linalg.eigvalsh(out).min() > 0
