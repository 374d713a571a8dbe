import mpmath
import numpy as np
import pytest

from handspd import data, linalg, network, optim
from handspd.errors import RankError, SpectralDomainError
from handspd.network import NetworkConfig

import oracles


def _apply(s, fn):
    return linalg.spectral_apply_cached(linalg.sym_eig_batch(s), fn)


class TestSymEig:
    def test_identity(self):
        pair = linalg.sym_eig_batch(np.eye(3))
        assert np.allclose(pair.values, [1, 1, 1])
        recon = pair.vectors @ np.diag(pair.values) @ pair.vectors.T
        assert np.abs(recon - np.eye(3)).max() < 1e-12

    def test_diagonal(self):
        pair = linalg.sym_eig_batch(np.diag([3.0, 1.0]))
        assert np.allclose(pair.values, [1.0, 3.0])
        assert np.allclose(np.abs(pair.vectors), [[0.0, 1.0], [1.0, 0.0]])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        s = a @ a.T + a.T @ a
        pair = linalg.sym_eig_batch(s)
        recon = pair.vectors @ np.diag(pair.values) @ pair.vectors.T
        rel = np.linalg.norm(recon - s) / max(1.0, np.linalg.norm(s))
        assert rel < 1e-10
        assert np.abs(pair.vectors.T @ pair.vectors - np.eye(6)).max() < 1e-10
        assert np.all(np.diff(pair.values) >= -1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_characteristic_polynomial_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for s, oracle in ((rng.standard_normal((2, 2)), oracles.eigvals_2x2),
                          (rng.standard_normal((3, 3)), oracles.eigvals_3x3)):
            s = s + s.T
            got = np.sort(linalg.sym_eig_batch(s).values)
            assert np.abs(got - np.sort(oracle(s))).max() < 1e-8

    def test_batched_stack_matches_slices(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal((2, 3, 5, 5))
        s = s + np.swapaxes(s, -1, -2)
        pair = linalg.sym_eig_batch(s)
        for i in range(2):
            for j in range(3):
                single = linalg.sym_eig_batch(s[i, j])
                assert np.abs(pair.values[i, j] - single.values).max() < 1e-12
                assert np.abs(pair.vectors[i, j] - single.vectors).max() < 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((5, 5))
        s = s + s.T
        p1 = linalg.sym_eig_batch(s)
        p2 = linalg.sym_eig_batch(s.copy())
        assert np.array_equal(p1.vectors, p2.vectors)
        assert np.array_equal(p1.values, p2.values)


class TestSpectralApply:
    def test_log_of_identity_is_zero(self):
        assert np.abs(_apply(np.eye(3), linalg.LOG)).max() == 0.0

    def test_log_of_diagonal(self):
        out = _apply(np.diag([np.e, np.e**2]), linalg.LOG)
        assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-12)

    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5))
        x = a @ a.T + 0.5 * np.eye(5)
        back = _apply(_apply(x, linalg.LOG), oracles.EXP)
        assert np.linalg.norm(back - x) < 1e-8

    def test_identity_fn_is_identity(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal((4, 4))
        s = s + s.T
        assert np.abs(_apply(s, oracles.IDENTITY) - s).max() < 1e-12

    def test_monotone_fn_maps_ordered_eigenvalues(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        x = a @ a.T + np.eye(5)
        out_vals = np.sort(np.linalg.eigvalsh(_apply(x, linalg.LOG)))
        in_vals = np.sort(np.linalg.eigvalsh(x))
        assert np.abs(out_vals - np.log(in_vals)).max() < 1e-9

    def test_domain_error_carries_eigenvalue(self):
        with pytest.raises(SpectralDomainError) as err:
            _apply(np.diag([1.0, -2.0]), linalg.LOG)
        assert err.value.where == {"eigenvalue": pytest.approx(-2.0)}


class TestSpectralFnBackward:
    def test_diagonal_log_gradient(self):
        s = np.diag([2.0, 5.0])
        out = linalg.spectral_fn_backward_cached(linalg.LOG, np.eye(2), linalg.sym_eig_batch(s))
        assert np.allclose(out, np.diag([0.5, 0.2]), atol=1e-12)

    def test_zero_cotangent(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((4, 4))
        s = s + s.T
        out = linalg.spectral_fn_backward_cached(oracles.IDENTITY, np.zeros((4, 4)), linalg.sym_eig_batch(s))
        assert np.abs(out).max() == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_finite_difference_log_and_clamp(self, seed):
        from handspd.gradcheck import fd_grad, rel_error

        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 5))
        s = a @ a.T / 5 + 0.5 * np.eye(5)
        c = rng.standard_normal((5, 5))
        c = 0.5 * (c + c.T)
        for fn in (linalg.LOG, oracles.reeig_log_fn(1e-4), linalg.gram_log_fn(1e-4)):
            analytic = linalg.spectral_fn_backward_cached(fn, c, linalg.sym_eig_batch(s))
            probe = lambda m: float(
                np.sum(c * _apply(0.5 * (m + m.T), fn))
            )
            numeric = linalg.symmetrize(fd_grad(probe, s))
            assert rel_error(analytic, numeric) < 1e-5

    @pytest.mark.parametrize("lam", [1e-2, 1.0, 1e3])
    def test_log_divided_differences_at_close_eigenvalues(self, lam):
        # Relative gaps 1e-10 ... 1e-5 straddle the tie guard (1e-10 relative
        # above 1); above it the raw quotient of logs cancels catastrophically.
        # The same holds for the frame map's h(x) = log(x / eps) / x.
        eps = 1e-4
        with mpmath.workdps(50):
            log = mpmath.log
            gram_log = lambda x: mpmath.log(x / mpmath.mpf(eps)) / x
        for fn, f in ((linalg.LOG, log), (linalg.gram_log_fn(eps), gram_log)):
            for gap in 10.0 ** np.arange(-10, -4):
                a, b = lam, lam * (1.0 + gap)
                with mpmath.workdps(50):
                    want = (f(mpmath.mpf(a)) - f(mpmath.mpf(b))) / (mpmath.mpf(a) - mpmath.mpf(b))
                got = linalg.loewner_matrix(np.array([a, b]), fn)
                for entry in (got[0, 1], got[1, 0]):
                    assert abs((entry - want) / want) <= 1e-14

    def test_log_divided_difference_far_apart(self):
        # Past a / b of about 2^53, (a - b) / (a + b) rounds to 1 and Higham's
        # atanh form is infinite; the plain quotient of logs is accurate there.
        # Wherever the atanh form is finite, it is what the kernel returns.
        values = np.geomspace(1.0, 1e300, 31)
        rows, cols, _ = linalg._pair_maps(values.size)
        a, b = values[rows], values[cols]
        with np.errstate(divide="ignore"):
            higham = 2.0 * np.arctanh((a - b) / (a + b)) / (a - b)
        got = linalg.loewner_matrix(values, linalg.LOG)[rows, cols]
        finite = np.isfinite(higham)
        assert finite.any() and not finite.all()
        assert np.array_equal(got[finite], higham[finite])
        with mpmath.workdps(50):
            for x, y, entry in zip(a[~finite], b[~finite], got[~finite]):
                x, y = mpmath.mpf(x), mpmath.mpf(y)
                want = (mpmath.log(x) - mpmath.log(y)) / (x - y)
                assert abs((entry - want) / want) <= 1e-14

    def test_adjoint_identity(self):
        # <C, d/dt f(S + tD)> == <backward(C), D> for symmetric directions D.
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 4))
        s = a @ a.T / 4 + np.eye(4)
        c = rng.standard_normal((4, 4))
        c = 0.5 * (c + c.T)
        d = rng.standard_normal((4, 4))
        d = 0.5 * (d + d.T)
        h = 1e-5
        fwd = lambda m: _apply(m, linalg.LOG)
        directional = np.sum(c * (fwd(s + h * d) - fwd(s - h * d))) / (2 * h)
        adjoint = np.sum(linalg.spectral_fn_backward_cached(linalg.LOG, c, linalg.sym_eig_batch(s)) * d)
        assert abs(directional - adjoint) / max(abs(adjoint), 1e-8) < 1e-6


class TestLoewnerMatrix:
    @staticmethod
    def _frame_gram_values():
        cfg = NetworkConfig()
        frames = data.synth_generate(1, 1, seed=2, length=cfg.n_F)[0].frames
        _, _, tape = network.forward(frames, optim.init_params(cfg, seed=2), cfg)
        return cfg, tape.frame_eig.values

    @staticmethod
    def _tied_spectrum():
        # 56 eigenvalues over five decades: exact ties, ties inside the
        # guard, and pairs at relative gaps 1e-9 ... 1e-5 above it.
        base = np.geomspace(1e-2, 1e3, 28)
        gaps = np.resize([0.0, 1e-12, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5], 28)
        return np.sort(np.concatenate([base, base * (1.0 + gaps)]))

    def test_symmetric_with_derivative_diagonal(self):
        cfg, values = self._frame_gram_values()
        for fn in (linalg.gram_log_fn(cfg.eps), linalg.LOG, oracles.reeig_log_fn(cfg.eps), oracles.EXP):
            k = linalg.loewner_matrix(values, fn)
            assert np.array_equal(k, np.swapaxes(k, -1, -2))
            assert np.array_equal(np.diagonal(k, axis1=-2, axis2=-1), fn.df(values))

    def test_matches_all_pairs_reference(self):
        cfg, values = self._frame_gram_values()
        for fn in (linalg.gram_log_fn(cfg.eps), oracles.reeig_log_fn(cfg.eps)):
            got = linalg.loewner_matrix(values[0], fn)
            want = np.stack([oracles.loewner_reference(v, fn) for v in values[0]])
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        values = self._tied_spectrum()
        assert values.shape == (56,) and np.any(np.diff(values) == 0.0)
        got = linalg.loewner_matrix(values, linalg.LOG)
        want = oracles.loewner_reference(values, linalg.LOG)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


class TestQrOrthonormalize:
    def test_identity_preserved(self):
        assert np.array_equal(linalg.qr_orthonormalize(np.eye(3)), np.eye(3))

    def test_positive_scaling_removed(self):
        out = linalg.qr_orthonormalize(np.diag([2.0, 3.0]))
        assert np.allclose(out, np.eye(2), atol=1e-14)

    def test_random_wide_matrix(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 7))
        out = linalg.qr_orthonormalize(m)
        assert np.abs(out @ out.T - np.eye(4)).max() < 1e-12
        # Same row space: compare orthogonal projectors.
        p_in = m.T @ np.linalg.solve(m @ m.T, m)
        p_out = out.T @ out
        assert np.abs(p_in - p_out).max() < 1e-10

    def test_rank_deficient_rejected(self):
        m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(RankError):
            linalg.qr_orthonormalize(m)

    def test_stack_is_orthonormalized_matrix_by_matrix(self):
        # Bit for bit the per-matrix map, with each matrix's own rank
        # tolerance: a tiny matrix beside a huge one is not rank-deficient.
        rng = np.random.default_rng(6)
        m = rng.standard_normal((3, 2, 4, 7))
        m[0, 0] *= 1e20
        m[0, 1] *= 1e-3
        out = linalg.qr_orthonormalize(m)
        assert out.shape == m.shape and out.flags.c_contiguous
        for i in np.ndindex(m.shape[:2]):
            assert np.array_equal(out[i], linalg.qr_orthonormalize(m[i]))

    def test_one_rank_deficient_matrix_rejects_the_stack(self):
        m = np.random.default_rng(7).standard_normal((3, 2, 3))
        m[1, 1] = 2.0 * m[1, 0]
        with pytest.raises(RankError, match="rank-deficient") as err:
            linalg.qr_orthonormalize(m)
        assert err.value.where == {"matrix": 2}

    def test_non_finite_input_rejected(self):
        with pytest.raises(RankError) as err:
            linalg.qr_orthonormalize(np.full((2, 3, 4), np.nan))
        assert err.value.where == {"matrix": 1}
        # The first column is e1, so the first Householder reflector is the
        # identity: Q comes out finite and the NaN stays above R's diagonal.
        m = np.stack([np.eye(2, 3), [[1.0, 0.0, 0.0], [np.nan, 1.0, 2.0]]])
        with pytest.raises(RankError, match="not finite") as err:
            linalg.qr_orthonormalize(m)
        assert err.value.where == {"matrix": 2}
        # On a stack of two axes the field is the 1-based index on each.
        with pytest.raises(RankError, match="not finite") as err:
            linalg.qr_orthonormalize(np.stack([np.eye(2, 3), np.full((2, 3), np.inf)])[None])
        assert err.value.where == {"matrix": (1, 2)}
        assert str(err.value) == "input is not finite [matrix (1, 2)]"

    def test_overflowing_factors_rejected(self):
        m = np.stack([np.eye(3, 4), np.full((3, 4), 1e308)])
        with pytest.raises(RankError, match="factors are not finite") as err:
            linalg.qr_orthonormalize(m)
        assert err.value.where == {"matrix": 2}

    def test_lapack_failure_is_typed_and_names_the_matrix(self, monkeypatch):
        qr = np.linalg.qr

        def failing_qr(a):
            if np.any(a[..., 0, 0] == 7.0):
                raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")
            return qr(a)

        monkeypatch.setattr(np.linalg, "qr", failing_qr)
        m = np.random.default_rng(8).standard_normal((4, 2, 3))
        m[2, 0, 0] = 7.0
        with pytest.raises(RankError, match="QR factorization failed") as err:
            linalg.qr_orthonormalize(m)
        assert err.value.where == {"matrix": 3}
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
