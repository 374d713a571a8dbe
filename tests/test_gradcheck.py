import numpy as np
import pytest

from handspd import gradcheck


class TestFiniteDifferences:
    def test_quadratic_gradient(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        q = a + a.T
        x = rng.standard_normal(4)
        numeric = gradcheck.fd_grad(lambda v: 0.5 * float(v @ q @ v), x)
        assert np.abs(numeric - q @ x).max() < 1e-8

    def test_handles_non_contiguous_input(self):
        # Transposed views must still see every perturbation.
        base = np.arange(6.0).reshape(2, 3)
        view = base.T  # non-contiguous
        numeric = gradcheck.fd_grad(lambda m: float(m.sum()), view)
        assert np.abs(numeric - 1.0).max() < 1e-9

    def test_scalar_array(self):
        numeric = gradcheck.fd_grad(lambda v: v.item() ** 2, np.array(3.0))
        assert abs(numeric.item() - 6.0) < 1e-8

    def test_rel_error(self):
        a = np.array([1.0, 2.0])
        assert gradcheck.rel_error(a, a) == 0.0
        assert gradcheck.rel_error(a, np.array([1.0, 2.1])) == pytest.approx(
            0.1 / np.linalg.norm([1.0, 2.1])
        )


class TestHarness:
    def test_layer_subset(self):
        results = gradcheck.run(seed=0, n_instances=2, layers=["half_vec", "fc"])
        assert set(results) == {"half_vec", "fc"}
        assert all(err < gradcheck.THRESHOLD for err in results.values())

    def test_unknown_layer_rejected(self):
        with pytest.raises(KeyError):
            gradcheck.run(layers=["not_a_layer"])

    def test_corrupt_negative_control(self):
        # The harness must be able to report failures, not just successes.
        results = gradcheck.run(seed=0, n_instances=1, layers=["half_vec"], corrupt=True)
        assert results["half_vec"] >= 1.0
        assert "FAIL" in gradcheck.format_table(results)

    def test_seeded_reproducibility(self):
        r1 = gradcheck.run(seed=3, n_instances=2, layers=["gauss_range"])
        r2 = gradcheck.run(seed=3, n_instances=2, layers=["gauss_range"])
        assert r1 == r2

    def test_format_table(self):
        text = gradcheck.format_table({"fc": 1e-9})
        assert "fc" in text
        assert "PASS" in text
