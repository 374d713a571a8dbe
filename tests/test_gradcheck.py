from pathlib import Path

import numpy as np
import pytest

from handspd import cli, gradcheck, linalg, network, skeleton, spd_ops
from handspd.errors import InvalidInput
from handspd.network import NetworkParams

# The backward pass each gradcheck layer certifies.
BACKWARDS = {
    "graph_conv": (skeleton, "graph_conv_backward"),
    "frame_log": (network, "_frame_log_backward"),
    "gauss_range": (network, "_gauss_backward_batched"),
    "half_vec": (spd_ops, "half_vec_adjoint"),
    "spd_spat_agg": (spd_ops, "spd_spat_agg_backward"),
    "final_log": (linalg, "spectral_fn_backward_cached"),
    "network": (network, "backward"),
}


def _scaled(value, factor=1.01):
    if isinstance(value, tuple):
        return tuple(_scaled(v, factor) for v in value)
    if isinstance(value, NetworkParams):
        return value.from_vector(factor * value.to_vector())
    return factor * value


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

    def test_no_other_test_takes_finite_differences(self):
        # Every backward pass is differenced once, through gradcheck.LAYERS.
        others = [p.name for p in Path(__file__).parent.glob("*.py") if p.name != Path(__file__).name
                  and any(name in p.read_text() for name in ("fd_grad", "rel_error"))]
        assert others == []


class TestHarness:
    def test_layer_subset(self):
        results = gradcheck.run(seed=0, n_instances=2, layers=["half_vec", "spd_spat_agg"])
        assert set(results) == {"half_vec", "spd_spat_agg"}
        assert all(err < gradcheck.THRESHOLD for err in results.values())

    def test_unknown_layer_rejected(self):
        with pytest.raises(InvalidInput, match="unknown layer 'not_a_layer'"):
            gradcheck.run(layers=["not_a_layer"])

    def test_nan_backward_fails(self, monkeypatch):
        # A NaN error is the worst of its layer's instances, not skipped.
        monkeypatch.setattr(spd_ops, "half_vec_adjoint", lambda cot, d: np.full((d, d), np.nan))
        results = gradcheck.run(seed=0, n_instances=2, layers=["half_vec"])
        assert np.isnan(results["half_vec"])
        assert "FAIL" in gradcheck.format_table(results)

    @pytest.mark.parametrize("layer", list(gradcheck.LAYERS))
    def test_backward_matches_finite_differences(self, layer):
        # The tier-1 bound, far below THRESHOLD: a layer's adjoint is exact,
        # so its check reads the finite differences' own error, about 1e-10;
        # the network check sums many of them through the whole chain.
        results = gradcheck.run(seed=0, n_instances=5, layers=[layer])
        assert results[layer] < (1e-6 if layer == "network" else 1e-8)

    @pytest.mark.parametrize("layer", list(gradcheck.LAYERS))
    def test_scaled_backward_fails(self, layer, monkeypatch, capsys):
        # Negative control: every check must read the analytic gradient of
        # the backward pass it certifies, so one that is 1% off must FAIL,
        # in the report and in the command's exit code.
        assert set(BACKWARDS) == set(gradcheck.LAYERS)
        module, name = BACKWARDS[layer]
        backward = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: _scaled(backward(*args, **kwargs)))
        results = gradcheck.run(seed=0, n_instances=1, layers=[layer])
        assert results[layer] >= gradcheck.THRESHOLD
        assert "FAIL" in gradcheck.format_table(results)
        assert cli.main(["gradcheck", "--instances", "1", "--layer", layer]) == cli.EXIT_NUMERICAL
        assert "FAIL" in capsys.readouterr().out

    def test_seeded_reproducibility(self):
        r1 = gradcheck.run(seed=3, n_instances=2, layers=["gauss_range"])
        r2 = gradcheck.run(seed=3, n_instances=2, layers=["gauss_range"])
        assert r1 == r2

    def test_format_table(self):
        text = gradcheck.format_table({"fc": 1e-9})
        assert "fc" in text
        assert "PASS" in text
