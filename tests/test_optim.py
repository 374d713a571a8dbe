import csv

import numpy as np
import pytest

from handspd import network, optim
from handspd.data import GestureSequence
from handspd.errors import InvalidInput, NumericalError
from handspd.gradcheck import toy_config
from handspd.linalg import qr_orthonormalize
from handspd.optim import TrainConfig


def _random_stiefel(rng, p, n):
    return qr_orthonormalize(rng.standard_normal((p, n)))


class TestStiefelGeometry:
    def test_tangent_is_orthogonal_to_normal_space(self):
        # Normal space at W is {S W : S symmetric}; the projected gradient
        # must be perpendicular to all of it.
        rng = np.random.default_rng(0)
        w = _random_stiefel(rng, 3, 6)
        grad = rng.standard_normal((3, 6))
        tangent = optim.stiefel_tangent(w, grad)
        for _ in range(10):
            s = rng.standard_normal((3, 3))
            s = s + s.T
            assert abs(np.sum(tangent * (s @ w))) < 1e-10

    def test_step_size_continuity(self):
        # ||W' - W|| shrinks proportionally with the learning rate.
        rng = np.random.default_rng(1)
        w = _random_stiefel(rng, 4, 7)
        grad = rng.standard_normal((4, 7))
        moves = [
            np.linalg.norm(optim.stiefel_step(w, grad, lr) - w)
            for lr in (1e-2, 1e-4, 1e-6)
        ]
        assert moves[0] > moves[1] > moves[2]
        assert moves[2] < 1e-5
        scale = np.linalg.norm(optim.stiefel_tangent(w, grad))
        for lr, move in zip((1e-2, 1e-4, 1e-6), moves):
            assert move <= 2.0 * lr * scale

    def test_descent_on_procrustes_objective(self):
        # Minimize ||W - A||_F^2 over the Stiefel manifold; the projected
        # gradient flow must strictly decrease the objective.
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 3))
        w = _random_stiefel(rng, 2, 3)
        value = np.linalg.norm(w - a) ** 2
        for _ in range(500):
            w = optim.stiefel_step(w, 2.0 * (w - a), 0.1)
            new_value = np.linalg.norm(w - a) ** 2
            assert new_value < value + 1e-12
            value = new_value
        assert np.linalg.norm(optim.stiefel_tangent(w, 2.0 * (w - a))) < 1e-3

    def test_step_preserves_orthonormal_rows(self):
        rng = np.random.default_rng(2)
        w = _random_stiefel(rng, 4, 9)
        for _ in range(20):
            w = optim.stiefel_step(w, rng.standard_normal((4, 9)), 0.05)
            assert np.abs(w @ w.T - np.eye(4)).max() < 1e-12

    def test_zero_gradient_is_a_fixed_point(self):
        rng = np.random.default_rng(3)
        w = _random_stiefel(rng, 3, 5)
        stepped = optim.stiefel_step(w, np.zeros_like(w), 0.1)
        assert np.abs(stepped - w).max() < 1e-12

    def test_normal_direction_gradient_is_a_fixed_point(self):
        # Gradients entirely in the normal space produce no motion.
        rng = np.random.default_rng(4)
        w = _random_stiefel(rng, 3, 5)
        s = rng.standard_normal((3, 3))
        stepped = optim.stiefel_step(w, (s + s.T) @ w, 0.1)
        assert np.abs(stepped - w).max() < 1e-10

    def test_batched_step_is_the_per_matrix_step(self):
        # A stack steps matrix by matrix, bit for bit, and each matrix keeps
        # orthonormal rows.
        rng = np.random.default_rng(5)
        w = qr_orthonormalize(rng.standard_normal((6, 4, 7)))
        grad = rng.standard_normal((6, 4, 7))
        tangent = optim.stiefel_tangent(w, grad)
        stepped = optim.stiefel_step(w, grad, 0.05)
        assert stepped.shape == (6, 4, 7) and stepped.flags.c_contiguous
        for i in range(6):
            assert np.array_equal(tangent[i], optim.stiefel_tangent(w[i], grad[i]))
            assert np.array_equal(stepped[i], optim.stiefel_step(w[i], grad[i], 0.05))
        assert np.abs(stepped @ np.swapaxes(stepped, -1, -2) - np.eye(4)).max() < 1e-12


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(InvalidInput):
            TrainConfig(batch_size=0)
        with pytest.raises(InvalidInput):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(InvalidInput):
            TrainConfig(epochs=0)


class TestInitParams:
    def test_shapes_and_stiefel(self):
        cfg = toy_config()
        params = optim.init_params(cfg, seed=0)
        assert params.conv.shape == (3, cfg.d1, 3)
        assert params.spat.shape == (cfg.n_L, cfg.d_spat, cfg.temp_dim)
        assert params.fc_weight.shape == (cfg.n_classes, cfg.feature_dim)
        assert params.fc_bias.shape == (cfg.n_classes,)
        params.validate_stiefel()
        assert np.abs(params.fc_bias).max() == 0.0

    def test_seeded_determinism(self):
        cfg = toy_config()
        a = optim.init_params(cfg, seed=5)
        b = optim.init_params(cfg, seed=5)
        c = optim.init_params(cfg, seed=6)
        assert np.array_equal(a.to_vector(), b.to_vector())
        assert not np.array_equal(a.to_vector(), c.to_vector())


class TestApplyGradients:
    def test_preserves_stiefel_and_updates_all_groups(self):
        cfg = toy_config()
        rng = np.random.default_rng(0)
        params = optim.init_params(cfg, seed=0)
        grads = params.from_vector(rng.standard_normal(params.to_vector().size))
        before = params.to_vector()
        new = optim.apply_gradients(params, grads, 0.01)
        new.validate_stiefel()
        assert not np.array_equal(new.conv, params.conv)
        assert not np.array_equal(new.fc_weight, params.fc_weight)
        assert not np.array_equal(new.fc_bias, params.fc_bias)
        assert np.array_equal(new.spat, optim.stiefel_step(params.spat, grads.spat, 0.01))
        # Input params untouched.
        assert np.array_equal(params.to_vector(), before)

    def test_nan_spat_gradient_raises(self):
        params = optim.init_params(toy_config(), seed=0)
        grads = params.from_vector(np.zeros(params.to_vector().size))
        grads.spat[1, 0, 2] = np.nan
        with pytest.raises(NumericalError, match="not finite") as err:
            optim.apply_gradients(params, grads, 0.01)
        assert err.value.where == {"matrix": 2}

    def test_plain_sgd_on_euclidean_groups(self):
        cfg = toy_config()
        rng = np.random.default_rng(2)
        params = optim.init_params(cfg, seed=2)
        grads = params.from_vector(rng.standard_normal(params.to_vector().size))
        new = optim.apply_gradients(params, grads, 0.1)
        for name in ("conv", "fc_weight", "fc_bias"):
            assert np.array_equal(getattr(new, name), getattr(params, name) - 0.1 * getattr(grads, name))

    def test_zero_gradients_leave_params_unchanged(self):
        cfg = toy_config()
        params = optim.init_params(cfg, seed=1)
        zeros = params.from_vector(np.zeros(params.to_vector().size))
        new = optim.apply_gradients(params, zeros, 0.01)
        assert np.abs(new.to_vector() - params.to_vector()).max() < 1e-12


def _toy_dataset(cfg, n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        label = k % cfg.n_classes + 1
        base = np.zeros((cfg.n_F, cfg.n_joints, 3))
        base[..., 0] += label  # separable offset per class
        out.append(GestureSequence(base + 0.1 * rng.standard_normal(base.shape), label))
    return out


class TestTrainLoop:
    def test_loss_decreases_and_metrics_reported(self, tmp_path, stiefel_checked_steps):
        cfg = toy_config()
        dataset = _toy_dataset(cfg, 12)
        tcfg = TrainConfig(batch_size=4, learning_rate=0.05, epochs=5, seed=0)
        params, metrics = optim.train(dataset, cfg, tcfg)
        assert len(stiefel_checked_steps) == 5 * 3 and stiefel_checked_steps[-1] is params
        assert len(metrics) == 5
        assert metrics[-1]["mean_loss"] < metrics[0]["mean_loss"]
        assert {"epoch", "mean_loss", "train_accuracy", "wall_seconds"} <= set(metrics[0])
        optim.write_metrics(tmp_path / "metrics.csv", metrics)
        with open(tmp_path / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert float(rows[-1]["mean_loss"]) == pytest.approx(metrics[-1]["mean_loss"])

    def test_deterministic_given_seed(self):
        # Everything except wall-clock timing reruns identically.
        cfg = toy_config()
        dataset = _toy_dataset(cfg, 8)
        tcfg = TrainConfig(batch_size=4, learning_rate=0.02, epochs=3, seed=9)
        p1, m1 = optim.train(dataset, cfg, tcfg)
        p2, m2 = optim.train(dataset, cfg, tcfg)
        assert np.array_equal(p1.to_vector(), p2.to_vector())
        for r1, r2 in zip(m1, m2):
            assert r1["epoch"] == r2["epoch"]
            assert r1["mean_loss"] == r2["mean_loss"]
            assert r1["train_accuracy"] == r2["train_accuracy"]

    def test_bad_stiefel_step_names_its_finger_and_range(self, monkeypatch):
        # toy_config has 2 fingers x 3 ranges, [(1, 4), (1, 2), (3, 4)], so
        # spat weight 6 (1-based) is finger 2's range (3, 4).
        cfg = toy_config()
        loss_and_backward = network.loss_and_backward

        def nan_weight_6(*args, **kwargs):
            loss, grads, logits = loss_and_backward(*args, **kwargs)
            grads.spat[5, 1, 0] = np.nan
            return loss, grads, logits

        monkeypatch.setattr(network, "loss_and_backward", nan_weight_6)
        with pytest.raises(NumericalError, match="not finite") as err:
            optim.train(_toy_dataset(cfg, 4), cfg, TrainConfig(batch_size=4, epochs=1))
        assert err.value.where == {"layer": "stiefel_step(spat)", "finger": 2, "range": (3, 4), "matrix": 6}

    def test_unlocated_stiefel_failure_names_its_layer(self, monkeypatch):
        # A LAPACK failure names no matrix, so the error holds the layer alone.
        def failing_step(*args):
            raise NumericalError("QR factorization failed: stand-in")

        monkeypatch.setattr(optim, "stiefel_step", failing_step)
        cfg = toy_config()
        with pytest.raises(NumericalError, match="QR factorization failed") as err:
            optim.train(_toy_dataset(cfg, 4), cfg, TrainConfig(batch_size=4, epochs=1))
        assert err.value.where == {"layer": "stiefel_step(spat)"}

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInput):
            optim.train([], toy_config(), TrainConfig(epochs=1))
