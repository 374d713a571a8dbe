"""The network's outputs, pinned.

The oracle tests compare the batched path with ``tests/oracles.py``, so a
change to both would pass them; these literal values would not move with
it.  They were produced by the program when this file was added and are
checked at tolerances, not bitwise: rounding-level moves are accepted by the
gradient and oracle gates.  A change that moves a value past its tolerance
sets the new value here and says in CHANGES.md which value moved, by how
much and why.
"""

import numpy as np
import pytest

from handspd import data, network, optim
from handspd.network import NetworkConfig
from handspd.optim import TrainConfig

# Per seeded sequence: sum, 2-norm and the dot with a seeded direction.
FEATURES = [
    (208.86483176875726, 34.322233183876094, -81.30437864245792),
    (203.68108333523685, 34.28169086101799, -74.7695155710718),
    (205.70251639635072, 34.290158723758665, -76.61748567250655),
]
CALIBRATION_LOSS = 2.7366593737909923
# Per parameter group: the dot of the gradient with a seeded direction.
GRADIENT_DOTS = {
    "conv": 0.2023562522009429,
    "spat": -0.05501479872931814,
    "fc_weight": 40.75250335507194,
    "fc_bias": -0.08878889657636098,
}
TOY_EPOCH_LOSSES = [2.4173907262476626, 1.6065245798460799]


@pytest.mark.parametrize("size", ["default", "toy"])
def test_calibration_loss(workloads, size):
    got = workloads.reference_loss(workloads.SIZES[size])
    np.testing.assert_allclose(got, workloads.REFERENCE_LOSS[size], rtol=workloads.REFERENCE_RTOL)


def test_features_through_a_checkpoint(tmp_path):
    cfg = NetworkConfig()
    path = tmp_path / "checkpoint.npz"
    network.save_checkpoint(path, optim.init_params(cfg, seed=1), cfg)
    params, cfg = network.load_checkpoint(path)
    direction = np.random.default_rng(2).standard_normal(cfg.feature_dim)
    for seq, want in zip(data.synth_generate(1, 3, seed=5, length=cfg.n_F), FEATURES):
        feature = network.extract_feature(seq, params, cfg)
        got = (feature.sum(), np.linalg.norm(feature), feature @ direction)
        np.testing.assert_allclose(got, want, rtol=1e-10)


def test_loss_and_gradients_on_the_calibration_batch(workloads):
    size = workloads.SIZES["default"]
    cfg = size.cfg
    batch = workloads.gestures(size, 1, 0, cfg.n_F)[:workloads.REFERENCE_BATCH]
    loss, grads = network.loss_and_backward(batch, optim.init_params(cfg, 0), cfg)
    np.testing.assert_allclose(loss, CALIBRATION_LOSS, rtol=1e-9)
    rng = np.random.default_rng(3)
    for name, shape in cfg.param_shapes().items():
        got = np.vdot(getattr(grads, name), rng.standard_normal(shape))
        np.testing.assert_allclose(got, GRADIENT_DOTS[name], rtol=1e-9, err_msg=name)


def test_two_toy_epochs(workloads):
    size = workloads.SIZES["toy"]
    dataset = workloads.gestures(size, 4, 0, size.cfg.n_F)
    _, metrics = optim.train(dataset, size.cfg, TrainConfig(batch_size=4, epochs=2, seed=0))
    np.testing.assert_allclose([row["mean_loss"] for row in metrics], TOY_EPOCH_LOSSES, rtol=1e-9)
