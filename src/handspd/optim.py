"""Parameter updates and the training loop.

One optimizer step (``apply_gradients``) is one batched Riemannian SGD step
on the whole (n_L, d_spat, temp_dim) stack of spatial-aggregation weights,
each on its Stiefel manifold of row-orthonormal matrices: map the
Euclidean gradients into the tangent spaces, step, and retract the stack
with one QR row-orthonormalization.  The conv and FC weights and the FC bias
take plain SGD steps.  Nothing here checks shapes or the learning rate:
``TrainConfig`` rejects lr <= 0 and ``network.backward`` builds gradients in
the parameters' shapes.  ``train`` returns the parameters and per-epoch
metrics and writes no file; its caller saves them (``network.save_checkpoint``,
``write_metrics``).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from . import network
from .errors import InvalidInput, RankError
from .linalg import qr_orthonormalize, symmetrize
from .network import NetworkConfig, NetworkParams


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 30
    learning_rate: float = 0.01
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidInput("batch_size must be >= 1")
        if not 0 < self.learning_rate < np.inf:  # NaN fails too
            raise InvalidInput(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise InvalidInput("epochs must be >= 1")
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")


def stiefel_tangent(w: np.ndarray, euclid_grad: np.ndarray) -> np.ndarray:
    """Tangent direction G - W sym(W^T G) at each W (rows orthonormal) for
    its Euclidean gradient G, over stacks (..., p, n).  It is the orthogonal
    projection onto the tangent space only when W is square (p == n)."""
    return euclid_grad - w @ symmetrize(np.swapaxes(w, -1, -2) @ euclid_grad)


def stiefel_step(w: np.ndarray, euclid_grad: np.ndarray, lr: float) -> np.ndarray:
    """One projected-gradient step with QR retraction on each matrix of the
    stack (..., p, n); preserves orthonormal rows."""
    return qr_orthonormalize(w - lr * stiefel_tangent(w, euclid_grad))


def init_params(cfg: NetworkConfig, seed: int = 0) -> NetworkParams:
    """Seeded initialization: QR-orthonormalized Gaussian Stiefel matrices,
    uniform(+-1/sqrt(fan_in)) conv and FC weights, zero FC bias."""
    rng = np.random.default_rng(seed)
    spat = qr_orthonormalize(rng.standard_normal((cfg.n_L, cfg.d_spat, cfg.temp_dim)))
    conv = rng.uniform(-1.0, 1.0, size=(3, cfg.d1, 3)) / np.sqrt(3.0)
    bound = 1.0 / np.sqrt(cfg.feature_dim)
    fc_weight = rng.uniform(-bound, bound, size=(cfg.n_classes, cfg.feature_dim))
    return NetworkParams(conv, spat, fc_weight, np.zeros(cfg.n_classes))


def apply_gradients(params: NetworkParams, grads: NetworkParams, lr: float) -> NetworkParams:
    """One optimizer step over all parameter groups; returns new parameters."""
    return NetworkParams(
        params.conv - lr * grads.conv,
        stiefel_step(params.spat, grads.spat, lr),
        params.fc_weight - lr * grads.fc_weight,
        params.fc_bias - lr * grads.fc_bias,
    )


def train(dataset, net_cfg: NetworkConfig, train_cfg: TrainConfig, log=None):
    """SGD from ``init_params(net_cfg, train_cfg.seed)`` over the dataset;
    returns (params, per-epoch metrics) and writes no file.

    Metrics rows carry epoch, mean_loss, train_accuracy and wall_seconds
    (``write_metrics`` writes them as CSV).  A ``RankError`` of a Stiefel
    step gains its ``layer``, and the failing weight's ``finger`` and
    pyramid ``range`` where it names the weight.
    """
    if not dataset:
        raise InvalidInput("dataset must be non-empty")
    graph = net_cfg.graph()
    params = init_params(net_cfg, train_cfg.seed)
    rng = np.random.default_rng(train_cfg.seed)
    n = len(dataset)
    metrics = []
    for epoch in range(1, train_cfg.epochs + 1):
        start = time.perf_counter()
        order = rng.permutation(n)
        epoch_loss = 0.0
        correct = 0
        for lo in range(0, n, train_cfg.batch_size):
            batch = [dataset[i] for i in order[lo : lo + train_cfg.batch_size]]
            loss, grads, logits = network.loss_and_backward(
                batch, params, net_cfg, graph, with_logits=True
            )
            labels = np.array([s.label(net_cfg.n_classes) for s in batch])
            correct += int((logits.argmax(axis=1) + 1 == labels).sum())
            epoch_loss += loss * len(batch)
            try:
                params = apply_gradients(params, grads, train_cfg.learning_rate)
            except RankError as exc:
                exc.at(layer="stiefel_step(spat)")
                if "matrix" in exc.where:  # the spat weight's 1-based index: finger-major, then range
                    q = exc.where["matrix"] - 1
                    ranges = network.pyramid_split(net_cfg.n_F, net_cfg.n_T)
                    exc.at(finger=q // net_cfg.n_Q + 1, range=ranges[q % net_cfg.n_Q])
                raise
        row = {
            "epoch": epoch,
            "mean_loss": epoch_loss / n,
            "train_accuracy": correct / n,
            "wall_seconds": time.perf_counter() - start,
        }
        metrics.append(row)
        if log:
            log(f"epoch {epoch:3d}  loss {row['mean_loss']:.4f}  acc {row['train_accuracy']:.3f}")
    return params, metrics


def write_metrics(path, metrics):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["epoch", "mean_loss", "train_accuracy", "wall_seconds"]
        )
        writer.writeheader()
        for row in metrics:
            writer.writerow(row)
