"""Parameter updates and the training loop.

Stiefel-constrained weights (the spatial-aggregation matrices) take a
Riemannian SGD step: project the Euclidean gradient onto the tangent space
at W, step, then retract back onto the manifold by QR row-orthonormalization.
Everything else takes plain SGD steps.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import network
from .errors import InvalidInput
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
        if self.learning_rate <= 0:
            raise InvalidInput("learning_rate must be positive")
        if self.epochs < 1:
            raise InvalidInput("epochs must be >= 1")


def stiefel_tangent(w: np.ndarray, euclid_grad: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient onto the tangent space at W (rows orthonormal)."""
    return euclid_grad - w @ symmetrize(w.T @ euclid_grad)


def stiefel_step(w: np.ndarray, euclid_grad: np.ndarray, lr: float) -> np.ndarray:
    """One projected-gradient step with QR retraction; preserves orthonormal rows."""
    if lr <= 0:
        raise InvalidInput("learning rate must be positive")
    if w.shape != euclid_grad.shape:
        raise InvalidInput(f"gradient shape {euclid_grad.shape} != weight shape {w.shape}")
    return qr_orthonormalize(w - lr * stiefel_tangent(w, euclid_grad))


def euclid_step(param: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    if np.shape(param) != np.shape(grad):
        raise InvalidInput(f"gradient shape {np.shape(grad)} != parameter shape {np.shape(param)}")
    return param - lr * grad


def init_params(cfg: NetworkConfig, seed: int = 0) -> NetworkParams:
    """Seeded initialization: QR-orthonormalized Gaussian Stiefel matrices,
    uniform(+-1/sqrt(fan_in)) conv and FC weights, zero FC bias."""
    rng = np.random.default_rng(seed)
    spat = np.empty((cfg.n_L, cfg.d_spat, cfg.temp_dim))
    for i in range(cfg.n_L):
        spat[i] = qr_orthonormalize(rng.standard_normal((cfg.d_spat, cfg.temp_dim)))
    conv = rng.uniform(-1.0, 1.0, size=(3, cfg.d1, 3)) / np.sqrt(3.0)
    bound = 1.0 / np.sqrt(cfg.feature_dim)
    fc_weight = rng.uniform(-bound, bound, size=(cfg.n_classes, cfg.feature_dim))
    return NetworkParams(conv, spat, fc_weight, np.zeros(cfg.n_classes))


def apply_gradients(params: NetworkParams, grads: NetworkParams, lr: float) -> NetworkParams:
    """One optimizer step over all parameter groups (in place on a copy)."""
    new = params.copy()
    new.conv = euclid_step(params.conv, grads.conv, lr)
    for i in range(params.spat.shape[0]):
        new.spat[i] = stiefel_step(params.spat[i], grads.spat[i], lr)
    new.fc_weight = euclid_step(params.fc_weight, grads.fc_weight, lr)
    new.fc_bias = euclid_step(params.fc_bias, grads.fc_bias, lr)
    return new


def train(
    dataset,
    net_cfg: NetworkConfig,
    train_cfg: TrainConfig,
    params: NetworkParams | None = None,
    checkpoint_dir=None,
    metrics_path=None,
    checkpoint_epochs=(20,),
    check_stiefel: bool = False,
    log=None,
):
    """SGD over the dataset; returns (params, per-epoch metrics).

    Metrics rows carry epoch, mean_loss, train_accuracy and wall_seconds and
    are optionally mirrored to a CSV file.  Checkpoints are written for the
    epochs in ``checkpoint_epochs`` and at the end of training.
    """
    if not dataset:
        raise InvalidInput("dataset must be non-empty")
    graph = net_cfg.graph()
    if params is None:
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
            labels = np.array([network._label_of(s, net_cfg.n_classes) for s in batch])
            correct += int((logits.argmax(axis=1) + 1 == labels).sum())
            epoch_loss += loss * len(batch)
            params = apply_gradients(params, grads, train_cfg.learning_rate)
            if check_stiefel:
                params.validate_stiefel()
        row = {
            "epoch": epoch,
            "mean_loss": epoch_loss / n,
            "train_accuracy": correct / n,
            "wall_seconds": time.perf_counter() - start,
        }
        metrics.append(row)
        if log:
            log(f"epoch {epoch:3d}  loss {row['mean_loss']:.4f}  acc {row['train_accuracy']:.3f}")
        if checkpoint_dir is not None and epoch in checkpoint_epochs:
            network.save_checkpoint(
                Path(checkpoint_dir) / f"checkpoint_epoch{epoch:03d}.bin", params, net_cfg
            )
    if checkpoint_dir is not None:
        network.save_checkpoint(Path(checkpoint_dir) / "checkpoint_final.bin", params, net_cfg)
    if metrics_path is not None:
        write_metrics(metrics_path, metrics)
    return params, metrics


def write_metrics(path, metrics):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["epoch", "mean_loss", "train_accuracy", "wall_seconds"]
        )
        writer.writeheader()
        for row in metrics:
            writer.writerow(row)
