"""Neural network learning SPD-matrix representations of skeletal hand
gestures, with Riemannian optimization and a linear-SVM classification stage.
"""

from . import classify, data, gradcheck, linalg, network, optim, skeleton, spd_ops
from .errors import EigenDecompositionError, HandSpdError, InvalidInput, RankError, SpectralDomainError
from .network import NetworkConfig, NetworkParams
from .optim import TrainConfig

__all__ = [
    "classify",
    "data",
    "gradcheck",
    "linalg",
    "network",
    "optim",
    "skeleton",
    "spd_ops",
    "NetworkConfig",
    "NetworkParams",
    "TrainConfig",
    "HandSpdError",
    "InvalidInput",
    "SpectralDomainError",
    "EigenDecompositionError",
    "RankError",
]

__version__ = "0.1.0"
