"""The toy network the command-line tests run, which keeps every run fast:
8-frame sequences, 2 conv channels, 2 pyramid levels, 4 synthetic classes."""

from handspd import network, optim
from handspd.network import NetworkConfig

TOY_FLAGS = ["--d1", "2", "--levels", "2", "--length", "8", "--classes", "4"]
# The config ``TOY_FLAGS`` builds.
TOY_CONFIG = NetworkConfig(d1=2, n_T=2, n_F=8, n_classes=4)


def toy_checkpoint(path):
    """Write a checkpoint of the ``TOY_FLAGS`` network, at
    ``optim.init_params``' default seed, to ``path``; returns ``path``."""
    network.save_checkpoint(path, optim.init_params(TOY_CONFIG), TOY_CONFIG)
    return path
