"""Minimal dense network with reverse-mode gradients, Adam, and persistence."""

from .network import NetworkConfig, NetworkSpec, Network
from .optim import AdamConfig, Adam, effective_lr
from .train import TrainConfig, TrainHistory, train
from .persist import ModelBundle, save_model, load_model

__all__ = [
    "NetworkConfig",
    "NetworkSpec",
    "Network",
    "AdamConfig",
    "Adam",
    "effective_lr",
    "TrainConfig",
    "TrainHistory",
    "train",
    "ModelBundle",
    "save_model",
    "load_model",
]
