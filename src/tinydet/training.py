"""Deterministic training loop: momentum SGD with weight decay and step decay.

Gradients accumulate over a batch of per-image graphs, the optimizer applies
one update per batch to the model's weights, and a learnable adaptive loss
then steps its own k and delta (``DCLossParams.step``).  Everything
(shuffling, init, updates) is driven by the config seed, so a rerun
reproduces checkpoints and loss curves bitwise.  A non-finite loss, or a
non-finite weight at the end of an epoch, raises ``DivergenceError`` with the
weights of the last completed epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .balanced_loss import DCLossParams
from .detector import DetectorConfig, DetectorModel, assign_image
from .evaluation import EvalResult, evaluate_ap
from .tensor import Tensor, mul

__all__ = ["TrainConfig", "TrainResult", "DivergenceError", "SGDMomentum",
           "train", "evaluate_model"]


@dataclass
class TrainConfig:
    learning_rate: float = 0.08
    momentum: float = 0.9
    weight_decay: float = 6.25e-6
    epochs: int = 12
    decay_epochs: tuple[int, ...] = (8, 11)
    decay_factor: float = 0.1
    batch_size: int = 4
    reg_loss: str = "smooth_l1"  # smooth_l1 | dcloss
    dc_k: float = 10.0
    dc_delta: float = 0.15
    dc_learnable: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0 < self.decay_factor <= 1:
            raise ValueError(f"decay_factor must lie in (0, 1], got {self.decay_factor}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.reg_loss not in ("smooth_l1", "dcloss"):
            raise ValueError(f"unknown regression loss {self.reg_loss!r}")
        self.dcloss_params()  # range-checks dc_k and dc_delta

    def dcloss_params(self) -> DCLossParams:
        """The adaptive loss's k/delta: ``dc_k``, ``dc_delta``, ``dc_learnable``."""
        return DCLossParams(k=self.dc_k, delta=self.dc_delta, learnable=self.dc_learnable)


@dataclass
class TrainResult:
    model: DetectorModel
    loss_curve: list          # per-epoch dicts: epoch, cls, reg, total, lr
    first_batch_components: tuple  # (cls, reg) of the very first batch
    dc_params: DCLossParams | None


class DivergenceError(RuntimeError):
    """Raised when the loss turns non-finite; carries the last good snapshot."""

    def __init__(self, message: str, last_good_state: dict | None):
        super().__init__(message)
        self.last_good_state = last_good_state


class SGDMomentum:
    """v = m*v + g + wd*p; p -= lr*v."""

    def __init__(self, tensors, momentum: float, weight_decay: float):
        self.tensors = list(tensors)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(t.data) for t in self.tensors]

    def step(self, lr: float):
        for t, v in zip(self.tensors, self.velocity):
            if t.grad is None:
                continue
            v *= self.momentum
            v += t.grad + self.weight_decay * t.data
            t.data -= (lr * v).astype(t.data.dtype)


def _snapshot(model: DetectorModel) -> dict:
    return {name: t.data.copy() for name, t in model.store.items()}


def _epoch_lr(cfg: TrainConfig, epoch: int) -> float:
    lr = cfg.learning_rate
    for d in cfg.decay_epochs:
        if epoch > d:
            lr *= cfg.decay_factor
    return lr


def train(scenes, det_cfg: DetectorConfig, cfg: TrainConfig) -> TrainResult:
    """Train a detector on a list of scenes; deterministic for a fixed seed."""
    if not scenes:
        raise ValueError("training dataset is empty")
    model = DetectorModel(det_cfg, seed=cfg.seed)
    dc_params = None if cfg.reg_loss == "smooth_l1" else cfg.dcloss_params()
    opt = SGDMomentum(model.store.tensors(), cfg.momentum, cfg.weight_decay)
    assignments = [assign_image(s.gts, s.image.shape[1:], det_cfg) for s in scenes]
    order_rng = np.random.default_rng(cfg.seed)
    curve = []
    first_batch = None
    last_good = _snapshot(model)
    for epoch in range(1, cfg.epochs + 1):
        lr = _epoch_lr(cfg, epoch)
        order = order_rng.permutation(len(scenes))
        sums = np.zeros(3)
        count = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            model.store.zero_grad()
            batch_stats = np.zeros(3)
            for idx in batch:
                image = Tensor(scenes[idx].image)
                outputs = model.forward(image)
                total, cls_v, reg_v = model.loss(outputs, assignments[idx], dc_params)
                mul(total, 1.0 / len(batch)).backward()
                batch_stats += (cls_v, reg_v, float(total.data))
            batch_stats /= len(batch)
            if not np.isfinite(batch_stats).all():
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, batch starting {start}: "
                    f"cls={batch_stats[0]}, reg={batch_stats[1]}", last_good)
            if first_batch is None:
                first_batch = (float(batch_stats[0]), float(batch_stats[1]))
            opt.step(lr)
            if dc_params is not None:
                dc_params.step(lr, cfg.momentum)
            sums += batch_stats
            count += 1
        if not all(np.isfinite(t.data).all() for t in model.store.tensors()):
            raise DivergenceError(f"non-finite parameters after epoch {epoch}", last_good)
        last_good = _snapshot(model)
        curve.append({"epoch": epoch, "lr": lr,
                      "cls": float(sums[0] / count),
                      "reg": float(sums[1] / count),
                      "total": float(sums[2] / count)})
    return TrainResult(model=model, loss_curve=curve,
                       first_batch_components=first_batch, dc_params=dc_params)


def evaluate_model(model: DetectorModel, scenes) -> EvalResult:
    dets = [model.predict(Tensor(s.image)) for s in scenes]
    gts = [s.gts for s in scenes]
    return evaluate_ap(dets, gts, num_classes=model.cfg.num_classes)
