"""What both training loops share: the batch order, momentum SGD with weight
decay and step-decay learning rates, and TrainingError."""
from __future__ import annotations

import numpy as np

MAX_GRAD_NORM = 10.0   # the global gradient norm is clipped to this before each step


class TrainingError(RuntimeError):
    """Training cannot start, or diverged at the epoch and iteration named."""


def batches(ids: np.ndarray, batch_size: int, iterations: int | None,
            rng: np.random.Generator):
    """One epoch of minibatches of `ids`: one permutation sliced in order,
    batch `it` from (it * batch_size) mod len(ids), cut at the end, so
    `iterations` batches wrap around; None means one pass."""
    order = rng.permutation(len(ids))
    if iterations is None:
        iterations = (len(ids) + batch_size - 1) // batch_size
    for it in range(iterations):
        lo = (it * batch_size) % len(ids)
        yield ids[order[lo:lo + batch_size]]


class SGD:
    """Momentum SGD over named parameter groups.

    Each group is {"params": [Tensor, ...], "lr": float}; momentum and
    weight decay are shared. The effective rate is lr * gamma^(epoch //
    step_epochs), updated via set_epoch.
    """

    def __init__(self, groups, momentum: float = 0.9, weight_decay: float = 1e-4,
                 step_epochs: int = 10, gamma: float = 0.1):
        self.groups = groups
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.step_epochs = step_epochs
        self.gamma = gamma
        self.scale = 1.0
        self._velocity = {}
        for g in groups:
            for p in g["params"]:
                self._velocity[id(p)] = np.zeros_like(p.data)

    def set_epoch(self, epoch: int):
        self.scale = self.gamma ** (epoch // self.step_epochs) if self.step_epochs > 0 else 1.0

    def zero_grad(self):
        for g in self.groups:
            for p in g["params"]:
                p.zero_grad()

    def step(self):
        sq = 0.0
        for g in self.groups:
            for p in g["params"]:
                sq += float(np.sum(p.grad * p.grad))
        norm = np.sqrt(sq)
        clip = MAX_GRAD_NORM / norm if norm > MAX_GRAD_NORM else 1.0
        for g in self.groups:
            lr = g["lr"] * self.scale
            for p in g["params"]:
                v = self._velocity[id(p)]
                v *= self.momentum
                v += clip * p.grad + self.weight_decay * p.data
                p.data -= lr * v
