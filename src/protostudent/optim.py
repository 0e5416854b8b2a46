"""What both training loops share: the batch order, momentum SGD with weight
decay and step-decay learning rates, and TrainingError."""
from __future__ import annotations

import numpy as np

MAX_GRAD_NORM = 10.0   # the global gradient norm is clipped to this before each step


class TrainingError(RuntimeError):
    """Training cannot start, or diverged at the epoch and iteration named."""


def batches(ids: np.ndarray, batch_size: int, iterations: int | None,
            rng: np.random.Generator):
    """One epoch of minibatches of `ids`. None for `iterations` means one
    pass: one permutation sliced in order, the last batch cut short.
    Otherwise `iterations` full batches of min(batch_size, len(ids)) rows:
    a permutation sliced in order, and a fresh one wherever the next batch
    would run past its end, so no batch is short or repeats a row."""
    order = rng.permutation(len(ids))
    if iterations is None:
        for lo in range(0, len(ids), batch_size):
            yield ids[order[lo:lo + batch_size]]
        return
    size, lo = min(batch_size, len(ids)), 0
    for _ in range(iterations):
        if lo + size > len(ids):
            order, lo = rng.permutation(len(ids)), 0
        yield ids[order[lo:lo + size]]
        lo += size


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
