"""Configurable CNN feature extractor and the teacher classifier.

The encoder is a stack of conv/ReLU blocks ending in a ReLU, so feature
maps are always nonnegative — downstream similarity scores rely on that.
Each block is one `tensor.conv2d(..., relu=True)` node holding only the
post-activation map. The teacher adds spatial average pooling and a
linear classifier on top and supplies soft labels for distillation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .optim import SGD
from .tensor import DimensionError, Tensor


class TrainingError(RuntimeError):
    """Training diverged; message carries the failing step."""


@dataclass(frozen=True)
class EncoderConfig:
    in_channels: int = 3
    blocks: tuple = ((16, 3, 2), (32, 3, 2), (64, 3, 2))  # (out_channels, kernel, stride)
    input_size: tuple = (32, 32)

    def __post_init__(self):
        c, h, w = self.feature_shape()
        if h < 2 or w < 2:
            raise DimensionError(f"feature map {h}x{w} too small; spatial heads need >= 2x2")
        if c < 2:
            raise DimensionError("feature channel count must be >= 2")

    def feature_shape(self) -> tuple:
        h, w = self.input_size
        c = self.in_channels
        for out_c, k, stride in self.blocks:
            pad = k // 2
            h = (h + 2 * pad - k) // stride + 1
            w = (w + 2 * pad - k) // stride + 1
            c = out_c
        return (c, h, w)

    def to_dict(self) -> dict:
        return {"in_channels": self.in_channels,
                "blocks": [list(b) for b in self.blocks],
                "input_size": list(self.input_size)}

    @staticmethod
    def from_dict(d: dict) -> "EncoderConfig":
        return EncoderConfig(in_channels=int(d["in_channels"]),
                             blocks=tuple(tuple(int(v) for v in b) for b in d["blocks"]),
                             input_size=tuple(int(v) for v in d["input_size"]))


class Encoder:
    """Conv/ReLU stack mapping [C0,H0,W0] images to [C,H,W] features."""

    def __init__(self, config: EncoderConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng([seed, 0xEC])
        self.kernels = []
        self.biases = []
        c_in = config.in_channels
        for out_c, k, stride in config.blocks:
            fan_in = c_in * k * k
            limit = 1.0 / np.sqrt(fan_in)
            kern = Tensor(rng.uniform(-limit, limit, size=(out_c, c_in, k, k)), requires_grad=True)
            bias = Tensor(np.zeros(out_c), requires_grad=True)
            self.kernels.append(kern)
            self.biases.append(bias)
            c_in = out_c

    @property
    def params(self) -> list:
        out = []
        for k, b in zip(self.kernels, self.biases):
            out.extend([k, b])
        return out

    def copy(self) -> "Encoder":
        dup = Encoder(self.config)
        for dst, src in zip(dup.params, self.params):
            dst.data = src.data.copy()
        return dup

    def forward(self, x: Tensor) -> Tensor:
        h = x
        for kern, bias, (_, k, stride) in zip(self.kernels, self.biases, self.config.blocks):
            h = T.conv2d(h, kern, bias, stride=stride, pad=k // 2, relu=True)
        return h

    def forward_recorded(self, image: np.ndarray) -> tuple:
        """Forward one image [C0,H0,W0] or a batch [N,C0,H0,W0] collecting
        per-block inputs for relevance propagation. Returns (features, records):
        features are [C,H,W] for one image and [N,C,H,W] for a batch, and
        each record's "input" has the matching [..., C_in, H_in, W_in] shape.
        Batch rows equal what one-image calls give. Each block runs the
        fused conv+bias+ReLU, clamped in place tile by tile, so a record's
        "input" is the previous block's post-activation map itself."""
        a = np.asarray(image, dtype=np.float64)
        records = []
        with T.no_grad():
            for kern, bias, (_, k, stride) in zip(self.kernels, self.biases, self.config.blocks):
                records.append({"input": a, "kernel": kern.data, "bias": bias.data,
                                "stride": stride, "pad": k // 2})
                a = T.conv2d(Tensor(a), kern, bias, stride=stride, pad=k // 2, relu=True).data
        return a, records


@dataclass
class TeacherModel:
    encoder: Encoder
    w: Tensor
    b: Tensor
    class_count: int
    train_accuracy: float = 0.0
    val_accuracy: float = 0.0

    @property
    def params(self) -> list:
        return self.encoder.params + [self.w, self.b]

    def forward(self, x: Tensor) -> Tensor:
        feats = self.encoder.forward(x)
        pooled = T.avgpool_spatial(feats)
        return T.linear(pooled, self.w, self.b)

    def predict_logits(self, images: np.ndarray) -> np.ndarray:
        with T.no_grad():
            return self.forward(Tensor(np.asarray(images, dtype=np.float64))).data

    def accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        preds = self.predict_logits(images).argmax(axis=1)
        return float((preds == np.asarray(labels)).mean())


def make_teacher(config: EncoderConfig, class_count: int, seed: int = 0) -> TeacherModel:
    enc = Encoder(config, seed=seed)
    c = config.feature_shape()[0]
    rng = np.random.default_rng([seed, 0x7C])
    limit = 1.0 / np.sqrt(c)
    w = Tensor(rng.uniform(-limit, limit, size=(class_count, c)), requires_grad=True)
    b = Tensor(np.zeros(class_count), requires_grad=True)
    return TeacherModel(encoder=enc, w=w, b=b, class_count=class_count)


def _iter_batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def train_teacher(data, epochs: int, lr: float = 0.05, seed: int = 0,
                  batch_size: int = 64, config: EncoderConfig | None = None,
                  val_data=None) -> TeacherModel:
    """Fit a teacher classifier on (images, labels) with momentum SGD.

    Deterministic for a fixed seed: init, shuffling, and accumulation
    order are all derived from it.
    """
    images = np.asarray(data[0], dtype=np.float64)
    labels = np.asarray(data[1], dtype=np.int64)
    classes = int(labels.max()) + 1 if labels.size else 0
    if classes < 2:
        raise TrainingError("teacher training needs at least 2 classes")
    if config is None:
        config = EncoderConfig(in_channels=images.shape[1],
                               input_size=images.shape[2:])
    teacher = make_teacher(config, classes, seed=seed)
    opt = SGD([{"params": teacher.params, "lr": lr}], step_epochs=max(epochs, 1))
    rng = np.random.default_rng([seed, 0x7E])
    step = 0
    for epoch in range(epochs):
        for batch in _iter_batches(len(images), batch_size, rng):
            xb = Tensor(images[batch])
            logits = teacher.forward(xb)
            logp = T.log_softmax(logits, axis=1)
            picked = T.take_flat(logp, np.ravel_multi_index(
                (np.arange(len(batch)), labels[batch]), logp.shape))
            loss = -T.tmean(picked)
            if not np.isfinite(loss.data):
                raise TrainingError(f"teacher loss became non-finite at step {step}")
            opt.zero_grad()
            loss.backward()
            opt.step()
            del logits, logp, picked, loss   # free the step's graph before the next forward
            step += 1
    teacher.train_accuracy = teacher.accuracy(images, labels)
    if val_data is not None:
        teacher.val_accuracy = teacher.accuracy(np.asarray(val_data[0], dtype=np.float64),
                                                np.asarray(val_data[1]))
    return teacher
