"""Configurable CNN feature extractor and the teacher classifier.

The encoder is a stack of conv/ReLU blocks ending in a ReLU, so feature
maps are always nonnegative — downstream similarity scores rely on that.
Each block is one `tensor.conv2d(..., relu=True)` node holding only the
post-activation map. The teacher adds spatial average pooling and a
linear classifier on top and supplies soft labels for distillation;
`train_teacher` shares the student loop's batch order, loss and error.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses as L
from . import tensor as T
from .optim import SGD, TrainingError, batches
from .tensor import DimensionError, Tensor


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
    """Conv/ReLU stack mapping images [N,C0,H0,W0] to features [N,C,H,W]."""

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

    def _run(self, h: Tensor, records: list | None = None) -> Tensor:
        """The block loop of both forwards; appends each block's input and
        parameters to `records` when one is given."""
        for kern, bias, (_, k, stride) in zip(self.kernels, self.biases, self.config.blocks):
            if records is not None:
                records.append({"input": h.data, "kernel": kern.data, "bias": bias.data,
                                "stride": stride, "pad": k // 2})
            h = T.conv2d(h, kern, bias, stride=stride, pad=k // 2, relu=True)
        return h

    def forward(self, x: Tensor) -> Tensor:
        return self._run(x)

    def forward_recorded(self, images: np.ndarray) -> tuple:
        """Forward a batch [N,C0,H0,W0] collecting per-block inputs for
        relevance propagation. Returns (features [N,C,H,W], records), each
        record's "input" an [N,C_in,H_in,W_in] map. Each row equals what a
        batch of that one image gives. Each block runs the fused
        conv+bias+ReLU, clamped in place tile by tile, so a record's "input"
        is the previous block's post-activation map itself."""
        records = []
        with T.no_grad():
            feats = self._run(Tensor(images), records)
        return feats.data, records


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
        """Logits of a batch without a graph, the last product taken per row
        (`tensor.rows`): each row equals a one-image call."""
        with T.no_grad():
            feats = self.encoder.forward(Tensor(np.asarray(images, dtype=np.float64)))
            pooled = T.avgpool_spatial(feats).data
        return T.rows(pooled, self.w.data.T) + self.b.data

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
    opt = SGD([{"params": teacher.params, "lr": lr}])
    rng = np.random.default_rng([seed, 0x7E])
    for epoch in range(epochs):
        for it, batch in enumerate(batches(np.arange(len(images)), batch_size, None, rng)):
            loss = L.cross_entropy(labels[batch], teacher.forward(Tensor(images[batch])))
            if not np.isfinite(loss.data):
                raise TrainingError(f"teacher loss is non-finite at epoch {epoch} iteration {it}")
            opt.zero_grad()
            loss.backward()
            opt.step()
            del loss   # free the step's graph before the next forward
    teacher.train_accuracy = teacher.accuracy(images, labels)
    if val_data is not None:
        teacher.val_accuracy = teacher.accuracy(np.asarray(val_data[0], dtype=np.float64),
                                                np.asarray(val_data[1]))
    return teacher
