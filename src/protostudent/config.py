"""Run configuration: JSON file plus command-line overrides.

Defaults follow the published training recipe where one exists (loss
weights, relevance parameters, replacement fraction, schedule); dataset
and runtime knobs are artifact choices.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .heads import HEAD_KINDS


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


def _ints(v, size=None) -> bool:
    return type(v) is list and all(type(x) is int for x in v) and size in (None, len(v))


# what a field's value must be, by its annotated type (encoder_blocks by
# name); `type(v) is int` refuses a bool, and a float field takes an int
_TYPES = {"int": ("an integer", lambda v: type(v) is int),
          "float": ("a number", lambda v: type(v) in (int, float)),
          "str": ("a string", lambda v: type(v) is str),
          "list": ("a list of integers", _ints),
          "blocks": ("a list of [out_channels, kernel, stride] integer lists",
                     lambda v: type(v) is list and all(_ints(b, 3) for b in v))}


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/out"
    # data
    classes: int = 4
    n_per_class: int = 500
    n_test_per_class: int = 100
    image_size: int = 32
    dataset_family: str = "primary"
    # encoder / teacher
    encoder_blocks: list = field(default_factory=lambda: [[16, 3, 2], [32, 3, 2], [64, 3, 2]])
    teacher_epochs: int = 15
    teacher_lr: float = 0.05
    # student
    head: str = "II-B"
    protos_per_class: int = 10
    epochs: int = 20
    batch_size: int = 64
    lr_head: float = 1e-3
    lr_encoder: float = 1e-4
    lr_step_epochs: int = 10
    lr_gamma: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 0.1
    p_fraction: float = 0.3
    # relevance
    lrp_alpha: float = 1.7              # beta is alpha - 1
    lrp_epsilon: float = 1e-3
    topk: int = 3
    # outlier / perturbation / pruning
    kprime: list = field(default_factory=lambda: [1, 20])
    outlier_setup: str = "B"
    stroke_thickness: int = 5
    stroke_count: int = 3
    region: int = 4
    steps: int = 15
    prune_fraction: float = 0.3
    finetune_epochs: int = 3
    explain_samples: int = 2
    sweep: list = field(default_factory=lambda: [5, 10, 20])

    def validate(self):
        for f in fields(self):
            wanted, ok = _TYPES["blocks" if f.name == "encoder_blocks" else f.type]
            if not ok(getattr(self, f.name)):
                raise ConfigError(f.name, f"must be {wanted}")
        if self.head not in HEAD_KINDS:
            raise ConfigError("head", f"must be one of {', '.join(HEAD_KINDS)}")
        if self.classes < 2:
            raise ConfigError("classes", "need at least 2")
        if self.protos_per_class < 1:
            raise ConfigError("protos_per_class", "must be >= 1")
        if not 0.0 <= self.p_fraction < 1.0:
            raise ConfigError("p_fraction", "must be in [0, 1)")
        if not 1.0 <= self.lrp_alpha < float("inf"):
            raise ConfigError("lrp_alpha", "must be finite and >= 1 (beta is alpha - 1)")
        if self.dataset_family not in ("primary", "alt"):
            raise ConfigError("dataset_family", "must be primary or alt")
        if self.outlier_setup not in ("A", "B", "C"):
            raise ConfigError("outlier_setup", "must be A, B, or C")
        if not 0.0 < self.prune_fraction < 1.0:
            raise ConfigError("prune_fraction", "must be in (0, 1)")
        for name in ("lambda1", "lambda2", "lambda3"):
            if getattr(self, name) < 0:
                raise ConfigError(name, "must be nonnegative")
        for name in ("topk", "batch_size", "region", "n_per_class", "n_test_per_class",
                     "image_size", "stroke_count"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be >= 1")
        for name in ("seed", "explain_samples", "epochs", "teacher_epochs", "finetune_epochs",
                     "steps", "weight_decay", "lr_step_epochs", "lrp_epsilon"):
            if getattr(self, name) < 0:
                raise ConfigError(name, "must be >= 0")
        for name in ("teacher_lr", "lr_head", "lr_encoder", "lr_gamma"):
            if getattr(self, name) <= 0:
                raise ConfigError(name, "must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum", "must be in [0, 1)")
        for name, values in (("kprime", self.kprime), ("sweep", self.sweep),
                             ("encoder_blocks", [v for b in self.encoder_blocks for v in b])):
            if any(v < 1 for v in values):
                raise ConfigError(name, "entries must be >= 1")
        if self.image_size % self.region:
            raise ConfigError("region", "must divide image_size")
        return self

    @staticmethod
    def load(path=None, overrides: dict | None = None) -> "RunConfig":
        known = {f.name for f in fields(RunConfig)}
        data = {}
        if path is not None:
            with open(path) as fh:
                raw = json.load(fh)
            for key, value in raw.items():
                if key not in known:
                    raise ConfigError(key, "unknown field")
                data[key] = value
        for key, value in (overrides or {}).items():
            if value is None:
                continue
            if key not in known:
                raise ConfigError(key, "unknown field")
            data[key] = value
        return RunConfig(**data).validate()
