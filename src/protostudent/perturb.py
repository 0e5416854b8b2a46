"""Region-perturbation evaluation of heatmap quality.

The image is partitioned into region x region tiles. Tiles are removed
(replaced by the per-channel dataset mean) either in decreasing order of
summed absolute relevance of the top-1 prototype pair, or in random
order as a baseline, while the predicted-class logit is tracked. Good
heatmaps make the relevance ordering destroy the logit faster.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heads import ConfigurationError, StudentModel
from .lrp import LrpParams, explain


@dataclass
class PerturbationCurve:
    mean_logits: list          # step 0 = unperturbed

    def aopc(self) -> float:
        """Mean drop of the predicted-class logit over all steps."""
        base = self.mean_logits[0]
        drops = [base - v for v in self.mean_logits[1:]]
        return float(np.mean(drops)) if drops else 0.0


def tile_order(heat: np.ndarray, region: int) -> np.ndarray:
    """Tile indices by decreasing summed |relevance|; ties keep the lower
    flat tile index first."""
    h, w = heat.shape
    th, tw = h // region, w // region
    sums = np.abs(heat).reshape(th, region, tw, region).sum(axis=(1, 3)).reshape(-1)
    return np.argsort(-sums, kind="stable")


def _apply_tile(img: np.ndarray, tile: int, region: int, tw: int, fill: np.ndarray):
    ty, tx = divmod(int(tile), tw)
    img[:, ty * region:(ty + 1) * region, tx * region:(tx + 1) * region] = fill[:, None, None]


def perturb_eval(student: StudentModel, images: np.ndarray, region: int = 4,
                 steps: int = 15, policy: str = "relevance",
                 params: LrpParams | None = None, fill: np.ndarray | None = None,
                 seed: int = 0) -> PerturbationCurve:
    """Perturbation curve over an evaluation set.

    fill defaults to the per-channel mean of the given images.
    """
    n, c, h, w = images.shape
    if h % region or w % region:
        raise ConfigurationError(f"region {region} does not divide image size {h}x{w}")
    n_tiles = (h // region) * (w // region)
    if steps > n_tiles:
        raise ConfigurationError(f"steps {steps} exceeds tile count {n_tiles}")
    if policy not in ("relevance", "random"):
        raise ConfigurationError(f"unknown policy {policy!r}")
    fill = images.mean(axis=(0, 2, 3)) if fill is None else fill

    logits0 = student.predict_logits(images)
    preds = logits0.argmax(axis=1)

    if policy == "relevance":
        orders = [tile_order(heat, region) for heat in top1_heatmaps(student, images, params)]
    else:
        orders = [np.random.default_rng([seed, i]).permutation(n_tiles) for i in range(n)]

    work = images.copy()
    tw = w // region
    curve = [float(logits0[np.arange(n), preds].mean())]
    for step in range(steps):
        for i in range(n):
            _apply_tile(work[i], orders[i][step], region, tw, fill)
        logits = student.predict_logits(work)
        curve.append(float(logits[np.arange(n), preds].mean()))
    return PerturbationCurve(mean_logits=curve)


def top1_heatmaps(student: StudentModel, images: np.ndarray,
                  params: LrpParams | None = None) -> list:
    """Input-side heatmap against the highest-similarity prototype for
    each sample."""
    return [pairs[0].heat_input for pairs in explain(student, images, 1, params)]
