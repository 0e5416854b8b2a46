"""Procedural shape datasets and the synthetic outlier generators.

Classes pair a shape family member with a class-specific hue band, so
both the geometry and the color statistics carry label signal. Outlier
variants either paint random thick strokes over an image or push its
colors off-distribution in HSV space. Every generator is a pure function
of its inputs and seed; per-sample RNG streams are derived from
(seed, sample index).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PRIMARY_SHAPES = ("circle", "box", "stripes", "checker", "cross")
ALT_SHAPES = ("triangle", "ring", "diamond", "diag_stripes", "dots")

STROKE_THICKNESS = 5
STROKE_COUNT = 3
SAT_FLOOR = 0.6
VAL_FLOOR = 0.6
HUE_DELTA_RANGE = (0.25, 0.75)


class DatasetError(ValueError):
    pass


def rgb_to_hsv(img: np.ndarray) -> np.ndarray:
    """Vectorized RGB -> HSV on a [3,H,W] array, all channels in [0,1]."""
    r, g, b = img[0], img[1], img[2]
    maxc = np.max(img, axis=0)
    minc = np.min(img, axis=0)
    v = maxc
    delta = maxc - minc
    s = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)
    safe = np.where(delta > 0, delta, 1.0)
    h = np.zeros_like(maxc)
    rmax = (maxc == r) & (delta > 0)
    gmax = (maxc == g) & (delta > 0) & ~rmax
    bmax = (delta > 0) & ~rmax & ~gmax
    h = np.where(rmax, ((g - b) / safe) % 6.0, h)
    h = np.where(gmax, (b - r) / safe + 2.0, h)
    h = np.where(bmax, (r - g) / safe + 4.0, h)
    return np.stack([h / 6.0, s, v])


def hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    """Vectorized HSV -> RGB on a [3,H,W] array."""
    h, s, v = hsv[0] % 1.0, hsv[1], hsv[2]
    h6 = h * 6.0
    i = np.floor(h6).astype(np.int64) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b])


def _solid(hue, sat, val) -> np.ndarray:
    return hsv_to_rgb(np.array([[[hue]], [[sat]], [[val]]], dtype=np.float64))[:, 0, 0]


def _shape_mask(shape: str, h: int, w: int, rng: np.random.Generator) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    cy = h / 2 + rng.uniform(-0.12, 0.12) * h
    cx = w / 2 + rng.uniform(-0.12, 0.12) * w
    r = rng.uniform(0.24, 0.34) * min(h, w)
    if shape == "circle":
        return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    if shape == "box":
        return (np.abs(yy - cy) <= r) & (np.abs(xx - cx) <= r * rng.uniform(0.7, 1.0))
    if shape == "stripes":
        t = rng.integers(3, 6)
        phase = rng.integers(0, t)
        return ((yy.astype(np.int64) + phase) // t) % 2 == 0
    if shape == "checker":
        t = rng.integers(3, 6)
        return ((yy.astype(np.int64) // t) + (xx.astype(np.int64) // t)) % 2 == 0
    if shape == "cross":
        arm = max(2.0, r * 0.35)
        inside = (np.abs(yy - cy) <= r) & (np.abs(xx - cx) <= r)
        return inside & ((np.abs(yy - cy) <= arm) | (np.abs(xx - cx) <= arm))
    if shape == "triangle":
        return (yy >= cy - r) & (yy <= cy + r) & (np.abs(xx - cx) <= (yy - (cy - r)) / 2.0)
    if shape == "ring":
        d2 = (yy - cy) ** 2 + (xx - cx) ** 2
        return (d2 <= r * r) & (d2 >= (0.55 * r) ** 2)
    if shape == "diamond":
        return np.abs(yy - cy) + np.abs(xx - cx) <= r
    if shape == "diag_stripes":
        t = rng.integers(3, 6)
        phase = rng.integers(0, t)
        return (((yy + xx).astype(np.int64) + phase) // t) % 2 == 0
    if shape == "dots":
        t = rng.integers(5, 8)
        return ((yy.astype(np.int64) % t) <= 1) & ((xx.astype(np.int64) % t) <= 1)
    raise DatasetError(f"unknown shape {shape!r}")


def _render(shape: str, hue: float, h: int, w: int, rng: np.random.Generator) -> np.ndarray:
    bg = _solid(rng.uniform(0, 1), rng.uniform(0.0, 0.12), rng.uniform(0.25, 0.5))
    img = np.tile(bg[:, None, None], (1, h, w))
    for _ in range(rng.integers(0, 3)):
        dy, dx = rng.integers(0, h), rng.integers(0, w)
        rad = rng.integers(1, 3)
        yy, xx = np.mgrid[0:h, 0:w]
        spot = (yy - dy) ** 2 + (xx - dx) ** 2 <= rad * rad
        img[:, spot] = _solid(rng.uniform(0, 1), rng.uniform(0.0, 0.2), rng.uniform(0.3, 0.6))[:, None]
    mask = _shape_mask(shape, h, w, rng)
    color = _solid((hue + rng.uniform(-0.05, 0.05)) % 1.0,
                   rng.uniform(0.6, 0.95), rng.uniform(0.7, 1.0))
    img[:, mask] = color[:, None]
    img += rng.normal(0.0, 0.02, size=img.shape)
    return np.clip(img, 0.0, 1.0)


@dataclass
class SyntheticDataset:
    images: np.ndarray        # [N,3,H,W] in [0,1]
    labels: np.ndarray        # [N]


def gen_dataset(seed: int, n_per_class: int, classes: int, size=(32, 32),
                family: str = "primary") -> SyntheticDataset:
    """Balanced shape dataset; bit-reproducible from the seed."""
    if classes < 2:
        raise DatasetError("need at least 2 classes")
    if family not in ("primary", "alt"):
        raise DatasetError(f"unknown dataset family {family!r}")
    shapes = PRIMARY_SHAPES if family == "primary" else ALT_SHAPES
    if classes > len(shapes):
        raise DatasetError(f"at most {len(shapes)} classes per family")
    h, w = size
    images = np.zeros((classes * n_per_class, 3, h, w))
    labels = np.zeros(classes * n_per_class, dtype=np.int64)
    fam_tag = 0 if family == "primary" else 1
    for c in range(classes):
        for j in range(n_per_class):
            idx = c * n_per_class + j
            rng = np.random.default_rng([seed, fam_tag, idx])
            images[idx] = _render(shapes[c], (c + 0.5) / classes, h, w, rng)
            labels[idx] = c
    return SyntheticDataset(images=images, labels=labels)


def _segment_mask(h: int, w: int, p0, p1, thickness: float) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    dy, dx = p1[0] - p0[0], p1[1] - p0[1]
    len2 = dy * dy + dx * dx
    if len2 == 0:
        d2 = (yy - p0[0]) ** 2 + (xx - p0[1]) ** 2
    else:
        t = np.clip(((yy - p0[0]) * dy + (xx - p0[1]) * dx) / len2, 0.0, 1.0)
        d2 = (yy - (p0[0] + t * dy)) ** 2 + (xx - (p0[1] + t * dx)) ** 2
    return d2 <= (thickness / 2.0) ** 2


def gen_strokes(img: np.ndarray, thickness: int = STROKE_THICKNESS,
                count: int = STROKE_COUNT, seed: int = 0) -> np.ndarray:
    """Overlay random solid-color polyline strokes of the given pixel
    thickness; pixels outside the strokes are untouched."""
    if thickness < 1:
        raise DatasetError("stroke thickness must be >= 1")
    out = np.asarray(img, dtype=np.float64).copy()
    h, w = out.shape[1:]
    rng = np.random.default_rng([seed, 0x5B])
    for _ in range(count):
        color = _solid(rng.uniform(0, 1), rng.uniform(0.7, 1.0), rng.uniform(0.6, 1.0))
        points = [(rng.uniform(0, h - 1), rng.uniform(0, w - 1))]
        for _seg in range(2):
            step = rng.uniform(0.12, 0.26) * min(h, w)
            angle = rng.uniform(0, 2 * np.pi)
            points.append((float(np.clip(points[-1][0] + step * np.sin(angle), 0, h - 1)),
                           float(np.clip(points[-1][1] + step * np.cos(angle), 0, w - 1))))
        for p0, p1 in zip(points[:-1], points[1:]):
            out[:, _segment_mask(h, w, p0, p1, thickness)] = color[:, None]
    return out


def gen_altered_color(img: np.ndarray, seed: int = 0) -> np.ndarray:
    """Force saturation and value up to SAT_FLOOR and VAL_FLOOR and rotate
    the hue by a random offset drawn from HUE_DELTA_RANGE."""
    hsv = rgb_to_hsv(np.asarray(img, dtype=np.float64))
    rng = np.random.default_rng([seed, 0x5C])
    delta = rng.uniform(*HUE_DELTA_RANGE)
    hsv[1] = np.maximum(hsv[1], SAT_FLOOR)
    hsv[2] = np.maximum(hsv[2], VAL_FLOOR)
    hsv[0] = (hsv[0] + delta) % 1.0
    return np.clip(hsv_to_rgb(hsv), 0.0, 1.0)

