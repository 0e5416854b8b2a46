"""Procedural shape datasets and the synthetic outlier generators.

Classes pair a shape family member with a class-specific hue band, so
both the geometry and the color statistics carry label signal. Outlier
variants either paint random thick strokes over an image or push its
colors off-distribution in HSV space. Every generator is a pure function
of its inputs and seed; per-sample RNG streams are derived from
(seed, sample index).

Generator output is byte-stable across versions, and
`tests/test_datasets.py::TestPinnedOutput` pins it by SHA-256 digest.
Each sample's stream, and the order in which the sample draws from it,
are part of that contract: a rewrite may change how pixels are painted,
never what is drawn or in which order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PRIMARY_SHAPES = ("circle", "box", "stripes", "checker", "cross")
ALT_SHAPES = ("triangle", "ring", "diamond", "diag_stripes", "dots")

STROKE_THICKNESS = 5
STROKE_COUNT = 3
SAT_FLOOR = 0.6
VAL_FLOOR = 0.6
HUE_DELTA_RANGE = (0.25, 0.75)
# samples that gen_dataset paints per array pass; bounds its buffers
PAINT_CHUNK = 32

# level (v, q, p, t) that r, g and b take in each of the six hue sectors
_SECTORS = ((0, 3, 2), (1, 0, 2), (2, 0, 3), (2, 1, 0), (3, 2, 0), (0, 2, 1))
_SECTOR_CHANNELS = np.array(_SECTORS).T


class DatasetError(ValueError):
    pass


def rgb_to_hsv(img: np.ndarray) -> np.ndarray:
    """Vectorized RGB -> HSV on a [3,H,W] array, all channels in [0,1].
    The hue comes from the first channel holding the maximum (r, then g,
    then b), and is 0 where all three are equal."""
    r, g, b = img[0], img[1], img[2]
    hsv = np.zeros(img.shape, dtype=np.result_type(img, 1.0))
    maxc = np.max(img, axis=0, out=hsv[2])
    delta = maxc - np.min(img, axis=0)
    np.divide(delta, maxc, out=hsv[1], where=maxc > 0)
    live = delta > 0
    rmax, gmax = maxc == r, maxc == g
    # x is read only where delta > 0, so elsewhere delta + 1 stands in for it
    x = np.where(rmax, g - b, np.where(gmax, b - r, r - g)) / (delta + ~live)
    # x lies in [-1, 1], where r's `x % 6.0` is x + 6 below 0 and x + 0 from -0 up
    h = x + np.where(rmax, 6.0 * (x < 0), 4.0 - 2.0 * gmax).astype(x.dtype, copy=False)
    np.divide(h, 6.0, out=hsv[0], where=live)
    return hsv


def hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    """Vectorized HSV -> RGB on a [3,H,W] array."""
    hue, sat, val = hsv
    # `hue % 1.0` bit for bit: numpy's remainder adds 1 to a negative fmod,
    # which rounds the same exact value `hue - floor(hue)` rounds once
    h6 = (hue - np.floor(hue)) * 6.0
    sector = np.floor(h6)
    f = h6 - sector
    levels = np.empty((4,) + val.shape, dtype=np.result_type(hsv, 1.0))
    levels[0] = val
    np.multiply(val, 1.0 - sat * f, out=levels[1])
    np.multiply(val, 1.0 - sat, out=levels[2])
    np.multiply(val, 1.0 - sat * (1.0 - f), out=levels[3])
    n = val.size
    pick = (_SECTOR_CHANNELS * n).take(sector.astype(np.int64) % 6, axis=1)
    pick += np.arange(n).reshape(val.shape)
    return levels.reshape(-1).take(pick)


def _solid(hue: float, sat: float, val: float) -> tuple:
    """(r, g, b) of one HSV pixel: `hsv_to_rgb`'s operations, in the same
    order, in scalar arithmetic."""
    h6 = hue % 1.0 * 6.0
    sector = math.floor(h6)
    f = h6 - sector
    levels = (val, val * (1.0 - sat * f), val * (1.0 - sat), val * (1.0 - sat * (1.0 - f)))
    return tuple(levels[k] for k in _SECTORS[sector % 6])


def _shape_params(shape: str, h: int, w: int, rng: np.random.Generator) -> tuple:
    """The shape's center, radius and shape-specific parameters, drawn in
    a fixed order; scalar arithmetic stays scalar."""
    cy = h / 2 + rng.uniform(-0.12, 0.12) * h
    cx = w / 2 + rng.uniform(-0.12, 0.12) * w
    r = rng.uniform(0.24, 0.34) * min(h, w)
    if shape in ("circle", "triangle", "diamond"):
        return cy, cx, r
    if shape == "box":
        return cy, cx, r, r * rng.uniform(0.7, 1.0)
    if shape in ("stripes", "diag_stripes"):
        t = rng.integers(3, 6)
        return cy, cx, r, t, rng.integers(0, t)
    if shape == "checker":
        return cy, cx, r, rng.integers(3, 6)
    if shape == "cross":
        return cy, cx, r, max(2.0, r * 0.35)
    if shape == "ring":
        return cy, cx, r, (0.55 * r) ** 2
    if shape == "dots":
        return cy, cx, r, rng.integers(5, 8)
    raise DatasetError(f"unknown shape {shape!r}")


def _shape_masks(shape: str, p: list, iy: np.ndarray, ix: np.ndarray) -> np.ndarray:
    """Masks of a chunk of samples, [B,H,W] or [B,H,1]: `p` holds
    `_shape_params`' fields as [B,1,1] arrays, `iy` and `ix` the row and
    column indices as [H,1] and [1,W]."""
    yy, xx = iy.astype(np.float64), ix.astype(np.float64)
    cy, cx, r = p[:3]
    if shape == "circle":
        return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    if shape == "box":
        return (np.abs(yy - cy) <= r) & (np.abs(xx - cx) <= p[3])
    if shape == "stripes":
        return ((iy + p[4]) // p[3]) % 2 == 0
    if shape == "checker":
        return ((iy // p[3]) + (ix // p[3])) % 2 == 0
    if shape == "cross":
        ay, ax = np.abs(yy - cy), np.abs(xx - cx)
        return (ay <= r) & (ax <= r) & ((ay <= p[3]) | (ax <= p[3]))
    if shape == "triangle":
        return (yy >= cy - r) & (yy <= cy + r) & (np.abs(xx - cx) <= (yy - (cy - r)) / 2.0)
    if shape == "ring":
        d2 = (yy - cy) ** 2 + (xx - cx) ** 2
        return (d2 <= r * r) & (d2 >= p[3])
    if shape == "diamond":
        return np.abs(yy - cy) + np.abs(xx - cx) <= r
    if shape == "diag_stripes":
        return ((iy + ix + p[4]) // p[3]) % 2 == 0
    return ((iy % p[3]) <= 1) & ((ix % p[3]) <= 1)   # dots


def _draw(shape: str, hue: float, h: int, w: int, rng: np.random.Generator,
          noise: np.ndarray) -> tuple:
    """One sample's draws, in the order that fixes its bytes: background
    color, 0-2 spots, shape parameters, shape color, then the pixel noise,
    written into `noise`."""
    bg = _solid(rng.uniform(0, 1), rng.uniform(0.0, 0.12), rng.uniform(0.25, 0.5))
    spots = []
    for _ in range(rng.integers(0, 3)):
        dy, dx = rng.integers(0, h), rng.integers(0, w)
        rad = rng.integers(1, 3)
        spots.append((dy, dx, rad * rad,
                      _solid(rng.uniform(0, 1), rng.uniform(0.0, 0.2), rng.uniform(0.3, 0.6))))
    params = _shape_params(shape, h, w, rng)
    color = _solid((hue + rng.uniform(-0.05, 0.05)) % 1.0,
                   rng.uniform(0.6, 0.95), rng.uniform(0.7, 1.0))
    noise[...] = rng.normal(0.0, 0.02, size=noise.shape)
    return bg, spots, params, color


def _columns(rows) -> list:
    """Each field of a list of equal-length tuples as a [B,1,1] array."""
    return [np.array(col)[:, None, None] for col in zip(*rows)]


def _paint(out: np.ndarray, shape: str, samples: list, noise: np.ndarray,
           iy: np.ndarray, ix: np.ndarray):
    """Paint a chunk of drawn samples into `out` ([B,3,H,W]) in array
    passes: background, each sample's spots in its own order, the shape,
    then the noise and the clip to [0,1]."""
    bgs, spots, params, colors = zip(*samples)
    out[...] = np.array(bgs)[:, :, None, None]
    for k in range(max(map(len, spots))):
        rows = [b for b, s in enumerate(spots) if len(s) > k]
        dy, dx, rad2 = _columns(spots[b][k][:3] for b in rows)
        part = out[rows]
        np.copyto(part, np.array([spots[b][k][3] for b in rows])[:, :, None, None],
                  where=((iy - dy) ** 2 + (ix - dx) ** 2 <= rad2)[:, None])
        out[rows] = part
    np.copyto(out, np.array(colors)[:, :, None, None],
              where=_shape_masks(shape, _columns(params), iy, ix)[:, None])
    out += noise
    np.clip(out, 0.0, 1.0, out=out)


def _check_seed(seed: int):
    if seed < 0:
        raise DatasetError(f"seed must be >= 0, got {seed}")


def _check_size(h: int, w: int):
    if h < 1 or w < 1:
        raise DatasetError(f"image size must be at least 1x1, got {h}x{w}")


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
    _check_seed(seed)
    if n_per_class < 0:
        raise DatasetError(f"n_per_class must be >= 0, got {n_per_class}")
    h, w = size
    _check_size(h, w)
    iy, ix = np.arange(h)[:, None], np.arange(w)[None, :]
    images = np.empty((classes * n_per_class, 3, h, w))
    noise = np.empty((min(PAINT_CHUNK, n_per_class), 3, h, w))
    fam_tag = 0 if family == "primary" else 1
    for c in range(classes):
        end = (c + 1) * n_per_class
        for start in range(c * n_per_class, end, PAINT_CHUNK):
            stop = min(start + PAINT_CHUNK, end)
            samples = [_draw(shapes[c], (c + 0.5) / classes, h, w,
                             np.random.default_rng([seed, fam_tag, idx]), noise[idx - start])
                       for idx in range(start, stop)]
            _paint(images[start:stop], shapes[c], samples, noise[:stop - start], iy, ix)
    return SyntheticDataset(images=images, labels=np.repeat(np.arange(classes), n_per_class))


def _segment_masks(h: int, w: int, segments: list, thickness: float) -> np.ndarray:
    """[S,H,W] masks of the pixels within thickness/2 of each segment
    ((y0, x0), (y1, x1))."""
    yy, xx = np.arange(h, dtype=np.float64)[:, None], np.arange(w, dtype=np.float64)[None, :]
    y0, x0, y1, x1 = _columns((p0[0], p0[1], p1[0], p1[1]) for p0, p1 in segments)
    dy, dx = y1 - y0, x1 - x0
    len2 = dy * dy + dx * dx
    # a zero-length segment keeps t = 0, which leaves its point as is
    t = np.divide((yy - y0) * dy + (xx - x0) * dx, len2,
                  out=np.zeros((len(segments), h, w)), where=len2 != 0)
    np.clip(t, 0.0, 1.0, out=t)
    d2 = (yy - (y0 + t * dy)) ** 2 + (xx - (x0 + t * dx)) ** 2
    return d2 <= (thickness / 2.0) ** 2


def gen_strokes(img: np.ndarray, thickness: int = STROKE_THICKNESS,
                count: int = STROKE_COUNT, seed: int = 0) -> np.ndarray:
    """Overlay random solid-color polyline strokes of the given pixel
    thickness; pixels outside the strokes are untouched."""
    if thickness < 1:
        raise DatasetError("stroke thickness must be >= 1")
    _check_seed(seed)
    out = np.array(img, dtype=np.float64)
    h, w = out.shape[1:]
    _check_size(h, w)
    rng = np.random.default_rng([seed, 0x5B])
    colors, segments = [], []
    for _ in range(count):
        colors.append(_solid(rng.uniform(0, 1), rng.uniform(0.7, 1.0), rng.uniform(0.6, 1.0)))
        points = [(rng.uniform(0, h - 1), rng.uniform(0, w - 1))]
        for _seg in range(2):
            step = rng.uniform(0.12, 0.26) * min(h, w)
            angle = rng.uniform(0, 2 * np.pi)
            # clipped to the image as np.clip would, without its per-call cost
            points.append((float(min(max(points[-1][0] + step * np.sin(angle), 0.0), h - 1.0)),
                           float(min(max(points[-1][1] + step * np.cos(angle), 0.0), w - 1.0))))
        segments += zip(points[:-1], points[1:])
    if count > 0:
        masks = _segment_masks(h, w, segments, thickness).reshape(count, 2, h, w)
        for color, (first, second) in zip(colors, masks):
            np.copyto(out, np.array(color)[:, None, None], where=first | second)
    return out


def gen_altered_color(img: np.ndarray, seed: int = 0) -> np.ndarray:
    """Force saturation and value up to SAT_FLOOR and VAL_FLOOR and rotate
    the hue by a random offset drawn from HUE_DELTA_RANGE."""
    _check_seed(seed)
    img = np.asarray(img, dtype=np.float64)
    _check_size(*img.shape[1:])
    hsv = rgb_to_hsv(img)
    delta = np.random.default_rng([seed, 0x5C]).uniform(*HUE_DELTA_RANGE)
    np.maximum(hsv[1], SAT_FLOOR, out=hsv[1])
    np.maximum(hsv[2], VAL_FLOOR, out=hsv[2])
    # hsv_to_rgb takes the hue mod 1; a second `% 1.0` of the non-negative
    # hue + delta would change no bit
    hsv[0] += delta
    rgb = hsv_to_rgb(hsv)
    return np.clip(rgb, 0.0, 1.0, out=rgb)
