"""Dense float64 tensors with reverse-mode automatic differentiation.

Every primitive used by the encoder, the similarity heads, and the losses
lives here: elementwise arithmetic, reductions, matmul/einsum, conv2d,
softmax variants, channel normalization, and a finite-difference gradient
checker. Data is stored row-major at 64-bit precision; gradients accumulate
into same-shape buffers in a deterministic topological sweep.
"""
from __future__ import annotations

import logging

import numpy as np

logger = logging.getLogger(__name__)

EPS_NORM = 1e-12


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class EvaluationError(RuntimeError):
    """A numeric evaluation produced a non-finite value."""


_grad_enabled = True


class no_grad:
    """Context manager disabling graph construction (inference paths)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """n-dimensional real array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self, seed=None):
        """Reverse sweep from this node; seed defaults to ones."""
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data) if seed is None else np.asarray(seed, dtype=np.float64)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, grad={'yes' if self.requires_grad else 'no'})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        # copy: g may be (a view of) another node's grad buffer
        t.grad = np.array(np.broadcast_to(g, t.data.shape), dtype=np.float64)
    else:
        t.grad += g


def _node(data, parents, backward_fn) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        out = Tensor(data, requires_grad=True)
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
        return out
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the parent's shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def assert_finite(t: Tensor, what: str = "tensor"):
    if not np.all(np.isfinite(t.data)):
        raise EvaluationError(f"non-finite values in {what}")
    return t


# -- elementwise ---------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def bw(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return _node(out, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data

    def bw(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape))

    return _node(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data * b.data

    def bw(g):
        _accum(a, _unbroadcast(g * b.data, a.shape))
        _accum(b, _unbroadcast(g * a.data, b.shape))

    return _node(out, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data / b.data

    def bw(g):
        _accum(a, _unbroadcast(g / b.data, a.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _node(out, (a, b), bw)


def relu(t) -> Tensor:
    t = _as_tensor(t)
    out = np.maximum(t.data, 0.0)

    def bw(g):
        _accum(t, g * (t.data > 0.0))

    return _node(out, (t,), bw)


def square(t) -> Tensor:
    t = _as_tensor(t)
    out = t.data * t.data

    def bw(g):
        _accum(t, 2.0 * g * t.data)

    return _node(out, (t,), bw)


def exp(t) -> Tensor:
    t = _as_tensor(t)
    out = np.exp(t.data)

    def bw(g):
        _accum(t, g * out)

    return _node(out, (t,), bw)


def log(t) -> Tensor:
    t = _as_tensor(t)
    out = np.log(t.data)

    def bw(g):
        _accum(t, g / t.data)

    return _node(out, (t,), bw)


def sqrt(t) -> Tensor:
    t = _as_tensor(t)
    out = np.sqrt(t.data)

    def bw(g):
        _accum(t, 0.5 * g / out)

    return _node(out, (t,), bw)


# -- shape ops ------------------------------------------------------------

def reshape(t, shape) -> Tensor:
    t = _as_tensor(t)
    out = t.data.reshape(shape)

    def bw(g):
        _accum(t, g.reshape(t.shape))

    return _node(out, (t,), bw)


def transpose(t, axes) -> Tensor:
    t = _as_tensor(t)
    out = t.data.transpose(axes)
    inv = np.argsort(axes)

    def bw(g):
        _accum(t, g.transpose(inv))

    return _node(out, (t,), bw)


def split_rows(t, sizes) -> list:
    """Split along axis 0 into consecutive chunks of the given sizes."""
    t = _as_tensor(t)
    if sum(sizes) != t.shape[0]:
        raise DimensionError(f"split sizes {sizes} do not cover axis 0 of {t.shape}")
    parts = []
    off = 0
    for s in sizes:
        sl = slice(off, off + s)
        off += s

        def bw(g, sl=sl):
            gz = np.zeros_like(t.data)
            gz[sl] = g
            _accum(t, gz)

        parts.append(_node(t.data[sl], (t,), bw))
    return parts


def gather(t, index_arrays) -> Tensor:
    """Fancy indexing with integer arrays; backward scatter-adds."""
    t = _as_tensor(t)
    out = t.data[index_arrays]
    flat_idx = np.ravel_multi_index(index_arrays, t.shape).ravel()

    def bw(g):
        _accum(t, np.bincount(flat_idx, weights=g.ravel(),
                              minlength=t.data.size).reshape(t.shape))

    return _node(out, (t,), bw)


def take_flat(t, flat_idx: np.ndarray) -> Tensor:
    """Gather by precomputed flat indices into t's raveled buffer; the
    output keeps flat_idx's shape. Backward scatter-adds."""
    t = _as_tensor(t)
    out = t.data.ravel()[flat_idx.ravel()].reshape(flat_idx.shape)

    def bw(g):
        _accum(t, np.bincount(flat_idx.ravel(), weights=g.ravel(),
                              minlength=t.data.size).reshape(t.shape))

    return _node(out, (t,), bw)


# -- reductions -----------------------------------------------------------

def tsum(t, axis=None, keepdims=False) -> Tensor:
    t = _as_tensor(t)
    out = t.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            _accum(t, np.broadcast_to(g, t.shape).copy() if np.ndim(g) else np.full(t.shape, g))
            return
        gg = g if keepdims else np.expand_dims(g, axis)
        _accum(t, np.broadcast_to(gg, t.shape).copy())

    return _node(out, (t,), bw)


def tmean(t, axis=None, keepdims=False) -> Tensor:
    t = _as_tensor(t)
    n = t.data.size if axis is None else np.prod([t.shape[a] for a in np.atleast_1d(axis)])
    return mul(tsum(t, axis, keepdims), 1.0 / float(n))


def tmax(t, axis, keepdims=False) -> Tensor:
    """Max along one axis; ties resolve to the first index in row-major
    order and the gradient flows only to the selected entry."""
    t = _as_tensor(t)
    arg = t.data.argmax(axis=axis)
    out_kd = np.take_along_axis(t.data, np.expand_dims(arg, axis), axis=axis)
    out = out_kd if keepdims else np.squeeze(out_kd, axis=axis)

    def bw(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        gz = np.zeros_like(t.data)
        np.put_along_axis(gz, np.expand_dims(arg, axis), gg, axis=axis)
        _accum(t, gz)

    node = _node(out, (t,), bw)
    return node, arg


# -- linear algebra ---------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[-1] != b.shape[0 if b.ndim <= 2 else -2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def bw(g):
        if a.ndim == 1 and b.ndim == 1:
            _accum(a, g * b.data)
            _accum(b, g * a.data)
        elif b.ndim == 1:
            _accum(a, np.outer(g, b.data) if a.ndim == 2 else g[..., None] * b.data)
            _accum(b, a.data.T @ g if a.ndim == 2 else _unbroadcast(g[..., None] * a.data, b.shape))
        elif a.ndim == 1:
            _accum(a, g @ b.data.T)
            _accum(b, np.outer(a.data, g))
        else:
            _accum(a, g @ b.data.swapaxes(-1, -2))
            _accum(b, a.data.swapaxes(-1, -2) @ g)

    return _node(out, (a, b), bw)


def linear(x, w, b) -> Tensor:
    """Affine map w @ x + b for a vector x, or x @ w.T + b for a batch."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if w.shape[1] != x.shape[-1]:
        raise DimensionError(f"linear: weight columns {w.shape[1]} != input width {x.shape[-1]}")
    if x.ndim == 1:
        return add(matmul(w, x), b)
    return add(matmul(x, transpose(w, (1, 0))), b)


_EINSUM_PATHS: dict = {}


def _einsum_cached(spec, *arrays):
    key = (spec, tuple(a.shape for a in arrays))
    path = _EINSUM_PATHS.get(key)
    if path is None:
        path = np.einsum_path(spec, *arrays, optimize="optimal")[0]
        _EINSUM_PATHS[key] = path
    return np.einsum(spec, *arrays, optimize=path)


def einsum(spec: str, *tensors) -> Tensor:
    """Einstein summation with reverse-mode backward.

    Each operand's gradient is itself an einsum with that operand's index
    spec swapped against the output spec, so no operand may use an index
    absent from all other specs.
    """
    ts = [_as_tensor(t) for t in tensors]
    in_part, out_spec = spec.split("->")
    in_specs = in_part.split(",")
    datas = [t.data for t in ts]
    out = _einsum_cached(spec, *datas)

    def bw(g):
        for i, t in enumerate(ts):
            if not t.requires_grad:
                continue
            others = [d for j, d in enumerate(datas) if j != i]
            ospecs = [s for j, s in enumerate(in_specs) if j != i]
            gspec = ",".join([out_spec] + ospecs) + "->" + in_specs[i]
            _accum(t, _einsum_cached(gspec, g, *others))

    return _node(out, tuple(ts), bw)


# -- softmax family ----------------------------------------------------------

def softmax(t, axis=-1) -> Tensor:
    t = _as_tensor(t)
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        _accum(t, y * (g - (g * y).sum(axis=axis, keepdims=True)))

    return _node(y, (t,), bw)


def log_softmax(t, axis=-1) -> Tensor:
    t = _as_tensor(t)
    m = t.data.max(axis=axis, keepdims=True)
    shifted = t.data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    sm = np.exp(out)

    def bw(g):
        _accum(t, g - sm * g.sum(axis=axis, keepdims=True))

    return _node(out, (t,), bw)


# -- channel normalization -----------------------------------------------

def l2_normalize(t, axis, eps: float = EPS_NORM) -> Tensor:
    """Scale vectors along `axis` to unit L2 norm.

    Positions whose raw norm is <= eps produce a zero vector instead of
    NaN; such positions are reported once per call at debug level.
    """
    t = _as_tensor(t)
    norm = np.sqrt(np.sum(t.data * t.data, axis=axis, keepdims=True))
    dead = norm <= eps
    if dead.any():
        logger.debug("l2_normalize: %d zero-norm positions mapped to zero vectors", int(dead.sum()))
    safe = np.where(dead, 1.0, norm)
    y = np.where(dead, 0.0, t.data / safe)

    def bw(g):
        gy = (g - y * np.sum(g * y, axis=axis, keepdims=True)) / safe
        _accum(t, np.where(dead, 0.0, gy))

    return _node(y, (t,), bw)


def l2_normalize_channels(t, eps: float = EPS_NORM) -> Tensor:
    """Per-position channel normalization of a [C,H,W] or [N,C,H,W] map."""
    t = _as_tensor(t)
    axis = 0 if t.ndim == 3 else 1
    return l2_normalize(t, axis=axis, eps=eps)


def avgpool_spatial(t) -> Tensor:
    """Spatial average pooling: [C,H,W] -> [C] or [N,C,H,W] -> [N,C]."""
    t = _as_tensor(t)
    if t.ndim not in (3, 4):
        raise DimensionError(f"avgpool_spatial expects 3 or 4 dims, got {t.shape}")
    return tmean(t, axis=(t.ndim - 2, t.ndim - 1))


# -- convolution ----------------------------------------------------------

_COL_CACHE: dict = {}


def _im2col_plan(c, h, w, kh, kw, stride, pad):
    key = (c, h, w, kh, kw, stride, pad)
    plan = _COL_CACHE.get(key)
    if plan is None:
        hp, wp = h + 2 * pad, w + 2 * pad
        h2 = (hp - kh) // stride + 1
        w2 = (wp - kw) // stride + 1
        if h2 < 1 or w2 < 1:
            raise DimensionError(f"kernel {kh}x{kw} exceeds padded input {hp}x{wp}")
        ci, ki, kj = np.meshgrid(np.arange(c), np.arange(kh), np.arange(kw), indexing="ij")
        oi, oj = np.meshgrid(np.arange(h2), np.arange(w2), indexing="ij")
        rows = ki.reshape(-1, 1) + stride * oi.reshape(1, -1)
        cols = kj.reshape(-1, 1) + stride * oj.reshape(1, -1)
        chan = np.broadcast_to(ci.reshape(-1, 1), rows.shape)
        idx = (chan * hp + rows) * wp + cols  # [C*kh*kw, H2*W2] into padded sample
        plan = (idx.astype(np.int64), hp, wp, h2, w2)
        _COL_CACHE[key] = plan
    return plan


def _col2im_add(dst, cols, kh, kw, stride):
    """Adjoint of the im2col gather: add columns [t, C*kh*kw, H2*W2] into
    the padded maps dst [t, C, Hp, Wp], one strided slice-add per kernel
    tap."""
    t, c, hp, wp = dst.shape
    h2 = (hp - kh) // stride + 1
    w2 = (wp - kw) // stride + 1
    taps = cols.reshape(t, c, kh, kw, h2, w2)
    for i in range(kh):
        for j in range(kw):
            dst[:, :, i:i + stride * (h2 - 1) + 1:stride,
                j:j + stride * (w2 - 1) + 1:stride] += taps[:, :, i, j]


# Byte budget of one batch tile's im2col buffer [t, C*kh*kw, H2*W2], so a
# tile stays in a 2 MiB L2 cache next to its padded input and GEMM output.
# On the benchmark's train workload (2-vCPU Xeon, one BLAS thread) 512 KiB
# ran fastest; 256 KiB (more tiles) and 1 to 2 MiB (cache spills) were
# 3 to 7% slower.
_TILE_BYTES = 1 << 19


def conv2d(x, kernel, bias=None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D cross-correlation.

    x: [C,H,W] or [N,C,H,W]; kernel: [F,C,kh,kw]; bias: [F] or None.
    Output spatial extents follow floor((H + 2*pad - kh)/stride) + 1.

    The batch is processed in tiles whose im2col buffer fits _TILE_BYTES;
    the backward pass gathers each tile's columns again instead of keeping
    them, so no call holds a whole-batch column buffer.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if stride < 1:
        raise DimensionError("stride must be >= 1")
    squeeze = x.ndim == 3
    xd = x.data[None] if squeeze else x.data
    if xd.ndim != 4 or kernel.ndim != 4:
        raise DimensionError(f"conv2d expects [N,C,H,W] and [F,C,kh,kw], got {x.shape}, {kernel.shape}")
    n, c, h, w = xd.shape
    f, ck, kh, kw = kernel.shape
    if ck != c:
        raise DimensionError(f"conv2d channel mismatch: input {c}, kernel {ck}")
    idx, hp, wp, h2, w2 = _im2col_plan(c, h, w, kh, kw, stride, pad)
    m, l = idx.shape
    tile = max(1, min(n, _TILE_BYTES // (m * l * 8)))
    k2 = kernel.data.reshape(f, m)
    if bias is not None:
        bias = _as_tensor(bias)
    xp = np.zeros((tile, c, hp, wp))  # padded tile; the border stays zero
    cols = np.empty((tile, m, l))

    def tiles():
        """Yield (start, stop, columns [t, M, L]) for each batch tile."""
        for s in range(0, n, tile):
            e = min(n, s + tile)
            xp[:e - s, :, pad:pad + h, pad:pad + w] = xd[s:e]
            # every index is in range; mode="clip" lets take write into
            # `out` directly, where the default mode would buffer
            np.take(xp[:e - s].reshape(e - s, -1), idx, axis=1, out=cols[:e - s], mode="clip")
            yield s, e, cols[:e - s]

    out = np.empty((n, f, l))
    for s, e, ct in tiles():
        np.matmul(k2, ct, out=out[s:e])
        if bias is not None:
            out[s:e] += bias.data[:, None]
    out = out.reshape(n, f, h2, w2)
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def bw(g):
        g2 = (g[None] if squeeze else g).reshape(n, f, l)
        if kernel.requires_grad:
            dk = np.zeros((f, m))
            for s, e, ct in tiles():
                dk += np.matmul(g2[s:e], ct.transpose(0, 2, 1)).sum(axis=0)
            _accum(kernel, dk.reshape(kernel.shape))
        if bias is not None and bias.requires_grad:
            _accum(bias, g2.sum(axis=(0, 2)))
        if x.requires_grad:
            dxp = np.zeros((n, c, hp, wp))
            for s in range(0, n, tile):
                _col2im_add(dxp[s:s + tile], np.matmul(k2.T, g2[s:s + tile]), kh, kw, stride)
            dx = dxp[:, :, pad:hp - pad, pad:wp - pad] if pad else dxp
            _accum(x, dx[0] if squeeze else dx)

    return _node(out[0] if squeeze else out, parents, bw)


# -- gradient checking ------------------------------------------------------

def grad_check(fn, params, h: float = 1e-5) -> float:
    """Compare reverse-mode gradients of a scalar program against central
    differences; returns max over elements of
    |analytic - numeric| / max(1, |numeric|)."""
    for p in params:
        p.zero_grad()
    out = fn()
    if not np.isfinite(out.data).all():
        raise EvaluationError("grad_check: function value is non-finite")
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gf = ga.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            f_plus = float(fn().data)
            flat[i] = keep - h
            f_minus = float(fn().data)
            flat[i] = keep
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = abs(gf[i] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst
