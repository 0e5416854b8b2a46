"""Dense float64 tensors with reverse-mode automatic differentiation.

Every primitive used by the encoder, the similarity heads, and the losses
lives here: add, mul, div, relu and square, reshape, transpose, row splits
and flat gathers, sum and mean, 2-D (or stacked) matmul, conv2d, softmax
variants, and channel normalization. `rows` is the graph-free product
the inference forwards take per row. Data is stored row-major at 64-bit
precision; gradients accumulate in a deterministic topological sweep. A
node keeps the first gradient it receives as is, often a view of its
child's gradient or the very same buffer, and adds later ones out of
place, so no code may write into a gradient buffer in place.

Two fused ops serve the spatial heads: `matched_cosine` gives the
matched position cosines, `attended_score` the Head III score z without
forming the attended vector over channels. Aligned position pairs take
one one-row product per (position, image); best-matched pairs are read
out of one GEMM of every input position against every prototype
position, at the same flat offsets in both ops.

`conv2d(..., relu=True)` is an encoder block as one node: no second
activation-sized array in the forward or the backward. It keeps the name
`conv2d`, which the benchmark's tracer wraps; `relu` stays for Head I.
`tmax` and `einsum` have no caller in the package: the tests' oracles
compose them, and they stay because the tracer wraps them by name.
"""
from __future__ import annotations

import logging

import numpy as np

logger = logging.getLogger(__name__)

EPS_NORM = 1e-12


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


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

    def __neg__(self):
        return mul(self, -1.0)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        # no copy: g may be (a view of) another node's gradient, which is
        # safe because gradients are never written in place
        t.grad = g
    else:
        t.grad = t.grad + g


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


# -- elementwise ---------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data

    def bw(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

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

def tsum(t, axis=None) -> Tensor:
    t = _as_tensor(t)
    out = t.data.sum(axis=axis)

    def bw(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        _accum(t, np.broadcast_to(gg, t.shape).copy())

    return _node(out, (t,), bw)


def tmean(t, axis=None) -> Tensor:
    t = _as_tensor(t)
    n = t.data.size if axis is None else np.prod([t.shape[a] for a in np.atleast_1d(axis)])
    return mul(tsum(t, axis), 1.0 / float(n))


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
    """Product of operands of 2 or more dims; a broadcast stack's gradient is summed."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs operands of at least 2 dims: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def bw(g):
        _accum(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
        _accum(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

    return _node(out, (a, b), bw)


def linear(x, w, b) -> Tensor:
    """Affine map x @ w.T + b for a batch of rows x [N, D]."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if w.shape[1] != x.shape[-1]:
        raise DimensionError(f"linear: weight columns {w.shape[1]} != input width {x.shape[-1]}")
    return add(matmul(x, transpose(w, (1, 0))), b)


def rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a [N, D] @ b [D, M] as a stack of one-row products, outside any graph.
    BLAS sums a one-row product (gemv) in another order than a row of a
    batched one (gemm), so only one-row products make row n independent of
    N. The inference forwards take their row-reducing products here;
    training keeps `matmul`."""
    return (a[:, None, :] @ b)[:, 0]


def einsum(spec: str, *tensors) -> Tensor:
    """Einstein summation with reverse-mode backward: each operand's
    gradient is an einsum of its spec against the output spec, so no
    operand may use an index absent from all other specs. Each contraction
    is one plain np.einsum call, without a contraction-path search.
    """
    ts = [_as_tensor(t) for t in tensors]
    in_part, out_spec = spec.split("->")
    in_specs = in_part.split(",")
    datas = [t.data for t in ts]
    out = np.einsum(spec, *datas)

    def bw(g):
        for i, t in enumerate(ts):
            if not t.requires_grad:
                continue
            others = [d for j, d in enumerate(datas) if j != i]
            ospecs = [s for j, s in enumerate(in_specs) if j != i]
            gspec = ",".join([out_spec] + ospecs) + "->" + in_specs[i]
            _accum(t, np.einsum(gspec, g, *others))

    return _node(out, tuple(ts), bw)


# -- position products ---------------------------------------------------------

MATCHES = ("aligned", "row", "row+col")


def _aligned(x: np.ndarray, p: np.ndarray) -> tuple:
    """Each input position's channel product with the same position of
    every prototype, [B,K,HW], as stacked one-row products [HW,B,1,C] @
    [HW,1,C,K]: a row's summation order does not depend on B. Returns it
    and its backward, the per-position products [HW,B,K]@[HW,K,C] and
    [HW,K,B]@[HW,B,C] giving the gradients of x [B,C,HW] and p [K,C,HW]."""
    bsz, _, hw = x.shape
    k, _, hwp = p.shape
    if hw != hwp:
        raise DimensionError("aligned similarity needs equal spatial grids")
    xs = np.ascontiguousarray(x.transpose(2, 0, 1))   # [HW, B, C]
    ps = np.ascontiguousarray(p.transpose(2, 1, 0))   # [HW, C, K]
    s = np.empty((bsz, k, hw))
    np.matmul(xs[:, :, None, :], ps[:, None], out=s.transpose(2, 0, 1)[:, :, None])

    def bw(g):
        gs = np.ascontiguousarray(g.transpose(2, 0, 1))   # [HW, B, K]
        dx, dp = np.empty(x.shape), np.empty(p.shape)
        np.matmul(gs, ps.transpose(0, 2, 1), out=dx.transpose(2, 0, 1))
        np.matmul(gs.transpose(0, 2, 1), xs, out=dp.transpose(2, 0, 1))
        return dx, dp

    return s, bw


def _allpairs(x: np.ndarray, p: np.ndarray) -> tuple:
    """Every position pair's channel product as one GEMM: x [B,C,HW] as
    rows [B*HW, C] times p [K,C,HWp] as columns [C, K*HWp], so entry
    [b*HW + i, k*HWp + j] pairs x[b,:,i] with p[k,:,j]. Returns the product
    and its backward, which maps a gradient of it to those of x and p."""
    bsz, c, hw = x.shape
    k, _, hwp = p.shape
    rows = x.transpose(0, 2, 1).reshape(bsz * hw, c)
    cols = p.transpose(1, 0, 2).reshape(c, k * hwp)

    def bw(gm):
        return ((gm @ cols.T).reshape(bsz, hw, c).transpose(0, 2, 1),
                (rows.T @ gm).reshape(c, k, hwp).transpose(1, 0, 2))

    return rows @ cols, bw


def _pair_offsets(bsz: int, hw: int, k: int, hwp: int, i, j) -> np.ndarray:
    """Flat offsets into the all-pairs product [B*HW, K*HWp] of the entries
    pairing input position i of image b with prototype position j of
    prototype k; i and j broadcast against [B, K, 1]."""
    block = (np.arange(bsz)[:, None, None] * hw * k + np.arange(k)[None, :, None]) * hwp
    return block + i * (k * hwp) + j


def _to_operands(x: Tensor, p: Tensor, pair_bw):
    """A node backward that sends pair_bw's two gradients to x and p."""
    def bw(g):
        dx, dp = pair_bw(g)
        _accum(x, dx)
        _accum(p, dp)

    return bw


def matched_cosine(fxh, fph, match: str) -> tuple:
    """Cosine of each input position with its matched prototype position.

    fxh [B,C,HW] and fph [K,C,HWp] hold unit (or zero) columns. `match`
    says which prototype position each input position is paired with:

      aligned  input position i against prototype position i (HW == HWp)
      row      per input position, the max over prototype positions
      row+col  row, plus per prototype position the max over input
               positions

    Ties go to the first index, as np.argmax breaks them. Returns
    (cos [B,K,HW], arg_p, cos_p [B,K,HWp], arg_x): arg_p [B,K,HW] is the
    best prototype position per input position (None when aligned), and
    cos_p with arg_x [B,K,HWp] exist for row+col only.

    Aligned cosines are one node over (fxh, fph), from `_aligned`. The max
    modes read one GEMM of all position pairs, m [B*HW, K*HWp], the op's
    one inner node: each selection adds its gradient at the entries it
    read into one all-pairs buffer that the op owns and hands to m as its
    gradient, and m's backward is the matmul backward, so no
    all-pairs-sized gradient is transposed or copied. A row of a batched
    call is bit-equal to a one-row call.
    """
    fxh, fph = _as_tensor(fxh), _as_tensor(fph)
    bsz, c, hw = fxh.shape
    k, cp, hwp = fph.shape
    if cp != c:
        raise DimensionError(f"channel mismatch: {c} vs {cp}")
    if match not in MATCHES:
        raise ValueError(f"unknown match {match!r}")
    if match == "aligned":
        cos, cos_bw = _aligned(fxh.data, fph.data)
        return _node(cos, (fxh, fph), _to_operands(fxh, fph, cos_bw)), None, None, None
    m, m_bw = _allpairs(fxh.data, fph.data)
    pairs = _node(m, (fxh, fph), _to_operands(fxh, fph, m_bw))
    gm = None   # m's gradient; only the selections below write into it

    def select(flat):
        def bw(g):
            nonlocal gm
            if pairs.grad is None:
                gm = np.zeros_like(m)
            # each selection reads distinct entries, so one fancy add is exact
            gm.reshape(-1)[flat] += g
            pairs.grad = gm

        return _node(m.reshape(-1)[flat], (pairs,), bw)

    arg_p = m.reshape(bsz, hw, k, hwp).argmax(axis=3).transpose(0, 2, 1)   # [B, K, HW]
    cos = select(_pair_offsets(bsz, hw, k, hwp, np.arange(hw), arg_p))
    if match == "row":
        return cos, arg_p, None, None
    # first input position holding each column max, without argmax, which
    # would copy m to bring the input axis innermost: the max over input
    # positions, then the lowest position equal to it as a max over
    # reversed position codes; both reductions run along contiguous rows
    mc = m.reshape(bsz, hw, k * hwp)
    top = mc.max(axis=1)
    code = np.arange(hw, 0, -1, dtype=np.min_scalar_type(hw))[:, None]
    first = ((mc == top[:, None]) * code).max(axis=1).astype(np.intp)
    arg_x = np.minimum(hw - first, hw - 1).reshape(bsz, k, hwp)   # a NaN column keeps hw - 1
    cos_p = select(_pair_offsets(bsz, hw, k, hwp, arg_x, np.arange(hwp)))
    return cos, arg_p, cos_p, arg_x


def attended_score(w, fx, fp, v, arg_p=None) -> Tensor:
    """Head III score z [B,K] from position weights w [B,K,HW], features
    fx [B,C,HW] and fp [K,C,HWp], and a channel kernel v [C]:

      z[b,k] = sum_i w[b,k,i] * S[b,k,i],
      S[b,k,i] = sum_c v[c] * fx[b,c,i] * fp[k,c,j],

    with j = i (aligned, HW == HWp) or j = arg_p[b,k,i] (matched), for
    (fx * v) and fp taken as matched_cosine takes its cosines: aligned
    from `_aligned`, matched from the all-pairs GEMM, whose backward puts
    g * w into a zero all-pairs buffer at the (distinct) offsets read. A
    row of a batched call is bit-equal to a one-row call: with HW > 1 a
    one-image GEMM's rows are summed as a batch's are.
    """
    w, fx, fp, v = _as_tensor(w), _as_tensor(fx), _as_tensor(fp), _as_tensor(v)
    bsz, c, hw = fx.shape
    k, cp, hwp = fp.shape
    if cp != c or v.shape != (c,) or w.shape != (bsz, k, hw):
        raise DimensionError(f"attended score shapes disagree: w {w.shape}, fx {fx.shape}, "
                             f"fp {fp.shape}, v {v.shape}")
    xv = fx.data * v.data[:, None]
    if arg_p is None:
        s, s_bw = _aligned(xv, fp.data)
    else:
        m, m_bw = _allpairs(xv, fp.data)
        flat = _pair_offsets(bsz, hw, k, hwp, np.arange(hw), arg_p)
        s = m.reshape(-1)[flat]

        def s_bw(gs):
            gm = np.zeros((bsz * hw, k * hwp))
            gm.reshape(-1)[flat] = gs
            return m_bw(gm)

    out = (w.data * s).sum(axis=2)

    def bw(g):
        _accum(w, g[:, :, None] * s)
        dxv, dfp = s_bw(g[:, :, None] * w.data)
        _accum(fp, dfp)
        _accum(fx, dxv * v.data[:, None])
        _accum(v, np.einsum("bci,bci->c", dxv, fx.data))

    return _node(out, (w, fx, fp, v), bw)


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


def avgpool_spatial(t) -> Tensor:
    """Spatial average pooling of a batch: [N,C,H,W] -> [N,C]."""
    t = _as_tensor(t)
    if t.ndim != 4:
        raise DimensionError(f"avgpool_spatial expects [N,C,H,W], got {t.shape}")
    return tmean(t, axis=(2, 3))


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


_COL2IM_FLAT: dict = {}


def _col2im(cols, shape, kh, kw, stride):
    """Adjoint of the im2col gather: the padded maps [t, C, Hp, Wp] that sum
    the columns [t, C*kh*kw, H2*W2], by one bincount over a cached flat
    index. One strided slice-add per kernel tap gives the same bits but never
    ran faster (2-vCPU Xeon, median of 100-200 calls): bincount took 0.49-0.57
    of its time at explain's first layer (16 output columns), 0.72-0.91 at
    32 columns and 64-px inputs, and 0.29-0.55 below 16 columns."""
    t, c, hp, wp = shape
    key = (t, c, hp, wp, kh, kw, stride)
    flat = _COL2IM_FLAT.get(key)
    if flat is None:
        idx = _im2col_plan(c, hp, wp, kh, kw, stride, 0)[0]
        flat = (idx + np.arange(t)[:, None, None] * (c * hp * wp)).ravel()
        _COL2IM_FLAT[key] = flat
    return np.bincount(flat, weights=cols.ravel(), minlength=t * c * hp * wp).reshape(shape)


# Byte budget of one batch tile's im2col columns [t, C*kh*kw, H2*W2], so a
# tile stays in a 2 MiB L2 cache next to its padded input and GEMM output.
# On the benchmark's train workload (2-vCPU Xeon, one BLAS thread) 512 KiB
# ran fastest; 256 KiB (more tiles) and 1 to 2 MiB (cache spills) were
# 3 to 7% slower. A recorded call writes its tiles into one whole-batch
# buffer, kept for the backward; the tiles and their GEMMs stay the same.
_TILE_BYTES = 1 << 19


def conv2d(x, kernel, bias=None, stride: int = 1, pad: int = 0,
           relu: bool = False) -> Tensor:
    """2-D cross-correlation, with an optional ReLU epilogue.

    x: [N,C,H,W]; kernel: [F,C,kh,kw]; bias: [F] or None.
    Output spatial extents follow floor((H + 2*pad - kh)/stride) + 1.

    The batch is processed in tiles whose im2col columns fit _TILE_BYTES.
    When a graph is recorded and the kernel needs a gradient, the tiles
    are gathered into one whole-batch column buffer [N, M, L] that lives
    as long as the graph, and the kernel gradient reads them back tile by
    tile instead of gathering them again. Otherwise (no_grad: inference,
    relevance, soft labels) one tile-sized buffer is reused.

    relu=True is relu(conv2d(...)) bit for bit: each tile's output is
    clamped in place after its bias, while still in cache, so no
    pre-activation array exists. The backward masks the gradient by the
    node's own output, `out > 0`, true exactly where the pre-activation is
    > 0 (NaN included), before reshaping it, so a strided gradient view is
    copied once, by the mask. Tests take the linear default as the
    pre-activation.
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
    if stride < 1:
        raise DimensionError("stride must be >= 1")
    if x.ndim != 4 or kernel.ndim != 4:
        raise DimensionError(f"conv2d expects [N,C,H,W] and [F,C,kh,kw], got {x.shape}, {kernel.shape}")
    n, c, h, w = x.shape
    f, ck, kh, kw = kernel.shape
    if ck != c:
        raise DimensionError(f"conv2d channel mismatch: input {c}, kernel {ck}")
    idx, hp, wp, h2, w2 = _im2col_plan(c, h, w, kh, kw, stride, pad)
    m, l = idx.shape
    tile = max(1, min(n, _TILE_BYTES // (m * l * 8)))
    k2 = kernel.data.reshape(f, m)
    if bias is not None:
        bias = _as_tensor(bias)
    keep = _grad_enabled and kernel.requires_grad
    xp = np.zeros((tile, c, hp, wp))  # padded tile; the border stays zero
    cols = np.empty((n if keep else tile, m, l))
    out = np.empty((n, f, l))
    for s in range(0, n, tile):
        e = min(n, s + tile)
        ct = cols[s:e] if keep else cols[:e - s]
        xp[:e - s, :, pad:pad + h, pad:pad + w] = x.data[s:e]
        # every index is in range; mode="clip" lets take write into `ct`
        # directly, where the default mode would buffer
        np.take(xp[:e - s].reshape(e - s, -1), idx, axis=1, out=ct, mode="clip")
        np.matmul(k2, ct, out=out[s:e])
        if bias is not None:
            out[s:e] += bias.data[:, None]
        if relu:
            np.maximum(out[s:e], 0.0, out=out[s:e])
    out = out.reshape(n, f, h2, w2)
    parents = (x, kernel) if bias is None else (x, kernel, bias)

    def bw(g):
        if relu:
            g = g * (out > 0.0)
        g2 = g.reshape(n, f, l)
        if keep:
            dk = np.zeros((f, m))
            for s in range(0, n, tile):
                dk += np.matmul(g2[s:s + tile], cols[s:s + tile].transpose(0, 2, 1)).sum(axis=0)
            _accum(kernel, dk.reshape(kernel.shape))
        if bias is not None and bias.requires_grad:
            _accum(bias, g2.sum(axis=(0, 2)))
        if x.requires_grad:
            dxp = np.empty((n, c, hp, wp))
            for s in range(0, n, tile):
                e = min(n, s + tile)
                dxp[s:e] = _col2im(np.matmul(k2.T, g2[s:e]), (e - s, c, hp, wp), kh, kw, stride)
            dx = dxp[:, :, pad:hp - pad, pad:wp - pad] if pad else dxp
            _accum(x, dx)

    return _node(out, parents, bw)
