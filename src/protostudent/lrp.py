"""Relevance propagation from the predicted logit down to pixel space,
producing paired heatmaps for (input, prototype) pairs.

Convolutions use the alpha/beta rule (positive and negative contribution
splits); every other layer, including the similarity and attended
similarity layers, uses the epsilon rule. Similarity entries are bilinear
in the two feature maps: each side's pass treats its own factor as the
layer input and the other side's factor as fixed weights, and the full
relevance is propagated independently down each side, which is what the
paired heatmaps visualize. Attention maps are constants during
propagation.

The alpha/beta rule is computed sign-split: a contribution k*c is
positive exactly when k and c share a sign, so with k+/k- and c+/c- the
clamped kernel and input columns the positive pool is k+@c+ + k-@c- and
the negative pool k+@c- + k-@c+, and relevance returns through the
transposed clamped kernels. No per-connection [F, C*kh*kw, H*W] tensor is
built. A layer whose input has no negative entry (images in [0, 1], ReLU
outputs: every layer the encoder records) has c- = 0, so its pools are
k+@c and k-@c and half the GEMMs drop out; this is the z+ case of deep
Taylor decomposition for ReLU inputs.

One core serves N images with k prototypes each: one `student.forward`
over the batch, whose record gives the ranking scores u and whose rows
do not depend on the batch, one recorded encoder forward over the N
inputs plus the distinct selected prototypes (a prototype several images
share is encoded once), and one relevance sweep over the 2·N·k stacked
sides. The similarity layer's relevance and its split onto the two
feature maps are one vectorized computation over all pairs; the spatial
heads differ only in the record fields a small table names.
"""
from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import imagefiles
from .heads import StudentModel
from .tensor import DimensionError, _col2im_add, _im2col_plan

_ALPHA_DEFAULT = 1.7
_BETA_DEFAULT = 0.7
_EPS_DEFAULT = 1e-3
# images per relevance core call in explain; bounds the stacked sides'
# working set
CHUNK = 8


class PropagationError(RuntimeError):
    """Forward state is unusable for relevance propagation."""


@dataclass(frozen=True)
class LrpParams:
    alpha: float = _ALPHA_DEFAULT
    beta: float = _BETA_DEFAULT
    epsilon: float = _EPS_DEFAULT

    def __post_init__(self):
        if abs(self.alpha - self.beta - 1.0) > 1e-12:
            raise ValueError("alpha - beta must equal 1")
        if self.alpha <= 0 or self.beta < 0:
            raise ValueError("need alpha > 0 and beta >= 0")


@dataclass
class RelevancePair:
    """Paired pixel heatmaps for one (input, prototype) combination."""
    prototype_index: int
    r_sim: np.ndarray          # relevance at the (attended) similarity layer
    heat_input: np.ndarray     # [H0, W0]
    heat_proto: np.ndarray     # [H0, W0]
    u_value: float
    predicted_class: int


def _stab(z, eps: float):
    """z + eps*sign(z) with sign(0) = +1."""
    return z + eps * np.where(z >= 0, 1.0, -1.0)


def _safe_ratio(num, den):
    ok = den != 0.0
    return np.where(ok, num / np.where(ok, den, 1.0), 0.0)


def lrp_conv_alphabeta(a: np.ndarray, kernel: np.ndarray, bias, r_out: np.ndarray,
                       params: LrpParams, stride: int, pad: int) -> np.ndarray:
    """Alpha/beta rule through one conv layer, for a batch a [N,C,H,W]
    with r_out [N,F,H2,W2] and a kernel [F,C,kh,kw]; other shapes raise
    DimensionError.

    Positive and negative pre-activation contributions are normalized
    separately; bias halves join their respective pools. All-zero pools
    contribute nothing. The pools and the returned relevance are sums of
    four GEMMs over the sign-clamped kernel and input columns (module
    docstring), gathered once for the whole batch. When a has no negative
    entry, c+ is the columns themselves and every c- term is an exact
    zero, so only the pools k+@c, k-@c and the c+ relevance are computed.
    Dropping terms that are all +-0 leaves every nonzero value unchanged;
    a signed input keeps all four GEMMs.
    """
    if a.ndim != 4 or kernel.ndim != 4 or kernel.shape[1] != a.shape[1]:
        raise DimensionError(f"alpha/beta conv needs an [N,C,H,W] input and an "
                             f"[F,C,kh,kw] kernel, got {a.shape} and {kernel.shape}")
    n, c, h, w = a.shape
    f, _, kh, kw = kernel.shape
    idx, hp, wp, h2, w2 = _im2col_plan(c, h, w, kh, kw, stride, pad)
    if r_out.shape != (n, f, h2, w2):
        raise DimensionError(f"r_out {r_out.shape} does not match the conv output "
                             f"{(n, f, h2, w2)} of input {a.shape} and kernel {kernel.shape}")
    ap = np.zeros((n, c, hp, wp))
    ap[:, :, pad:pad + h, pad:pad + w] = a
    cols = np.take(ap.reshape(n, c * hp * wp), idx, axis=1)   # [N, M, L]
    k2 = kernel.reshape(f, c * kh * kw)
    kp, kn = np.maximum(k2, 0.0), np.minimum(k2, 0.0)
    signed = bool((a < 0.0).any())
    if signed:
        cp, cn = np.maximum(cols, 0.0), np.minimum(cols, 0.0)
        pos_tot = kp @ cp + kn @ cn                # [N, F, L]
        neg_tot = kp @ cn + kn @ cp
    else:
        cp = cols
        pos_tot = kp @ cp
        neg_tot = kn @ cp
    if bias is not None:
        pos_tot += np.maximum(bias, 0.0)[:, None]
        neg_tot += np.minimum(bias, 0.0)[:, None]
    r2 = r_out.reshape(n, f, h2 * w2)
    # alpha - beta = 1 balances the two pools against each other; when one
    # pool is empty the other takes the whole relevance (net coefficient 1)
    # so single-signed outputs stay conservative
    coeff_pos = np.where(neg_tot != 0.0, params.alpha, 1.0)
    coeff_neg = np.where(pos_tot != 0.0, params.beta, -1.0)
    fac_pos = coeff_pos * _safe_ratio(r2, pos_tot)
    fac_neg = coeff_neg * _safe_ratio(r2, neg_tot)
    r_cols = cp * (kp.T @ fac_pos - kn.T @ fac_neg)
    if signed:
        r_cols += cn * (kn.T @ fac_pos - kp.T @ fac_neg)
    r_pad = np.zeros((n, c, hp, wp))
    _col2im_add(r_pad, r_cols, kh, kw, stride)
    return r_pad[:, :, pad:hp - pad, pad:wp - pad] if pad else r_pad


def encoder_lrp(records: list, r_features: np.ndarray, params: LrpParams) -> np.ndarray:
    """Walk the recorded conv blocks backwards down to pixel space. ReLU
    boundaries pass relevance through unchanged. r_features is a batch
    [N,C,H,W] matching the records' inputs."""
    r = r_features
    for rec in reversed(records):
        r = lrp_conv_alphabeta(rec["input"], rec["kernel"], rec["bias"], r,
                               params, rec["stride"], rec["pad"])
    return r


def _avgpool_lrp(features: np.ndarray, r_pooled: np.ndarray, eps: float) -> np.ndarray:
    """Redistribute pooled-vector relevance [P,C] onto the maps [P,C,H,W]
    proportionally to each position's forward contribution."""
    _, _, h, w = features.shape
    g = features.mean(axis=(2, 3))
    factor = _safe_ratio(r_pooled, _stab(g, eps))
    return features / (h * w) * factor[:, :, None, None]


# Every spatial head's z_k is a weighted sum over one similarity layer whose
# entries are bilinear in the two feature maps: the matched cosine over
# positions (Head II, z = mean) or the attended vector over channels (Head
# III, z = v . attended). Per kind: the record field holding that layer
# (Head III records none: its attended vector is rebuilt per pair as the
# position sum of the weighted feature products), the feature pair, the
# position weights multiplied in, and whether the prototype side is read at
# each input position's best prototype position. III-C records argmax_p
# too, but its attended contraction is aligned.
_BILINEAR = {
    "II-A": ("cos", "fxh", "fph", (), False),
    "II-B": ("cos", "fxh", "fph", (), True),
    "III-A": (None, "fx_raw", "fp_raw", ("attn",), False),
    "III-B": (None, "fx_raw", "fp_raw", ("attn",), True),
    "III-C": (None, "fx_raw", "fp_raw", ("attn", "attn_p"), False),
}


def _bilinear_entries(rec, ix: np.ndarray, kp: np.ndarray) -> tuple:
    """The similarity layer of a spatial head for every pair (input ix[j],
    prototype kp[j]) of a batched record: (s, prod, sel). prod [P,C,HW] are
    the weighted feature products; s is their sum over the axis the layer
    does not span, the matched cosine [P,1,HW] (Head II, read from the
    record) or the attended vector [P,C,1] (Head III, rebuilt); sel [P,1,HW]
    are the matched prototype positions, or None when aligned."""
    layer, x_field, p_field, weights, matched = _BILINEAR[rec.kind]
    fp = getattr(rec, p_field).data[kp]
    sel = None
    if matched:
        sel = rec.argmax_p[ix, kp][:, None, :]
        fp = np.take_along_axis(fp, sel, axis=2)
    a = 1.0
    for name in weights:
        a = a * getattr(rec, name).data[ix, kp][:, None, :]
    prod = a * getattr(rec, x_field).data[ix] * fp
    if layer:
        return getattr(rec, layer).data[ix, kp][:, None, :], prod, sel
    return prod.sum(axis=2, keepdims=True), prod, sel


def _similarity_relevance(student: StudentModel, rec, y: np.ndarray, ix: np.ndarray,
                          kp: np.ndarray, feats_x: np.ndarray, feats_p: np.ndarray,
                          eps: float) -> tuple:
    """Relevance of the predicted-class logit at the similarity layer, and
    its split onto the two feature maps, for every pair (input ix[j],
    prototype kp[j]) of one batched head record.

    y is the record's logits [B, classes]; feats_x and feats_p are each
    pair's input and prototype encoder features [P,C,H,W] (Head I reads
    them). Returns (r_sim, r_fx, r_fp): r_sim is [P,1] for Head I, [P,H,W]
    for Head II and [P,C] for Head III; r_fx and r_fp are [P,C,H,W], each
    carrying the full r_sim through its own factor of the bilinear form.
    For the max heads the prototype side is scatter-added at the selected
    positions.
    """
    c_star = y.argmax(axis=1)[ix]
    r_top = y[ix, c_star]
    den = _stab(r_top, eps)
    z = rec.z.data[ix, kp]
    # epsilon rule through the classification layer, restricted to slot k
    r_z = np.where(den != 0.0,
                   z * student.head.w.data[c_star, kp] / np.where(den != 0.0, den, 1.0) * r_top,
                   0.0)
    if rec.kind == "I":
        factor = _safe_ratio(r_z, _stab(rec.s_raw.data[ix, kp], eps))
        r_g = rec.gxh.data[ix] * rec.gph.data[kp] * factor[:, None]
        # same products on both sides; they diverge through the pooling
        return (r_z[:, None], _avgpool_lrp(feats_x, r_g, eps),
                _avgpool_lrp(feats_p, r_g, eps))

    n_pairs = len(ix)
    h, w = rec.hw_shape
    s, prod, sel = _bilinear_entries(rec, ix, kp)
    v = student.head.conv1d_w
    v, d = (1.0, h * w) if v is None else (v.data[:, None], 1.0)
    r_sim = s * v / d * _safe_ratio(r_z, _stab(z, eps))[:, None, None]
    # epsilon rule through the bilinear entries; attention weights are
    # constants
    r_fx = prod * _safe_ratio(r_sim, _stab(s, eps))
    r_fp = r_fx
    if sel is not None:
        c = r_fx.shape[1]
        flat = np.arange(n_pairs * c).reshape(n_pairs, c, 1) * (h * w) + sel
        r_fp = np.bincount(flat.ravel(), weights=r_fx.ravel(),
                           minlength=r_fx.size).reshape(r_fx.shape)
    shape = rec.hw_shape if _BILINEAR[rec.kind][0] else (-1,)
    return (r_sim.reshape(n_pairs, *shape), r_fx.reshape(n_pairs, -1, h, w),
            r_fp.reshape(n_pairs, -1, h, w))


def _pairs(student: StudentModel, images: np.ndarray, ks: list,
           params: LrpParams | None, fwd: tuple) -> list:
    """Heatmap pairs for (images[i], prototype k) for every k in ks[i];
    returns one list of pairs per image.

    fwd is student.forward(images). One recorded encoder forward covers
    the images and the distinct selected prototypes, and one relevance
    sweep covers the 2P stacked sides of the P pairs: rows 0..P-1 are the
    input sides, rows P..2P-1 the prototype sides.
    """
    params = params or LrpParams()
    store = student.store
    kp = np.array([k for row in ks for k in row], dtype=np.int64)
    for k in kp:
        if not 0 <= k < len(store):
            raise PropagationError(f"prototype index {k} out of range")
    if not kp.size:
        return [[] for _ in ks]
    n = len(images)
    ix = np.repeat(np.arange(n), [len(row) for row in ks])
    protos, slot = np.unique(kp, return_inverse=True)
    feats, records = student.encoder.forward_recorded(
        np.concatenate([images, store.images[protos]]))
    y, rec = fwd[0].data, fwd[1]
    if not np.isfinite(y).all():
        raise PropagationError("logits are non-finite; model state unusable")
    r_sim, r_fx, r_fp = _similarity_relevance(student, rec, y, ix, kp, feats[ix],
                                              feats[n + slot], params.epsilon)
    rows = np.concatenate([ix, n + slot])
    heat = encoder_lrp([dict(r, input=r["input"][rows]) for r in records],
                       np.concatenate([r_fx, r_fp]), params).sum(axis=1)
    u = rec.u
    c_star = y.argmax(axis=1)
    pairs = [RelevancePair(prototype_index=int(kp[j]), r_sim=r_sim[j], heat_input=heat[j],
                           heat_proto=heat[len(kp) + j], u_value=float(u[ix[j], kp[j]]),
                           predicted_class=int(c_star[ix[j]]))
             for j in range(len(kp))]
    ends = np.cumsum([len(row) for row in ks])
    return [pairs[end - len(row):end] for row, end in zip(ks, ends)]


def heatmaps(student: StudentModel, x: np.ndarray, k: int,
             params: LrpParams | None = None) -> RelevancePair:
    """Paired pixel heatmaps for (x, prototype k)."""
    x = np.asarray(x, dtype=np.float64)[None]
    return _pairs(student, x, [[k]], params, student.forward(x))[0][0]


def explain(student: StudentModel, x: np.ndarray, topk: int = 1,
            params: LrpParams | None = None) -> list:
    """Heatmap pairs for the top-k prototypes ranked by similarity score.

    x is one image [C,H,W], which returns its list of pairs, or a batch
    [N,C,H,W], which returns one list per image. Images run in chunks of
    CHUNK, each with one student.forward reused for every pair and one
    relevance core call, so peak memory does not grow with N.
    """
    x = np.asarray(x, dtype=np.float64)
    batch = x if x.ndim == 4 else x[None]
    out = []
    for start in range(0, len(batch), CHUNK):
        chunk = batch[start:start + CHUNK]
        fwd = student.forward(chunk)
        order = np.argsort(-fwd[1].u, axis=1, kind="stable")[:, :topk]
        out.extend(_pairs(student, chunk, order.tolist(), params, fwd))
    return out if x.ndim == 4 else out[0]


def export_pair(pair: RelevancePair, basepath) -> list:
    """Write both heatmaps as 16-bit PGM magnitude images plus JSON
    sidecars; returns the written paths.

    Magnitudes are normalized per pair by max |relevance|. Each sidecar
    carries the side's conservation residual |sum(heat) - sum(r_sim)| /
    |sum(r_sim)|, or null when sum(r_sim) is 0.
    """
    basepath = Path(basepath)
    r_sim = float(np.sum(pair.r_sim))
    peak = max(np.abs(pair.heat_input).max(), np.abs(pair.heat_proto).max())
    gain = 1.0 / peak if peak > 0 else 0.0
    written = []
    for side, heat in (("input", pair.heat_input), ("proto", pair.heat_proto)):
        img = np.clip(np.abs(heat) * gain, 0.0, 1.0)
        pgm = basepath.parent / f"{basepath.name}_{side}.pgm"
        checksum = zlib.crc32(imagefiles.write_pgm16(pgm, img))
        sidecar = {"k": pair.prototype_index, "u_k": pair.u_value,
                   "class": pair.predicted_class,
                   "min": float(heat.min()), "max": float(heat.max()),
                   "checksum": checksum,
                   "conservation_residual":
                       abs(float(heat.sum()) - r_sim) / abs(r_sim) if r_sim else None}
        meta = basepath.parent / f"{basepath.name}_{side}.json"
        imagefiles.write_file(meta, (json.dumps(sidecar, sort_keys=True, indent=2) + "\n").encode())
        written.extend([pgm, meta])
    return written
