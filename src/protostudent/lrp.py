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
built. One explain call runs one ranking forward, one recorded encoder
forward over the input and its k prototypes, and one relevance sweep over
the 2k stacked sides.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .heads import StudentModel
from .outlier import u_from_record

_ALPHA_DEFAULT = 1.7
_BETA_DEFAULT = 0.7
_EPS_DEFAULT = 1e-3


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
    return z + eps * np.where(np.asarray(z) >= 0, 1.0, -1.0)


def _safe_ratio(num, den):
    den = np.asarray(den, dtype=np.float64)
    ok = den != 0.0
    return np.where(ok, np.asarray(num, dtype=np.float64) / np.where(ok, den, 1.0), 0.0)


def lrp_linear_eps(a: np.ndarray, w: np.ndarray, b, r_out: np.ndarray,
                   eps: float) -> np.ndarray:
    """Epsilon rule through y = w @ a + b; bias counts into the
    denominator as neuron zero. Zero denominators contribute nothing."""
    a = np.asarray(a, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    r_out = np.asarray(r_out, dtype=np.float64)
    z = w @ a + (0.0 if b is None else np.asarray(b, dtype=np.float64))
    factor = _safe_ratio(r_out, _stab(z, eps))
    return a * (w.T @ factor)


def lrp_conv_alphabeta(a: np.ndarray, kernel: np.ndarray, bias, r_out: np.ndarray,
                       params: LrpParams, stride: int, pad: int) -> np.ndarray:
    """Alpha/beta rule through one conv layer, for one sample a [C,H,W]
    with r_out [F,H2,W2] or a batch a [N,C,H,W] with r_out [N,F,H2,W2].

    Positive and negative pre-activation contributions are normalized
    separately; bias halves join their respective pools. All-zero pools
    contribute nothing. The pools and the returned relevance are sums of
    four GEMMs over the sign-clamped kernel and input columns (module
    docstring), gathered once for the whole batch.
    """
    from .tensor import _col2im_add, _im2col_plan  # shared conv geometry

    a = np.asarray(a, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    r_out = np.asarray(r_out, dtype=np.float64)
    squeeze = a.ndim == 3
    if squeeze:
        a, r_out = a[None], r_out[None]
    n, c, h, w = a.shape
    f, _, kh, kw = kernel.shape
    idx, hp, wp, h2, w2 = _im2col_plan(c, h, w, kh, kw, stride, pad)
    ap = np.zeros((n, c, hp, wp))
    ap[:, :, pad:pad + h, pad:pad + w] = a
    cols = np.take(ap.reshape(n, c * hp * wp), idx, axis=1)   # [N, M, L]
    cp, cn = np.maximum(cols, 0.0), np.minimum(cols, 0.0)
    k2 = kernel.reshape(f, c * kh * kw)
    kp, kn = np.maximum(k2, 0.0), np.minimum(k2, 0.0)
    pos_tot = kp @ cp + kn @ cn                    # [N, F, L]
    neg_tot = kp @ cn + kn @ cp
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
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
    r_cols = (cp * (kp.T @ fac_pos - kn.T @ fac_neg)
              + cn * (kn.T @ fac_pos - kp.T @ fac_neg))
    r_pad = np.zeros((n, c, hp, wp))
    _col2im_add(r_pad, r_cols, kh, kw, stride)
    r_in = r_pad[:, :, pad:hp - pad, pad:wp - pad] if pad else r_pad
    return r_in[0] if squeeze else r_in


def encoder_lrp(records: list, r_features: np.ndarray, params: LrpParams) -> np.ndarray:
    """Walk the recorded conv blocks backwards down to pixel space. ReLU
    boundaries pass relevance through unchanged. r_features is [C,H,W] or
    a batch [N,C,H,W] matching the records' inputs."""
    r = r_features
    for rec in reversed(records):
        r = lrp_conv_alphabeta(rec["input"], rec["kernel"], rec["bias"], r,
                               params, rec["stride"], rec["pad"])
    return r


def _avgpool_lrp(features: np.ndarray, r_pooled: np.ndarray, eps: float) -> np.ndarray:
    """Redistribute pooled-vector relevance onto the map proportionally to
    each position's forward contribution."""
    c, h, w = features.shape
    g = features.mean(axis=(1, 2))
    factor = _safe_ratio(r_pooled, _stab(g, eps))
    return features / (h * w) * factor[:, None, None]


def _forward_state(student: StudentModel, x: np.ndarray, ks: list, fwd=None):
    """Forward x with everything relevance needs for prototypes ks recorded.

    fwd is a (logits, record) pair from student.forward(x[None]) when the
    caller already ran it. One recorded encoder forward covers x and the
    prototype images; "records" holds its per-block batches in that order.
    """
    store = student.store
    for k in ks:
        if not 0 <= k < len(store):
            raise PropagationError(f"prototype index {k} out of range")
    if store.features is None:
        student.refresh_store_features()
    feats, records = student.encoder.forward_recorded(
        np.concatenate([x[None], store.images[ks]]))
    logits, rec = fwd or student.forward(x[None])
    y = logits.data[0]
    if not np.isfinite(y).all():
        raise PropagationError("logits are non-finite; model state unusable")
    return {"fx": feats[0], "fp": dict(zip(ks, feats[1:])), "records": records,
            "y": y, "rec": rec, "c_star": int(y.argmax())}


def relevance_at_similarity(student: StudentModel, x: np.ndarray, k: int,
                            params: LrpParams | None = None,
                            state: dict | None = None) -> np.ndarray:
    """Relevance of prototype k's slice of the similarity layer for the
    predicted-class logit.

    Head I: scalar (as a length-1 array); Head II: the [H,W] map; Head
    III: the length-C attended similarity vector.
    """
    params = params or LrpParams()
    st = state or _forward_state(student, np.asarray(x, dtype=np.float64), [k])
    rec, y, c_star = st["rec"], st["y"], st["c_star"]
    eps = params.epsilon
    kind = student.head.kind
    z = rec.z.data[0]
    r_top = y[c_star]
    # epsilon rule through the classification layer, restricted to slot k
    denom = _stab(y[c_star], eps)
    r_zk = 0.0 if denom == 0 else z[k] * student.head.w.data[c_star, k] / denom * r_top
    if kind == "I":
        return np.array([r_zk])
    if kind in ("II-A", "II-B"):
        smap = rec.cos.data[0, k]
        factor = 0.0 if _stab(z[k], eps) == 0 else r_zk / _stab(z[k], eps)
        return (smap / smap.size * factor).reshape(rec.hw_shape)
    # Head III: epsilon rule through the channel-sum conv
    s_vec = rec.attended.data[0, k]
    v = student.head.conv1d_w.data
    factor = 0.0 if _stab(z[k], eps) == 0 else r_zk / _stab(z[k], eps)
    return v * s_vec * factor


def _similarity_split(student: StudentModel, k: int, r_sim: np.ndarray,
                      st: dict, eps: float) -> tuple:
    """Split similarity relevance onto the two feature maps.

    Returns (r_fx [C,H,W], r_fp [C,H,W]), each carrying the full r_sim
    through its own factor of the bilinear form. For the max heads the
    prototype side is scatter-accumulated at the selected positions.
    """
    rec = st["rec"]
    kind = student.head.kind
    h, w = rec.hw_shape
    c = st["fx"].shape[0]
    hw = h * w

    if kind == "I":
        gxh = rec.gxh.data[0]
        gph = rec.gph.data[k]
        s = rec.s_raw.data[0, k]
        factor = _safe_ratio(r_sim[0], _stab(s, eps))
        r_gx = gxh * gph * factor
        r_gp = r_gx.copy()  # same products; the sides diverge downstream
        r_fx = _avgpool_lrp(st["fx"], r_gx, eps)
        r_fp = _avgpool_lrp(st["fp"][k], r_gp, eps)
        return r_fx, r_fp

    fxh = rec.fxh.data[0].reshape(c, hw)
    fph = rec.fph.data[k].reshape(c, hw)
    if kind == "II-A":
        smap = rec.cos.data[0, k].reshape(hw)
        r_map = r_sim.reshape(hw)
        factor = _safe_ratio(r_map, _stab(smap, eps))
        r_fx = fxh * fph * factor[None, :]
        return r_fx.reshape(c, h, w), r_fx.copy().reshape(c, h, w)
    if kind == "II-B":
        sel = rec.argmax_p[0, k]
        smap = rec.cos.data[0, k].reshape(hw)
        r_map = r_sim.reshape(hw)
        factor = _safe_ratio(r_map, _stab(smap, eps))
        prod = fxh * fph[:, sel] * factor[None, :]
        r_fp = np.zeros((c, hw))
        np.add.at(r_fp, (slice(None), sel), prod)
        return prod.reshape(c, h, w), r_fp.reshape(c, h, w)

    # Head III: relevance arrives as a length-C vector on the attended
    # similarity; attention weights are constants.
    fx_raw = rec.fx_raw.data[0].reshape(c, hw)
    fp_raw = rec.fp_raw.data[k].reshape(c, hw)
    s_vec = rec.attended.data[0, k]
    factor = _safe_ratio(r_sim, _stab(s_vec, eps))  # [C]
    if kind == "III-A":
        a = rec.attn.data[0, k]
        prod = a[None, :] * fx_raw * fp_raw * factor[:, None]
        return prod.reshape(c, h, w), prod.copy().reshape(c, h, w)
    if kind == "III-B":
        a = rec.attn.data[0, k]
        sel = rec.argmax_p[0, k]
        prod = a[None, :] * fx_raw * fp_raw[:, sel] * factor[:, None]
        r_fp = np.zeros((c, hw))
        np.add.at(r_fp, (slice(None), sel), prod)
        return prod.reshape(c, h, w), r_fp.reshape(c, h, w)
    if kind == "III-C":
        joint = rec.attn.data[0, k] * rec.attn_p.data[0, k]
        prod = joint[None, :] * fx_raw * fp_raw * factor[:, None]
        return prod.reshape(c, h, w), prod.copy().reshape(c, h, w)
    raise PropagationError(f"unknown head kind {kind!r}")


def _pairs(student: StudentModel, x: np.ndarray, ks: list, params: LrpParams | None,
           relevance_scale: float = 1.0, fwd=None) -> list:
    """Heatmap pairs for (x, prototype k) for every k in ks, from one
    recorded forward and one relevance sweep over the stacked sides."""
    if not ks:
        return []
    params = params or LrpParams()
    x = np.asarray(x, dtype=np.float64)
    st = _forward_state(student, x, ks, fwd)
    r_sims = [relevance_at_similarity(student, x, k, params, state=st) * relevance_scale
              for k in ks]
    sides = [_similarity_split(student, k, r, st, params.epsilon) for k, r in zip(ks, r_sims)]
    n = len(ks)
    # rows 0..n-1 are the input sides (record row 0), rows n..2n-1 the
    # prototype sides (record rows 1..n)
    rows = np.concatenate([np.zeros(n, dtype=np.int64), np.arange(1, n + 1)])
    records = [dict(r, input=r["input"][rows]) for r in st["records"]]
    r_top = np.stack([side[0] for side in sides] + [side[1] for side in sides])
    heat = encoder_lrp(records, r_top, params).sum(axis=1)
    u = u_from_record(st["rec"])[0]
    return [RelevancePair(prototype_index=k, r_sim=r_sims[j],
                          heat_input=heat[j], heat_proto=heat[n + j],
                          u_value=float(u[k]), predicted_class=st["c_star"])
            for j, k in enumerate(ks)]


def heatmaps(student: StudentModel, x: np.ndarray, k: int,
             params: LrpParams | None = None,
             relevance_scale: float = 1.0) -> RelevancePair:
    """Paired pixel heatmaps for (x, prototype k).

    relevance_scale multiplies the seed relevance at the logit; heatmaps
    are linear in it.
    """
    return _pairs(student, x, [k], params, relevance_scale)[0]


def explain(student: StudentModel, x: np.ndarray, topk: int = 1,
            params: LrpParams | None = None) -> list:
    """Heatmap pairs for the top-k prototypes ranked by similarity score;
    the ranking forward is reused for every pair."""
    fwd = student.forward(np.asarray(x, dtype=np.float64)[None])
    u = u_from_record(fwd[1])[0]
    order = np.argsort(-u, kind="stable")[:topk]
    return _pairs(student, x, [int(k) for k in order], params, fwd=fwd)


def export_pair(pair: RelevancePair, basepath, scaled: bool = False) -> list:
    """Write both heatmaps as 16-bit PGM magnitude images plus JSON
    sidecars; returns the written paths.

    Magnitudes are normalized per pair by max |relevance|; with
    scaled=True the intensity is additionally multiplied by the pair's
    similarity score so weaker matches render dimmer. Each sidecar
    carries the side's conservation residual |sum(heat) - sum(r_sim)| /
    |sum(r_sim)|, or null when sum(r_sim) is 0.
    """
    import json
    import zlib
    from pathlib import Path

    from .imagefiles import write_pgm16

    basepath = Path(basepath)
    r_sim = float(np.sum(pair.r_sim))
    peak = max(np.abs(pair.heat_input).max(), np.abs(pair.heat_proto).max())
    gain = (pair.u_value if scaled else 1.0) / peak if peak > 0 else 0.0
    written = []
    for side, heat in (("input", pair.heat_input), ("proto", pair.heat_proto)):
        img = np.clip(np.abs(heat) * gain, 0.0, 1.0)
        pgm = basepath.parent / f"{basepath.name}_{side}.pgm"
        checksum = zlib.crc32(write_pgm16(pgm, img))
        sidecar = {"k": pair.prototype_index, "u_k": pair.u_value,
                   "class": pair.predicted_class,
                   "min": float(heat.min()), "max": float(heat.max()),
                   "checksum": checksum,
                   "conservation_residual":
                       abs(float(heat.sum()) - r_sim) / abs(r_sim) if r_sim else None}
        meta = basepath.parent / f"{basepath.name}_{side}.json"
        meta.write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
        written.extend([pgm, meta])
    return written
