"""The four-term training objective and the head-specific prototype
distance terms.

The distance terms are evaluated through the squared-distance expansion
||a - b||^2 = ||a||^2 + ||b||^2 - 2 a.b over normalized feature columns,
which lets them share the cosine maps the head forward pass already
produces instead of materializing per-pair difference tensors. The term
follows the record's fields (s_raw, argmax_p, cos_p), not its head kind.
`cross_entropy` on integer labels is the teacher's whole loss; the module
imports only `tensor` and `optim`, so `encoder` can call it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .optim import TrainingError
from .tensor import DimensionError, Tensor

EPS_J = 1e-6


@dataclass(frozen=True)
class LossWeights:
    lam1: float = 1.0
    lam2: float = 1.0
    lam3: float = 0.1

    def __post_init__(self):
        for name in ("lam1", "lam2", "lam3"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"loss weight {name} must be finite and nonnegative")


def cross_entropy(targets, logits) -> Tensor:
    """-sum(t * log(softmax(y))), averaged over the batch.

    Computed through log-sum-exp, so log probabilities stay finite for
    any finite logits (the role of the eps-inside-log guard) without the
    gradient saturation an additive guard would cause.

    logits are a Tensor [B, classes]; targets are an integer label array
    [B], or a probability matrix [B, classes] summing to 1 per row.
    """
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy needs logits [B, classes], got {logits.shape}")
    logp = T.log_softmax(logits, axis=-1)
    if np.issubdtype(targets.dtype, np.integer):
        picked = T.take_flat(logp, np.ravel_multi_index((np.arange(logits.shape[0]), targets),
                                                        logp.shape))
        return -T.tmean(picked)
    return -T.tmean(T.tsum(T.mul(Tensor(targets), logp), axis=-1))


def aux_mask_loss(y_pred, y_mask) -> Tensor:
    """Cross-entropy of the masked logits against the unmasked argmax,
    treated as a hard constant label."""
    return cross_entropy(np.asarray(y_pred, dtype=np.int64), y_mask)


def _same_class_masks(labels_x, labels_p) -> tuple:
    lx = np.asarray(labels_x).reshape(-1, 1)
    lp = np.asarray(labels_p).reshape(1, -1)
    same = (lx == lp).astype(np.float64)
    return same, 1.0 - same


def _signed_mean(d: Tensor, labels_x, labels_p) -> Tensor:
    """mean over pairs of d for same-class pairs and 1/(d+eps) otherwise."""
    same, diff = _same_class_masks(labels_x, labels_p)
    inv = T.div(1.0, T.add(d, EPS_J))
    return T.tmean(T.add(T.mul(d, same), T.mul(inv, diff)))


def _pair_sq_dist(nx: Tensor, np_: Tensor, cos: Tensor) -> Tensor:
    """[B] + [K] - 2*[B,K] -> [B,K] squared distances."""
    b, k = cos.shape
    return T.add(T.add(T.reshape(nx, (b, 1)), T.reshape(np_, (1, k))), T.mul(cos, -2.0))


def _gather_bk(t: Tensor, arg: np.ndarray, axis_of_t: str) -> Tensor:
    """Select per-(b,k) columns out of [B,HW] or [K,HW] using flat argmax
    indices [B,K,HW]."""
    b, k, hw = arg.shape
    width = t.shape[1]
    if axis_of_t == "p":
        flat = np.arange(k)[None, :, None] * width + arg
    else:
        flat = np.arange(b)[:, None, None] * width + arg
    return T.take_flat(t, flat)


def j_from_record(rec, labels_x, labels_p) -> Tensor:
    """Head-appropriate distance objective from a `heads.SimilarityRecord`.

    Head I (the record with s_raw) compares pooled vectors through their
    recorded cosines s_raw. Every other head averages column distances
    over input positions, each input column against its matched prototype
    column (the same position, or argmax_p where recorded); a record with
    column maxima cos_p (III-C) adds the prototype-side term over them.
    """
    if rec.s_raw is not None:
        nx = T.tsum(T.square(rec.gxh), axis=1)
        np_ = T.tsum(T.square(rec.gph), axis=1)
        return _signed_mean(_pair_sq_dist(nx, np_, rec.s_raw), labels_x, labels_p)
    b, k, hw = rec.cos.shape
    # squared column norms: 1 where the column was normalized, 0 where dead
    norms_x = T.tsum(T.square(rec.fxh), axis=1)   # [B, HW]
    norms_p = T.tsum(T.square(rec.fph), axis=1)   # [K, HW]
    np_sel = (T.reshape(norms_p, (1, k, hw)) if rec.argmax_p is None
              else _gather_bk(norms_p, rec.argmax_p, "p"))
    d_x = T.tmean(T.add(T.add(T.reshape(norms_x, (b, 1, hw)), np_sel),
                        T.mul(rec.cos, -2.0)), axis=2)
    j = _signed_mean(d_x, labels_x, labels_p)
    if rec.cos_p is None:
        return j
    nx_sel = _gather_bk(norms_x, rec.argmax_x, "x")
    d_p = T.tmean(T.add(T.add(nx_sel, T.reshape(norms_p, (1, k, hw))),
                        T.mul(rec.cos_p, -2.0)), axis=2)
    return T.add(j, _signed_mean(d_p, labels_x, labels_p))


def total_loss(y_true, y, y_teacher, y_pred, y_mask, j_value, weights: LossWeights) -> tuple:
    """Supervised CE + distillation CE + masked-output CE + distance term.

    y and y_mask are logit Tensors, y_teacher the teacher's logit array and
    j_value the distance Tensor. Returns (total Tensor, {term: float}).
    Raises TrainingError naming the first non-finite component.
    """
    with T.no_grad():
        soft = T.softmax(Tensor(y_teacher), axis=-1)
    l_sup = cross_entropy(y_true, y)
    l_dist = cross_entropy(soft.data, y)
    l_aux = aux_mask_loss(y_pred, y_mask)
    parts = {"supervised": l_sup, "distill": l_dist, "aux_mask": l_aux, "distance": j_value}
    for name, part in parts.items():
        if not np.isfinite(part.data).all():
            raise TrainingError(f"loss term '{name}' is non-finite")
    total = T.add(T.add(l_sup, T.mul(l_dist, weights.lam1)),
                  T.add(T.mul(l_aux, weights.lam2), T.mul(j_value, weights.lam3)))
    return total, {name: float(part.data) for name, part in parts.items()}
