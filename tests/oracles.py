"""Reference implementations the tests compare the package against.

The single-pair similarity operations are value-level views of the
batched head machinery in `protostudent.heads`: one (input, prototype)
pair of [C,H,W] feature maps in, plain arrays out. The all-pairs
operations are the batched head path as it stood before the matched
cosines and the III-B contraction became fused autodiff ops
(`tensor.matched_cosine`, `tensor.matched_attended`): a dense
[B,K,HW,HWp] cosine node, a diagonal gather or `tmax` on it, and a
gathered [B,K,C,HW] prototype tensor; the fused ops must reproduce their
values bit for bit. `finetune` is the post-pruning loop as it stood
before training and finetuning shared one step loop (`replacement._fit`);
the new loop must reproduce it bit for bit. `lrp_linear_eps` is the
epsilon rule through one dense layer, the rule the relevance code writes
out inline for the logit, similarity and pooling layers.
"""
from __future__ import annotations

import logging

import numpy as np

from protostudent import losses as L
from protostudent import tensor as T
from protostudent.encoder import TeacherModel
from protostudent.heads import StudentModel, head_forward
from protostudent.losses import LossWeights
from protostudent.lrp import _safe_ratio, _stab
from protostudent.optim import SGD
from protostudent.replacement import ReplacementConfig, masked_logits
from protostudent.tensor import DimensionError, Tensor

log = logging.getLogger(__name__)


def l2_normalize_channels(t, eps: float = T.EPS_NORM) -> Tensor:
    """Per-position channel normalization of a [C,H,W] or [N,C,H,W] map."""
    t = T._as_tensor(t)
    axis = 0 if t.ndim == 3 else 1
    return T.l2_normalize(t, axis=axis, eps=eps)


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


# -- the all-pairs head path before the fused ops ----------------------------

def cosine_allpairs(fxh: Tensor, fph: Tensor) -> Tensor:
    """All-pairs position cosines: [B,C,HWx] x [K,C,HWp] -> [B,K,HWx,HWp]."""
    bsz, c, hwx = fxh.shape
    k, cp, hwp = fph.shape
    if cp != c:
        raise DimensionError(f"channel mismatch: {c} vs {cp}")
    a2 = T.reshape(T.transpose(fxh, (0, 2, 1)), (bsz * hwx, c))
    b2 = T.reshape(T.transpose(fph, (1, 0, 2)), (c, k * hwp))
    m = T.matmul(a2, b2)
    m4 = T.reshape(m, (bsz, hwx, k, hwp))
    return T.transpose(m4, (0, 2, 1, 3))


def _diag_positions(allpairs: Tensor) -> Tensor:
    bsz, k, hw, hwp = allpairs.shape
    if hw != hwp:
        raise DimensionError("aligned similarity needs equal spatial grids")
    base = np.arange(bsz * k).reshape(bsz, k, 1) * (hw * hwp)
    flat = base + np.arange(hw) * (hwp + 1)
    return T.take_flat(allpairs, flat)


def matched_cosine_allpairs(fxh: Tensor, fph: Tensor, match: str) -> tuple:
    """`tensor.matched_cosine` through the dense all-pairs node."""
    allpairs = cosine_allpairs(fxh, fph)
    if match == "aligned":
        return _diag_positions(allpairs), None, None, None
    cos, arg_p = T.tmax(allpairs, axis=3)
    if match == "row":
        return cos, arg_p, None, None
    cos_p, arg_x = T.tmax(allpairs, axis=2)
    return cos, arg_p, cos_p, arg_x


def matched_attended_gather(attn: Tensor, fx_flat: Tensor, fp_flat: Tensor,
                            arg: np.ndarray) -> Tensor:
    """`tensor.matched_attended` as a `take_flat` gather of [B,K,C,HW]
    prototype columns and a three-operand einsum."""
    bsz, kk, hw = attn.shape
    c = fx_flat.shape[1]
    # flat index into fp[k,c,j]: (k*C + c)*HW + arg[b,k,i]
    base_kc = (np.arange(kk)[:, None] * c + np.arange(c)[None, :]) * hw
    flat = base_kc[None, :, :, None] + arg[:, :, None, :]
    fp_sel = T.take_flat(fp_flat, flat)
    return T.einsum("bki,bci,bkci->bkc", attn, fx_flat, fp_sel)


# -- single-pair similarity operations --------------------------------------

def _pair_setup(fx, fp):
    fx = np.asarray(fx, dtype=np.float64)
    fp = np.asarray(fp, dtype=np.float64)
    if fx.ndim != 3 or fp.ndim != 3 or fx.shape[0] != fp.shape[0]:
        raise DimensionError(f"expected [C,H,W] maps with equal channels, got {fx.shape}, {fp.shape}")
    if fx.shape[1] * fx.shape[2] == 0 or fp.shape[1] * fp.shape[2] == 0:
        raise DimensionError("empty spatial grid")
    with T.no_grad():
        fxh = l2_normalize_channels(Tensor(fx)).data
        fph = l2_normalize_channels(Tensor(fp)).data
    c = fx.shape[0]
    return fxh.reshape(c, -1), fph.reshape(c, -1)


def sim_I(gx, gp) -> float:
    """Cosine similarity of two pooled feature vectors; 0 for zero norms."""
    gx = np.asarray(gx, dtype=np.float64)
    gp = np.asarray(gp, dtype=np.float64)
    nx, npr = np.linalg.norm(gx), np.linalg.norm(gp)
    if nx <= T.EPS_NORM or npr <= T.EPS_NORM:
        log.debug("sim_I: zero-norm operand, similarity forced to 0")
        return 0.0
    return float(gx @ gp / (nx * npr))


def sim_IIA(fx, fp) -> np.ndarray:
    """Aligned-position cosine map, shape [H,W].

    Computed as the diagonal of the same all-pairs matrix the max variant
    reduces, so the dominance relation between the two is exact.
    """
    fxh, fph = _pair_setup(fx, fp)
    if fxh.shape != fph.shape:
        raise DimensionError("II-A needs matching spatial extents")
    h, w = np.asarray(fx).shape[1:]
    allp = fxh.T @ fph
    return np.diagonal(allp).copy().reshape(h, w)


def sim_IIB(fx, fp) -> tuple:
    """Max cosine over prototype positions per input position.

    Returns (map [H,W], argmax [H,W,2]) with row-major first-index ties.
    """
    fxh, fph = _pair_setup(fx, fp)
    allp = fxh.T @ fph  # [HWx, HWp]
    arg = allp.argmax(axis=1)
    smap = np.take_along_axis(allp, arg[:, None], axis=1)[:, 0]
    h, w = np.asarray(fx).shape[1:]
    hp, wp = np.asarray(fp).shape[1:]
    pairs = np.stack(np.unravel_index(arg, (hp, wp)), axis=-1).reshape(h, w, 2)
    return smap.reshape(h, w), pairs


def attention(s) -> np.ndarray:
    """Softmax over all spatial positions of a similarity map."""
    s = np.asarray(s, dtype=np.float64)
    e = np.exp(s - s.max())
    return e / e.sum()


def sim_IIIA(fx, fp, a) -> np.ndarray:
    """Attention-weighted per-channel products at aligned positions."""
    fx = np.asarray(fx, dtype=np.float64)
    fp = np.asarray(fp, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if fx.shape != fp.shape or a.shape != fx.shape[1:]:
        raise DimensionError("III-A shape mismatch")
    return np.einsum("hw,chw,chw->c", a, fx, fp)


def sim_IIIB(fx, fp, a, argmax) -> np.ndarray:
    """As III-A but the prototype factor is taken at the recorded best
    match position for each input position."""
    fx = np.asarray(fx, dtype=np.float64)
    fp = np.asarray(fp, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    idx = np.asarray(argmax)
    if fx.shape[0] != fp.shape[0] or a.shape != fx.shape[1:]:
        raise DimensionError("III-B shape mismatch")
    fp_sel = fp[:, idx[..., 0], idx[..., 1]]  # [C,H,W]
    return np.einsum("hw,chw,chw->c", a, fx, fp_sel)


def attn_IIIC(fx, fp) -> np.ndarray:
    """Prototype-side attention map: softmax over prototype positions of
    the max cosine against any input position."""
    fxh, fph = _pair_setup(fx, fp)
    allp = fxh.T @ fph
    col_max = allp.max(axis=0)
    hp, wp = np.asarray(fp).shape[1:]
    return attention(col_max.reshape(hp, wp))


def sim_IIIC(fx, fp, a_b, a_c) -> np.ndarray:
    """Doubly attention-weighted products at aligned positions."""
    fx = np.asarray(fx, dtype=np.float64)
    fp = np.asarray(fp, dtype=np.float64)
    if fx.shape != fp.shape:
        raise DimensionError("III-C needs matching feature shapes")
    joint = np.asarray(a_b, dtype=np.float64) * np.asarray(a_c, dtype=np.float64)
    return np.einsum("hw,chw,chw->c", joint, fx, fp)


# -- the finetuning loop before the shared step loop -----------------------

def finetune(student: StudentModel, teacher: TeacherModel, train_data,
             epochs: int, config: ReplacementConfig, weights: LossWeights) -> list:
    """Post-pruning finetuning: the replacement/masking machinery is off,
    prototypes stay fixed, parameters keep training on D = S \\ P."""
    images = np.asarray(train_data[0], dtype=np.float64)
    labels = np.asarray(train_data[1], dtype=np.int64)
    store = student.store
    k = len(store)
    proto_ids = set(int(i) for i in store.ids)
    d_ids = np.asarray([i for i in range(len(images)) if i not in proto_ids], dtype=np.int64)
    opt = SGD([{"params": student.encoder.params, "lr": config.lr_encoder},
               {"params": student.head.params + [store.m_weights], "lr": config.lr_head}],
              momentum=config.momentum, weight_decay=config.weight_decay,
              step_epochs=config.lr_step_epochs, gamma=config.lr_gamma)
    with T.no_grad():
        teacher_logits = teacher.forward(Tensor(images)).data
    rng = np.random.default_rng([config.seed, 0x52])
    records = []
    for epoch in range(epochs):
        opt.set_epoch(epoch)
        order = rng.permutation(len(d_ids))
        for it in range((len(d_ids) + config.batch_size - 1) // config.batch_size):
            batch = d_ids[order[it * config.batch_size:(it + 1) * config.batch_size]]
            if len(batch) == 0:
                continue
            xall = Tensor(np.concatenate([images[batch], store.images], axis=0))
            feats = student.encoder.forward(xall)
            fx, fp = T.split_rows(feats, [len(batch), k])
            store.features = fp
            y, rec = head_forward(fx, store, student.head)
            y_mask = masked_logits(rec.z, np.ones(k), student.head)
            j_val = L.j_from_record(rec, labels[batch], store.labels)
            total, parts = L.total_loss(labels[batch], y, teacher_logits[batch],
                                        y.data.argmax(axis=1), y_mask, j_val, weights)
            opt.zero_grad()
            total.backward()
            opt.step()
            student.head.clip_conv1d()
            records.append({"epoch": epoch, "iter": it, "loss": float(total.data), **parts,
                            "tau": None, "replaced": []})
    student.refresh_store_features()
    return records
