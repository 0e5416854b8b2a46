"""Reference implementations the tests compare the package against.

The single-pair similarity operations are value-level views of the
batched head machinery in `protostudent.heads`: one (input, prototype)
pair of [C,H,W] feature maps in, plain arrays out. The all-pairs
operations are the batched head path as it stood before the matched
cosines and the Head III score became fused autodiff ops
(`tensor.matched_cosine`, `tensor.attended_score`): a dense
[B,K,HW,HWp] cosine node, a diagonal gather or `tmax` on it, and a
gathered [B,K,C,HW] prototype tensor for the III-B attended vector. The
matched cosines must reproduce them bit for bit (the aligned ones, which
sum in another order, to 1e-14), the score to 1e-12. `finetune` is the
post-pruning loop as it stood before training and finetuning shared one
step loop (`replacement._fit`); the new loop must reproduce it bit for
bit. `train_teacher` is the teacher loop as it stood before it took its
batch order from `optim.batches` and its loss from
`losses.cross_entropy`: its own permutation slicer and an inline
integer-label cross-entropy; `encoder.train_teacher` must reproduce its
parameters and training accuracy bit for bit. `ImportanceWeights` is the
importance vector the prototype ranking read before birth stamps; with weight decay on, the stamps must pick the
same slots at every mask, swap and prune. `lrp_linear_eps` is the epsilon rule through one dense layer, the
rule the relevance code writes out inline for the logit, similarity and
pooling layers. `grad_check` is the central-difference reference every
reverse-mode gradient is checked against (`EvaluationError` when the
function value is non-finite), and `encode` the graph-free
encoder forward the tests take feature maps from. `conv2d_param_grads`
is the conv kernel and bias gradient as it stood before `T.conv2d` kept
its forward's im2col columns: each tile's columns gathered again in the
backward; the kept columns must reproduce it bit for bit. `auc_tie_walk`
is the AUC as it stood before its tie ranks became one vector pass: a
loop that walks each run of equal sorted scores; `outlier.auc` must
reproduce it bit for bit, NaN scores included. `rgb_to_hsv_branches`
and `hsv_to_rgb_choose` are the color conversions as they stood before
the generators were vectorized: a `np.where` per hue branch and a
`np.choose` per channel; `datasets.rgb_to_hsv` and `hsv_to_rgb` must
reproduce them bit for bit, for float32 and non-finite input too.
"""
from __future__ import annotations

import logging

import numpy as np

from protostudent import losses as L
from protostudent import tensor as T
from protostudent.encoder import EncoderConfig, TeacherModel, TrainingError, make_teacher
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


def encode(encoder, images) -> np.ndarray:
    """Feature maps of a batch [N,C0,H0,W0], without a graph."""
    with T.no_grad():
        return encoder.forward(Tensor(np.asarray(images, dtype=np.float64))).data


def conv2d_param_grads(x: np.ndarray, kernel: np.ndarray, g: np.ndarray,
                       stride: int, pad: int) -> tuple:
    """(kernel, bias) gradients of T.conv2d on a batch x [N,C,H,W] for an
    output gradient g, gathering each tile's im2col columns again, with
    the tiles T.conv2d cuts under the current T._TILE_BYTES."""
    n, c, h, w = x.shape
    f, _, kh, kw = kernel.shape
    idx, hp, wp, _, _ = T._im2col_plan(c, h, w, kh, kw, stride, pad)
    m, l = idx.shape
    tile = max(1, min(n, T._TILE_BYTES // (m * l * 8)))
    g2 = g.reshape(n, f, l)
    xp = np.zeros((tile, c, hp, wp))
    cols = np.empty((tile, m, l))
    dk = np.zeros((f, m))
    for s in range(0, n, tile):
        e = min(n, s + tile)
        xp[:e - s, :, pad:pad + h, pad:pad + w] = x[s:e]
        np.take(xp[:e - s].reshape(e - s, -1), idx, axis=1, out=cols[:e - s], mode="clip")
        dk += np.matmul(g2[s:e], cols[:e - s].transpose(0, 2, 1)).sum(axis=0)
    return dk.reshape(kernel.shape), g2.sum(axis=(0, 2))


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
    """The III-B attended vector [B,K,C] as a `take_flat` gather of
    [B,K,C,HW] prototype columns and a three-operand einsum."""
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
               {"params": student.head.params, "lr": config.lr_head}],
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
                            "replaced": []})
    student.refresh_store_features()
    return records


def _iter_batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def train_teacher(data, epochs: int, lr: float = 0.05, seed: int = 0,
                  batch_size: int = 64, config: EncoderConfig | None = None,
                  val_data=None) -> TeacherModel:
    """Fit a teacher classifier on (images, labels) with momentum SGD.

    Deterministic for a fixed seed: init, shuffling, and accumulation
    order are all derived from it.
    """
    images = np.asarray(data[0], dtype=np.float64)
    labels = np.asarray(data[1], dtype=np.int64)
    classes = int(labels.max()) + 1 if labels.size else 0
    if classes < 2:
        raise TrainingError("teacher training needs at least 2 classes")
    if config is None:
        config = EncoderConfig(in_channels=images.shape[1],
                               input_size=images.shape[2:])
    teacher = make_teacher(config, classes, seed=seed)
    opt = SGD([{"params": teacher.params, "lr": lr}])
    rng = np.random.default_rng([seed, 0x7E])
    step = 0
    for epoch in range(epochs):
        for batch in _iter_batches(len(images), batch_size, rng):
            xb = Tensor(images[batch])
            logits = teacher.forward(xb)
            logp = T.log_softmax(logits, axis=1)
            picked = T.take_flat(logp, np.ravel_multi_index(
                (np.arange(len(batch)), labels[batch]), logp.shape))
            loss = -T.tmean(picked)
            if not np.isfinite(loss.data):
                raise TrainingError(f"teacher loss became non-finite at step {step}")
            opt.zero_grad()
            loss.backward()
            opt.step()
            del logits, logp, picked, loss   # free the step's graph before the next forward
            step += 1
    teacher.train_accuracy = teacher.accuracy(images, labels)
    if val_data is not None:
        teacher.val_accuracy = teacher.accuracy(np.asarray(val_data[0], dtype=np.float64),
                                                np.asarray(val_data[1]))
    return teacher


# -- the importance vector before birth stamps -------------------------------

class ImportanceWeights:
    """The importance vector m the step loop ranked prototypes by before
    the birth stamps (`PrototypeStore.born`), as a standalone recurrence.

    m starts at 1.0 in every slot and gets no gradient: each step applies
    SGD's momentum and weight-decay update at the head's scheduled rate,
    and a swap resets a slot to 1.0 with zero velocity.
    """

    def __init__(self, k: int, config: ReplacementConfig):
        self.config = config
        self.m = np.ones(k)
        self.velocity = np.zeros(k)

    def step(self, epoch: int):
        c = self.config
        scale = c.lr_gamma ** (epoch // c.lr_step_epochs) if c.lr_step_epochs > 0 else 1.0
        self.velocity *= c.momentum
        self.velocity += c.weight_decay * self.m
        self.m -= c.lr_head * scale * self.velocity

    def swap(self, slots):
        self.m[slots] = 1.0
        self.velocity[slots] = 0.0


# -- the AUC before vectorized tie ranks --------------------------------------

def auc_tie_walk(scores, labels) -> float:
    """Mann-Whitney AUC whose tie ranks come from a loop over the runs of
    equal sorted scores (a NaN equals nothing, so it is a run of its own)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_out = int(labels.sum())
    n_norm = len(labels) - n_out
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    rank_pos = 1.0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (rank_pos + (rank_pos + (j - i))) / 2.0
        rank_pos += j - i + 1
        i = j + 1
    r_out = ranks[labels].sum()
    return float((r_out - n_out * (n_out + 1) / 2.0) / (n_out * n_norm))


# -- the color conversions before the generators were vectorized --------------

def rgb_to_hsv_branches(img: np.ndarray) -> np.ndarray:
    """RGB -> HSV on a [3,H,W] array, one `np.where` per hue branch."""
    r, g, b = img[0], img[1], img[2]
    maxc = np.max(img, axis=0)
    minc = np.min(img, axis=0)
    delta = maxc - minc
    s = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)
    safe = np.where(delta > 0, delta, 1.0)
    rmax = (maxc == r) & (delta > 0)
    gmax = (maxc == g) & (delta > 0) & ~rmax
    bmax = (delta > 0) & ~rmax & ~gmax
    h = np.zeros_like(maxc)
    h = np.where(rmax, ((g - b) / safe) % 6.0, h)
    h = np.where(gmax, (b - r) / safe + 2.0, h)
    h = np.where(bmax, (r - g) / safe + 4.0, h)
    return np.stack([h / 6.0, s, maxc])


def hsv_to_rgb_choose(hsv: np.ndarray) -> np.ndarray:
    """HSV -> RGB on a [3,H,W] array, one `np.choose` per channel."""
    h, s, v = hsv[0] % 1.0, hsv[1], hsv[2]
    h6 = h * 6.0
    i = np.floor(h6).astype(np.int64) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    return np.stack([np.choose(i, [v, q, p, p, t, v]), np.choose(i, [t, v, v, q, p, p]),
                     np.choose(i, [p, p, t, v, v, q])])


class EvaluationError(RuntimeError):
    """A numeric evaluation produced a non-finite value."""


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
