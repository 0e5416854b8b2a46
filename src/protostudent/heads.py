"""Similarity head architectures mapping (input features, prototype
features) to class logits.

Six kinds are supported:

  I      cosine between spatially pooled feature vectors
  II-A   per-position cosine map between normalized feature columns
  II-B   per-position max cosine over all prototype positions
  III-A  attention-weighted channel products, attention from the II-A map
  III-B  as III-A but pairing each input position with its best-matching
         prototype position (attention from the II-B map)
  III-C  separate attention maps for input and prototype, multiplied

Every spatial head gets its matched cosine map from one autodiff op,
`tensor.matched_cosine`: the cosines at the aligned positions (-A) come
from one product per position, those at each input position's best
prototype position (-B) or at both row and column maxima (III-C) from
one GEMM of all position pairs. II-A's cosine at a position therefore
sums in another order than II-B's entry for the same pair, so II-B
dominates II-A to within a few ulp; the single-pair oracles in the tests
read both from one matrix and hold it exactly. The three Head III kinds
get z from one op, `tensor.attended_score`, and differ only in its
position weights (the input attention, times the prototype attention
for III-C) and in whether the prototype side is read at the matched
positions (III-B) or the aligned ones.

`StudentModel.forward` is the one inference forward, with rows that do
not depend on the batch. Its record's `u` gives the similarity scores
that both rank the prototypes explaining a prediction and score outliers.
Only this module decides what a head kind computes: other modules read
the record's fields or compare with `make_head`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import Encoder
from .tensor import Tensor

HEAD_KINDS = ("I", "II-A", "II-B", "III-A", "III-B", "III-C")

# which prototype position each spatial head pairs an input position with
_MATCH = {"II-A": "aligned", "II-B": "row", "III-A": "aligned", "III-B": "row",
          "III-C": "row+col"}


class ConfigurationError(ValueError):
    """Head kind and supplied features or parameters do not match."""


@dataclass
class HeadModel:
    """Learnable head parameters: per-(class, prototype) linear weights,
    class biases, and for Head III a shared nonnegative channel kernel."""
    kind: str
    w: Tensor                 # [class_count, K]
    b: Tensor                 # [class_count]
    conv1d_w: Tensor | None   # [C], elementwise >= 0, Head III only

    @property
    def params(self) -> list:
        ps = [self.w, self.b]
        if self.conv1d_w is not None:
            ps.append(self.conv1d_w)
        return ps

    def clip_conv1d(self):
        """Project the channel kernel back onto the nonnegative orthant;
        called after every optimizer step."""
        if self.conv1d_w is not None:
            np.maximum(self.conv1d_w.data, 0.0, out=self.conv1d_w.data)


def make_head(kind: str, k: int, class_count: int, channels: int, seed: int = 0) -> HeadModel:
    if kind not in HEAD_KINDS:
        raise ConfigurationError(f"unknown head kind {kind!r}")
    rng = np.random.default_rng([seed, 0x4D])
    # zero-init the classification layer: logits start scale-free no matter
    # how large the attended products are, and prototype asymmetry comes
    # from the z values themselves
    w = Tensor(np.zeros((class_count, k)), requires_grad=True)
    b = Tensor(np.zeros(class_count), requires_grad=True)
    conv1d_w = None
    if kind.startswith("III"):
        conv1d_w = Tensor(rng.uniform(0.0, 2.0 / channels, size=channels), requires_grad=True)
    return HeadModel(kind=kind, w=w, b=b, conv1d_w=conv1d_w)


@dataclass
class SimilarityRecord:
    """Intermediates of one head forward pass, kept for the losses, the
    relevance propagation, and the outlier scores.

    Batched over inputs (B) and prototypes (K); spatial grids are stored
    flattened (HW). The cosine fields and argmax arrays are the outputs of
    `tensor.matched_cosine`. Argmax arrays hold flat positions, first
    index on ties, and are constants with respect to the graph. Head III's
    attended vector over channels is not recorded: `tensor.attended_score`
    gives z without it, and the relevance code rebuilds it per pair from
    weights, z_argmax_p, fx_raw and fp_raw. s_raw is set for Head I only,
    weights for Head III only.
    """
    kind: str
    hw_shape: tuple
    z: Tensor                          # [B, K] similarity scores the logits are linear in
    s_raw: Tensor | None = None        # [B, K] Head I cosine before ReLU
    gxh: Tensor | None = None          # [B, C] normalized pooled input features
    gph: Tensor | None = None          # [K, C]
    cos: Tensor | None = None          # [B, K, HW] matched cosine per input position:
                                       # aligned (-A), row max (-B, III-C)
    cos_p: Tensor | None = None        # [B, K, HW] column max per prototype position (III-C)
    argmax_p: np.ndarray | None = None  # [B, K, HW] best prototype position per input
                                        # position (-B, III-C; None when aligned)
    argmax_x: np.ndarray | None = None  # [B, K, HW] best input position per prototype position (III-C)
    attn: Tensor | None = None         # [B, K, HW] attention over input positions (III)
    attn_p: Tensor | None = None       # [B, K, HW] attention over prototype positions (III-C)
    weights: Tensor | None = None      # [B, K, HW] position weights of z: attn (III-A/B),
                                       # attn * attn_p (III-C)
    z_argmax_p: np.ndarray | None = None  # argmax_p where z reads it (II-B, III-B)
    fxh: Tensor | None = None          # [B, C, HW] normalized input features
    fph: Tensor | None = None          # [K, C, HW]
    fx_raw: Tensor | None = None       # [B, C, HW]
    fp_raw: Tensor | None = None       # [K, C, HW]

    @property
    def u(self) -> np.ndarray:
        """Per-prototype similarity scores [B, K], in [0, 1] for nonnegative
        features: z where no position weights were recorded (Heads I, II),
        else the weighted cosine map weights * cos averaged over positions
        (III-A/B, weights = attn), or, with prototype attention (III-C,
        weights = attn * attn_p), at its spatial max."""
        if self.weights is None:
            return self.z.data
        weighted = self.weights.data * self.cos.data
        return weighted.mean(axis=2) if self.attn_p is None else weighted.max(axis=2)


def _flatten_spatial(t: Tensor) -> Tensor:
    n, c, h, w = t.shape
    return T.reshape(t, (n, c, h * w))


def head_forward(x_features: Tensor, store, model: HeadModel) -> tuple:
    """Run one head over a batch of feature maps against every prototype.

    Returns (logits [B, class_count], SimilarityRecord). x_features is a
    batch [B,C,H,W]; prototype features [K,C,H,W] come from store.features.
    """
    fx, fp = x_features, store.features
    if fx.shape[1:] != fp.shape[1:]:
        raise ConfigurationError(f"feature shape mismatch: input {fx.shape[1:]}, prototypes {fp.shape[1:]}")
    k = fp.shape[0]
    if model.w.shape[1] != k:
        raise ConfigurationError(f"head expects {model.w.shape[1]} prototypes, store has {k}")
    kind = model.kind
    if kind not in HEAD_KINDS:
        raise ConfigurationError(f"unknown head kind {kind!r}")
    if kind.startswith("III") and model.conv1d_w is None:
        raise ConfigurationError("Head III requires conv1d channel weights")
    if kind.startswith("III") and model.conv1d_w.shape[0] != fx.shape[1]:
        raise ConfigurationError("conv1d kernel length must equal feature channel count")
    hw_shape = fx.shape[2:]

    if kind == "I":
        gx = T.avgpool_spatial(fx)
        gp = T.avgpool_spatial(fp)
        gxh = T.l2_normalize(gx, axis=1)
        gph = T.l2_normalize(gp, axis=1)
        s_raw = T.matmul(gxh, T.transpose(gph, (1, 0)))  # [B, K]
        z = T.relu(s_raw)
        rec = SimilarityRecord(kind=kind, hw_shape=hw_shape, z=z, s_raw=s_raw, gxh=gxh, gph=gph)
        return T.linear(z, model.w, model.b), rec

    fx_flat = _flatten_spatial(fx)
    fp_flat = _flatten_spatial(fp)
    fxh = T.l2_normalize(fx_flat, axis=1)
    fph = T.l2_normalize(fp_flat, axis=1)
    rec = SimilarityRecord(kind=kind, hw_shape=hw_shape, z=None,
                           fxh=fxh, fph=fph, fx_raw=fx_flat, fp_raw=fp_flat)
    rec.cos, rec.argmax_p, rec.cos_p, rec.argmax_x = T.matched_cosine(fxh, fph, _MATCH[kind])
    if kind in ("II-A", "II-B"):
        rec.z_argmax_p = rec.argmax_p
        rec.z = T.tmean(rec.cos, axis=2)
        return T.linear(rec.z, model.w, model.b), rec

    rec.attn = rec.weights = T.softmax(rec.cos, axis=2)
    if kind == "III-C":
        rec.attn_p = T.softmax(rec.cos_p, axis=2)
        rec.weights = T.mul(rec.attn, rec.attn_p)
    else:
        rec.z_argmax_p = rec.argmax_p
    rec.z = T.attended_score(rec.weights, fx_flat, fp_flat, model.conv1d_w, rec.z_argmax_p)
    return T.linear(rec.z, model.w, model.b), rec


# -- the assembled student ---------------------------------------------------

@dataclass
class StudentModel:
    """Encoder plus head plus the prototype store the head indexes into."""
    encoder: Encoder
    head: HeadModel
    store: object
    class_count: int

    def refresh_store_features(self):
        """Recompute prototype feature maps through the current encoder."""
        with T.no_grad():
            self.store.features = self.encoder.forward(Tensor(self.store.images))

    def forward(self, images: np.ndarray) -> tuple:
        """(logits, record) for a batch of raw images, without a graph: the
        one inference forward. The products that reduce one image's row
        (Head I's pooled cosines, the logits) are one-row products
        (`tensor.rows`); the rest of the forward is the same per row
        either way. So every row of the logits and of the record equals a
        one-image call, whichever images share the batch."""
        with T.no_grad():
            fx = self.encoder.forward(Tensor(np.asarray(images, dtype=np.float64)))
            _, rec = head_forward(fx, self.store, self.head)
        if rec.kind == "I":
            rec.s_raw = Tensor(T.rows(rec.gxh.data, rec.gph.data.T))
            rec.z = Tensor(np.maximum(rec.s_raw.data, 0.0))
        return Tensor(T.rows(rec.z.data, self.head.w.data.T) + self.head.b.data), rec

    def predict_logits(self, images: np.ndarray) -> np.ndarray:
        return self.forward(images)[0].data

    def accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        preds = self.predict_logits(images).argmax(axis=1)
        return float((preds == np.asarray(labels)).mean())
