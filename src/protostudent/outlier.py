"""Outlier scoring from prototype similarities, the max-probability
baseline, and AUC evaluation.

Every head yields per-prototype similarity scores u_k in [0,1] (given the
nonnegative encoder), read from the head record (`SimilarityRecord.u`):
Heads I and II use the classification-layer inputs z(p_k) directly; Head
III derives them from attention-weighted cosine maps. The outlier score
is one minus the mean of the top-k' scores. `student.forward` and the
teacher's `predict_logits` take each row as a one-image call does, so a
sample's scores do not depend on the batch it is scored in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .heads import StudentModel
from .replacement import ParameterError
from .tensor import Tensor


class MetricError(ValueError):
    """The metric is undefined for the given inputs."""


@dataclass
class OutlierReport:
    """Per-sample scoring record."""
    u: np.ndarray              # [K]
    o: float
    predicted_class: int
    maxprob: float


def outlier_score(u: np.ndarray, k_prime: int) -> float:
    """1 - mean of the k' largest similarity scores (class-agnostic)."""
    if not 1 <= k_prime <= len(u):
        raise ParameterError(f"k'={k_prime} out of range for K={len(u)}")
    top = np.sort(u)[::-1][:k_prime]
    return float(1.0 - top.mean())


def maxprob_score(model, images: np.ndarray, logits: np.ndarray | None = None) -> np.ndarray:
    """Negative probability of the predicted class per image of a batch
    [N,C,H,W]; higher is more anomalous. Works on any model exposing
    predict_logits, or on the model's logits for those images when given."""
    logits = model.predict_logits(images) if logits is None else logits
    with T.no_grad():
        probs = T.softmax(Tensor(logits), axis=-1).data
    return -probs.max(axis=-1)


def auc(scores, labels) -> float:
    """Probability that a random outlier outranks a random normal sample,
    ties counted one half (rank form of the Mann-Whitney statistic)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_out = int(labels.sum())
    n_norm = len(labels) - n_out
    if n_out == 0 or n_norm == 0:
        raise MetricError("AUC needs both normal and outlier samples")
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    # each tie run (NaN != NaN: one run per NaN) ranks at its mean position
    start = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    size = np.diff(np.r_[start, len(ordered)])
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat((2 * start + size + 1) / 2.0, size)
    r_out = ranks[labels].sum()
    return float((r_out - n_out * (n_out + 1) / 2.0) / (n_out * n_norm))


def score_samples(student: StudentModel, images: np.ndarray, k_prime: int,
                  batch_size: int = 128, baseline_model=None) -> list:
    """OutlierReport per image, evaluated in deterministic batches.

    The baseline max-probability score comes from baseline_model when
    given (typically the teacher, the non-prototype reference predictor),
    otherwise from the student's own logits.
    """
    reports = []
    for start in range(0, len(images), batch_size):
        chunk = images[start:start + batch_size]
        logits, rec = student.forward(chunk)
        u_all = rec.u
        base = (maxprob_score(baseline_model, chunk) if baseline_model is not None
                else maxprob_score(student, chunk, logits=logits.data))
        preds = logits.data.argmax(axis=1)
        for i in range(len(chunk)):
            reports.append(OutlierReport(u=u_all[i], o=outlier_score(u_all[i], k_prime),
                                         predicted_class=int(preds[i]),
                                         maxprob=float(base[i])))
    return reports
