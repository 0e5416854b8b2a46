"""Student training with iterative prototype replacement.

The train set S is partitioned into a prototype set P (class-balanced,
|P| = K fixed) and a working set D. Each iteration masks out the p
oldest prototypes (lowest birth stamp: 0 for the initial draw, one past
the newest for the slots a swap fills; ties by slot index) and adds a
masked-output cross-entropy to the objective; at the end of every epoch
those p prototypes are swapped against class-matched random draws from
D. Post-pruning finetuning is the same step loop with p = 0 over a fixed
prototype set. The teacher's soft labels are computed on first draw: a
row is encoded by the teacher only when a step first trains on it. Batch
order, cross-entropy and TrainingError are shared with `train_teacher`.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import losses as L
from . import tensor as T
from .encoder import TeacherModel
from .heads import HeadModel, StudentModel, head_forward, make_head
from .losses import LossWeights
from .optim import SGD, TrainingError, batches
from .tensor import DimensionError, Tensor


class ParameterError(ValueError):
    """A count or fraction argument is outside its valid range."""


class ReplacementError(RuntimeError):
    """A class-balanced swap is impossible with the current pools."""


class PruningError(RuntimeError):
    """Pruning more than K minus the class count would empty a class."""


@dataclass
class PrototypeStore:
    """Ordered prototype set with class labels, birth stamps, and cached
    feature maps."""
    ids: np.ndarray            # [K] sample ids into the source train set
    images: np.ndarray         # [K, C0, H0, W0]
    labels: np.ndarray         # [K]
    born: np.ndarray           # [K] int birth stamps, the ranking key
    features: Tensor | None = None

    def __len__(self):
        return len(self.ids)


@dataclass
class ReplacementConfig:
    p_fraction: float = 0.3
    epochs: int = 20
    iterations: int | None = None    # per epoch; None means one pass over D
    seed: int = 0
    batch_size: int = 64
    lr_head: float = 1e-3
    lr_encoder: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_step_epochs: int = 10
    lr_gamma: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.p_fraction < 1.0:
            raise ParameterError("p_fraction must be in [0, 1); 0 disables replacement")

    def p_count(self, k: int) -> int:
        p = int(round(self.p_fraction * k))
        if self.p_fraction > 0 and not 1 <= p < k:
            raise ParameterError(f"replacement count p={p} must satisfy 1 <= p < K={k}")
        return p


def lowest(born: np.ndarray, count: int) -> np.ndarray:
    """Slots of the `count` smallest entries of born, smallest first, ties
    by slot index. The one prototype ranking: the auxiliary mask, the
    swaps and `prune` all read it."""
    return np.argsort(born, kind="stable")[:count]


def masked_logits(z: Tensor, mask: np.ndarray, model: HeadModel) -> Tensor:
    """Logits of the masked prototype activations: W (mask * z) + b."""
    if mask.shape[0] != z.shape[-1]:
        raise DimensionError(f"mask length {mask.shape[0]} != prototype count {z.shape[-1]}")
    return T.linear(T.mul(z, mask), model.w, model.b)


def init_store(images: np.ndarray, labels: np.ndarray, protos_per_class: int,
               seed: int) -> tuple:
    """Class-balanced random prototype draw; returns (store, d_pools) where
    d_pools maps class -> list of remaining sample ids."""
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng([seed, 0x50])
    classes = np.unique(labels)
    proto_ids = []
    d_pools = {}
    for cls in classes:
        members = np.flatnonzero(labels == cls)
        if len(members) < protos_per_class + 1:
            raise ReplacementError(f"class {cls} has too few samples for {protos_per_class} prototypes")
        chosen = rng.choice(members, size=protos_per_class, replace=False)
        proto_ids.extend(int(i) for i in chosen)
        chosen_set = set(chosen.tolist())
        d_pools[int(cls)] = [int(i) for i in members if i not in chosen_set]
    proto_ids = np.asarray(sorted(proto_ids), dtype=np.int64)
    store = PrototypeStore(ids=proto_ids,
                           images=np.asarray(images, dtype=np.float64)[proto_ids].copy(),
                           labels=labels[proto_ids].copy(),
                           born=np.zeros(len(proto_ids), dtype=np.int64))
    return store, d_pools


def _replace_lowest(store: PrototypeStore, d_pools: dict, images, labels,
                    p: int, rng: np.random.Generator) -> list:
    """Swap the p oldest prototypes against class-matched draws from D and
    stamp the new ones; returns the swap log [(slot, out_id, in_id), ...]."""
    slots = np.sort(lowest(store.born, p))
    by_class: dict = {}
    for slot in slots:
        by_class.setdefault(int(store.labels[slot]), []).append(int(slot))
    swaps = []
    for cls in sorted(by_class):
        class_slots = by_class[cls]
        pool = d_pools[cls]
        if len(pool) < len(class_slots):
            raise ReplacementError(f"class {cls} exhausted in D; cannot keep prototype balance")
        pick_pos = rng.choice(len(pool), size=len(class_slots), replace=False)
        picks = [pool[i] for i in pick_pos]
        for slot, new_id in zip(class_slots, picks):
            old_id = int(store.ids[slot])
            swaps.append((slot, old_id, new_id))
        # D <- D \ D_rand  U  P_replace
        picked = set(pick_pos.tolist())
        kept = [sid for i, sid in enumerate(pool) if i not in picked]
        kept.extend(int(store.ids[s]) for s in class_slots)
        d_pools[cls] = kept
    for slot, _old, new_id in swaps:
        store.ids[slot] = new_id
        store.images[slot] = images[new_id]
        store.labels[slot] = labels[new_id]
    store.born[slots] = store.born.max() + 1
    return swaps


def _fit(student: StudentModel, teacher: TeacherModel, images, labels, d_pools: dict,
         epochs: int, iterations: int | None, p: int, config: ReplacementConfig,
         weights: LossWeights, rng: np.random.Generator) -> list:
    """The step loop of training and of finetuning; returns log records.

    Each epoch draws `iterations` `optim.batches` from D, the union of
    d_pools (None: one pass). With p > 0 the p oldest prototypes are masked
    in the auxiliary branch and swapped out at the epoch's end; with p = 0
    the mask keeps every prototype and the store stays fixed.
    The teacher's soft labels are computed on first draw, one no-grad
    forward over the rows of a batch not seen before, so rows that no step
    draws (prototypes, rows left out by `iterations`) are never encoded.
    """
    enc, head, store = student.encoder, student.head, student.store
    k = len(store)
    opt = SGD([{"params": enc.params, "lr": config.lr_encoder},
               {"params": head.params, "lr": config.lr_head}],
              momentum=config.momentum, weight_decay=config.weight_decay,
              step_epochs=config.lr_step_epochs, gamma=config.lr_gamma)
    teacher_logits = np.empty((len(images), teacher.class_count))
    known = np.zeros(len(images), dtype=bool)
    log_records = []
    for epoch in range(epochs):
        opt.set_epoch(epoch)
        d_ids = np.asarray(sorted(i for pool in d_pools.values() for i in pool), dtype=np.int64)
        for it, batch in enumerate(batches(d_ids, config.batch_size, iterations, rng)):
            new = batch[~known[batch]]
            if len(new):
                with T.no_grad():
                    teacher_logits[new] = teacher.forward(Tensor(images[new])).data
                known[new] = True
            xall = Tensor(np.concatenate([images[batch], store.images], axis=0))
            feats = enc.forward(xall)
            fx, fp = T.split_rows(feats, [len(batch), k])
            store.features = fp
            y, rec = head_forward(fx, store, head)
            y_pred = y.data.argmax(axis=1)
            mask = np.ones(k)
            mask[lowest(store.born, p)] = 0.0
            y_mask = masked_logits(rec.z, mask, head)
            j_val = L.j_from_record(rec, labels[batch], store.labels)
            try:
                total, parts = L.total_loss(labels[batch], y, teacher_logits[batch],
                                            y_pred, y_mask, j_val, weights)
            except TrainingError as err:
                raise TrainingError(f"{err} at epoch {epoch} iteration {it}") from err
            opt.zero_grad()
            total.backward()
            opt.step()
            head.clip_conv1d()
            log_records.append({"epoch": epoch, "iter": it, "loss": float(total.data),
                                **parts, "replaced": []})
            # free this step's graph, and the conv columns it keeps, before
            # the next step's forward
            store.features = None
            del feats, fx, fp, y, rec, y_mask, j_val, total
        if p > 0:
            swaps = _replace_lowest(store, d_pools, images, labels, p, rng)
            log_records.append({"epoch": epoch, "iter": None, "loss": None,
                                "replaced": [{"slot": int(s), "out_id": int(o), "in_id": int(n)}
                                             for s, o, n in swaps]})
    student.refresh_store_features()
    return log_records


def train_student(teacher: TeacherModel, train_data, head_kind: str,
                  config: ReplacementConfig, weights: LossWeights,
                  protos_per_class: int = 10) -> tuple:
    """Distill the teacher into a prototype head with iterative prototype
    replacement. Returns (student, store, log records)."""
    images = np.asarray(train_data[0], dtype=np.float64)
    labels = np.asarray(train_data[1], dtype=np.int64)
    classes = int(labels.max()) + 1
    store, d_pools = init_store(images, labels, protos_per_class, config.seed)
    k = len(store)
    p = config.p_count(k)
    enc = teacher.encoder.copy()
    head = make_head(head_kind, k, classes, enc.config.feature_shape()[0], seed=config.seed)
    student = StudentModel(encoder=enc, head=head, store=store, class_count=classes)
    rng = np.random.default_rng([config.seed, 0x51])
    log_records = _fit(student, teacher, images, labels, d_pools, config.epochs,
                       config.iterations, p, config, weights, rng)
    return student, store, log_records


def prune(student: StudentModel, fraction: float) -> StudentModel:
    """Drop round(fraction*K) prototypes together with their head columns
    and birth stamps: the lowest in the ranking, skipping a slot
    whose class would lose its last prototype, so every class keeps one.
    Returns an independent model ready for finetuning; the input model is
    untouched.
    """
    if not 0.0 < fraction < 1.0:
        raise ParameterError("prune fraction must be in (0, 1)")
    store = student.store
    k = len(store)
    drop = int(round(fraction * k))
    if not 1 <= drop < k:
        raise ParameterError(f"prune count {drop} must satisfy 1 <= count < K={k}")
    left = Counter(store.labels.tolist())   # prototypes per class
    if drop > k - len(left):
        raise PruningError(f"pruning {drop} of K={k} would remove an entire class")
    removed = []
    for slot in lowest(store.born, k):
        cls = int(store.labels[slot])
        if len(removed) < drop and left[cls] > 1:
            left[cls] -= 1
            removed.append(slot)
    keep = np.setdiff1d(np.arange(k), removed)
    new_store = PrototypeStore(ids=store.ids[keep].copy(),
                               images=store.images[keep].copy(),
                               labels=store.labels[keep].copy(),
                               born=store.born[keep].copy())
    new_head = HeadModel(kind=student.head.kind,
                         w=Tensor(student.head.w.data[:, keep].copy(), requires_grad=True),
                         b=Tensor(student.head.b.data.copy(), requires_grad=True),
                         conv1d_w=None if student.head.conv1d_w is None
                         else Tensor(student.head.conv1d_w.data.copy(), requires_grad=True))
    pruned = StudentModel(encoder=student.encoder.copy(), head=new_head,
                          store=new_store, class_count=student.class_count)
    pruned.refresh_store_features()
    return pruned


def finetune(student: StudentModel, teacher: TeacherModel, train_data,
             epochs: int, config: ReplacementConfig, weights: LossWeights) -> list:
    """Post-pruning finetuning: the step loop with p = 0, so prototypes
    stay fixed and parameters keep training on D = S \\ P, one pass per
    epoch."""
    images = np.asarray(train_data[0], dtype=np.float64)
    labels = np.asarray(train_data[1], dtype=np.int64)
    proto_ids = set(int(i) for i in student.store.ids)
    d_pool = [i for i in range(len(images)) if i not in proto_ids]
    rng = np.random.default_rng([config.seed, 0x52])
    return _fit(student, teacher, images, labels, {0: d_pool}, epochs, None, 0,
                config, weights, rng)
