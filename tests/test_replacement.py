"""Masking, swap bookkeeping, training-loop invariants, and pruning."""
import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from protostudent import losses as L
from protostudent import replacement as R
from protostudent import tensor as T
from protostudent.encoder import Encoder, EncoderConfig, TeacherModel, train_teacher
from protostudent.heads import head_forward
from protostudent.losses import LossWeights
from protostudent.optim import SGD
from protostudent.replacement import (ParameterError, PruningError,
                                      ReplacementConfig, ReplacementError,
                                      finetune, init_store, lowest,
                                      masked_logits, prune, train_student)
from protostudent.tensor import Tensor

from conftest import micro_student


def threshold(m, p):
    """The p-th smallest entry of m: the last slot of the ranking."""
    return m[lowest(m, p)[-1]]


def binary_mask(m, p):
    """The auxiliary mask as the step loop builds it: the p lowest-ranked
    slots are 0, every other slot is 1."""
    mask = np.ones(len(m))
    mask[lowest(m, p)] = 0.0
    return mask


class TestThreshold:
    def test_pth_smallest(self):
        assert threshold(np.array([0.9, 0.1, 0.5, 0.2]), 2) == pytest.approx(0.2)

    def test_p_equals_k_gives_max(self):
        m = np.array([0.3, 0.9, 0.1])
        assert threshold(m, 3) == pytest.approx(0.9)

    def test_all_equal_degenerate(self):
        assert threshold(np.full(5, 0.7), 3) == pytest.approx(0.7)


class TestBinaryMask:
    def test_hand_case(self):
        m = np.array([0.9, 0.1, 0.5, 0.2])
        np.testing.assert_array_equal(binary_mask(m, 2), [1, 0, 1, 0])

    def test_tie_broken_by_lowest_index(self):
        m = np.array([0.3, 0.3, 0.7])
        np.testing.assert_array_equal(binary_mask(m, 1), [0, 1, 1])

    def test_p_is_k_minus_one_leaves_argmax(self):
        m = np.array([0.5, 2.0, 1.0, 0.7])
        mask = binary_mask(m, 3)
        np.testing.assert_array_equal(mask, [0, 1, 0, 0])

    def test_exactly_p_zeros_1000_random_with_ties(self):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            k = int(rng.integers(2, 12))
            # quantize to force frequent ties
            m = np.round(rng.random(k) * 4) / 4
            p = int(rng.integers(1, k + 1))
            mask = binary_mask(m, p)
            assert int((mask == 0).sum()) == p
            assert set(np.unique(mask)).issubset({0.0, 1.0})
            # every kept entry is >= every zeroed entry
            if p < k:
                assert m[mask == 1].min() >= m[mask == 0].max() - 1e-15


class TestMaskedLogits:
    def test_all_ones_identity(self):
        student = micro_student("I", seed=0)
        rng = np.random.default_rng(1)
        z = rng.random((3, 4))
        w, b = student.head.w.data, student.head.b.data
        got = masked_logits(Tensor(z), np.ones(4), student.head)
        np.testing.assert_allclose(got.data, z @ w.T + b, atol=1e-12)

    def test_all_zeros_bias_only(self):
        student = micro_student("I", seed=2)
        z = np.random.default_rng(3).random((2, 4))
        got = masked_logits(Tensor(z), np.zeros(4), student.head)
        np.testing.assert_allclose(got.data, np.tile(student.head.b.data, (2, 1)))

    def test_single_survivor_column(self):
        student = micro_student("I", seed=4)
        z = np.random.default_rng(5).random((1, 4))
        mask = np.array([0.0, 0.0, 1.0, 0.0])
        got = masked_logits(Tensor(z), mask, student.head)
        want = student.head.w.data[:, 2] * z[0, 2] + student.head.b.data
        np.testing.assert_allclose(got.data[0], want, atol=1e-12)


def shapes_data(n_per_class=24, classes=3, seed=0, size=8):
    rng = np.random.default_rng(seed)
    imgs, labs = [], []
    for c in range(classes):
        base = np.zeros((3, size, size))
        base[c % 3] = 0.8
        for _ in range(n_per_class):
            imgs.append(np.clip(base + rng.normal(0, 0.1, base.shape), 0, 1))
            labs.append(c)
    return np.asarray(imgs), np.asarray(labs, dtype=np.int64)


SMALL = EncoderConfig(in_channels=3, blocks=((4, 3, 2), (8, 3, 2)), input_size=(8, 8))


@pytest.fixture(scope="module")
def tiny_teacher():
    imgs, labs = shapes_data()
    return train_teacher((imgs, labs), epochs=6, lr=0.05, seed=0,
                         batch_size=16, config=SMALL), imgs, labs


@pytest.fixture(scope="module")
def full_soft_labels(tiny_teacher):
    """The teacher's logits for the whole train set in one forward."""
    teacher, imgs, _ = tiny_teacher
    return teacher.predict_logits(imgs)


@pytest.fixture
def teacher_spy(monkeypatch):
    """Records every `TeacherModel.forward` as (epoch, input rows, logits);
    the epoch counts `_replace_lowest` calls made so far."""
    calls = []
    epoch = [0]
    forward, replace = TeacherModel.forward, R._replace_lowest

    def spy_forward(self, x):
        out = forward(self, x)
        calls.append((epoch[0], x.data.copy(), out.data.copy()))
        return out

    def spy_replace(*args, **kwargs):
        epoch[0] += 1
        return replace(*args, **kwargs)

    monkeypatch.setattr(TeacherModel, "forward", spy_forward)
    monkeypatch.setattr(R, "_replace_lowest", spy_replace)
    return calls


def row_ids(imgs, rows):
    """Train-set index of each image row (the shapes images are distinct)."""
    index = {img.tobytes(): i for i, img in enumerate(imgs)}
    return [index[row.tobytes()] for row in rows]


class TestSoftLabelsOnFirstDraw:
    def test_one_step_encodes_one_batch(self, tiny_teacher, teacher_spy):
        teacher, imgs, labs = tiny_teacher
        cfg = ReplacementConfig(p_fraction=0.34, epochs=1, iterations=1, seed=1, batch_size=16)
        train_student(teacher, (imgs, labs), "I", cfg, LossWeights(), protos_per_class=2)
        assert [len(rows) for _, rows, _ in teacher_spy] == [16]

    def test_rows_encoded_once_and_never_as_prototypes(self, tiny_teacher, teacher_spy):
        """Over four epochs with swaps the teacher encodes exactly the rows
        that were in D in some epoch, each once, and none while it was a
        prototype."""
        teacher, imgs, labs = tiny_teacher
        cfg = ReplacementConfig(p_fraction=0.34, epochs=4, seed=3, batch_size=16)
        _, _, log = train_student(teacher, (imgs, labs), "I", cfg, LossWeights(),
                                  protos_per_class=2)
        protos = [set(int(i) for i in init_store(imgs, labs, 2, 3)[0].ids)]
        for record in log:
            if record.get("replaced"):
                swapped = set(protos[-1])
                for swap in record["replaced"]:
                    swapped.remove(swap["out_id"])
                    swapped.add(swap["in_id"])
                protos.append(swapped)
        encoded = []
        for epoch, rows, _ in teacher_spy:
            ids = row_ids(imgs, rows)
            assert not set(ids) & protos[epoch]
            encoded.extend(ids)
        assert len(encoded) == len(set(encoded))
        assert set(encoded) == set(range(len(imgs))) - set.intersection(*protos[:4])
        assert [len(rows) for e, rows, _ in teacher_spy if e == 0] == [16, 16, 16, 16, 2]

    def test_soft_labels_match_full_set_forward(self, tiny_teacher, full_soft_labels,
                                                teacher_spy, monkeypatch):
        """Each row the teacher returned, and each soft-label row a step's
        loss reads, equals that row of one whole-set teacher forward."""
        teacher, imgs, labs = tiny_teacher
        k = 6  # 3 classes x 2 prototypes
        step_ids, soft_rows = [], []
        enc_forward, total_loss = Encoder.forward, L.total_loss

        def spy_encoder(self, x):
            if self is not teacher.encoder and len(x.data) > k:  # not the store refresh
                step_ids.append(row_ids(imgs, x.data[:-k]))
            return enc_forward(self, x)

        def spy_loss(labels, y, y_teacher, *args):
            soft_rows.append(np.array(y_teacher, copy=True))
            return total_loss(labels, y, y_teacher, *args)

        monkeypatch.setattr(Encoder, "forward", spy_encoder)
        monkeypatch.setattr(L, "total_loss", spy_loss)
        cfg = ReplacementConfig(p_fraction=0.34, epochs=3, seed=2, batch_size=16)
        train_student(teacher, (imgs, labs), "III-B", cfg, LossWeights(), protos_per_class=2)
        for _, rows, logits in teacher_spy:
            np.testing.assert_allclose(logits, full_soft_labels[row_ids(imgs, rows)],
                                       rtol=0, atol=1e-12)
        assert len(step_ids) == len(soft_rows) == 3 * 5
        for ids, soft in zip(step_ids, soft_rows):
            np.testing.assert_allclose(soft, full_soft_labels[ids], rtol=0, atol=1e-12)

    def test_finetune_encodes_each_d_row_once(self, tiny_teacher, full_soft_labels,
                                              teacher_spy):
        teacher, imgs, labs = tiny_teacher
        cfg = ReplacementConfig(p_fraction=0.25, epochs=1, seed=4, batch_size=16)
        student, _, _ = train_student(teacher, (imgs, labs), "II-B", cfg, LossWeights(),
                                      protos_per_class=4)
        pruned = prune(student, 0.25)
        teacher_spy.clear()
        finetune(pruned, teacher, (imgs, labs), 3, cfg, LossWeights())
        encoded = [i for _, rows, _ in teacher_spy for i in row_ids(imgs, rows)]
        assert sorted(encoded) == sorted(set(range(len(imgs))) - set(pruned.store.ids.tolist()))
        for _, rows, logits in teacher_spy:
            np.testing.assert_allclose(logits, full_soft_labels[row_ids(imgs, rows)],
                                       rtol=0, atol=1e-12)


class TestSwapBookkeeping:
    def test_pools_are_members_minus_prototypes(self):
        imgs, labs = shapes_data()
        store, pools = init_store(imgs, labs, 2, 11)
        assert store.ids.tolist() == [3, 21, 34, 35, 56, 66]
        for cls, pool in pools.items():
            members = np.flatnonzero(labs == cls).tolist()
            assert pool == [i for i in members if i not in store.ids.tolist()]

    def test_swap_log_fixed_seed(self, tiny_teacher):
        """Slots, drawn ids and the pool order that later draws index into
        are fixed by the seed; three epochs of swaps pin all three."""
        teacher, imgs, labs = tiny_teacher
        cfg = ReplacementConfig(p_fraction=0.34, epochs=3, seed=11, batch_size=16)
        _, store, log = train_student(teacher, (imgs, labs), "I", cfg, LossWeights(),
                                      protos_per_class=2)
        swaps = [[(s["slot"], s["out_id"], s["in_id"]) for s in r["replaced"]]
                 for r in log if r["replaced"]]
        assert swaps == [[(0, 3, 18), (1, 21, 19)], [(2, 34, 37), (3, 35, 43)],
                         [(4, 56, 50), (5, 66, 59)]]
        assert store.ids.tolist() == [18, 19, 37, 43, 50, 59]


class TestTrainStudent:
    def test_no_replacement_keeps_prototypes(self, tiny_teacher):
        teacher, imgs, labs = tiny_teacher
        cfg = ReplacementConfig(p_fraction=0.0, epochs=1, seed=1, batch_size=16)
        student, store, log = train_student(teacher, (imgs, labs), "I", cfg,
                                            LossWeights(), protos_per_class=2)
        ref_store, _ = init_store(imgs, labs, 2, 1)
        np.testing.assert_array_equal(store.ids, ref_store.ids)

    def test_same_seed_reproduces_store_and_weights(self, tiny_teacher):
        teacher, imgs, labs = tiny_teacher
        cfg = ReplacementConfig(p_fraction=0.34, epochs=2, seed=2, batch_size=16)
        s1, st1, _ = train_student(teacher, (imgs, labs), "II-A", cfg,
                                   LossWeights(), protos_per_class=2)
        s2, st2, _ = train_student(teacher, (imgs, labs), "II-A", cfg,
                                   LossWeights(), protos_per_class=2)
        np.testing.assert_array_equal(st1.ids, st2.ids)
        np.testing.assert_array_equal(st1.born, st2.born)
        for p1, p2 in zip(s1.encoder.params + s1.head.params,
                          s2.encoder.params + s2.head.params):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_partition_and_balance_after_every_epoch(self, tiny_teacher):
        """Replay the swap log: P and D stay a partition of S and the
        per-class prototype counts stay equal at each epoch boundary."""
        teacher, imgs, labs = tiny_teacher
        cfg = ReplacementConfig(p_fraction=0.34, epochs=5, seed=3, batch_size=16)
        student, store, log = train_student(teacher, (imgs, labs), "I", cfg,
                                            LossWeights(), protos_per_class=2)
        all_ids = set(range(len(imgs)))
        proto_ids = set(int(i) for i in init_store(imgs, labs, 2, 3)[0].ids)
        for record in log:
            if not record.get("replaced"):
                continue
            for swap in record["replaced"]:
                out_id, in_id = swap["out_id"], swap["in_id"]
                assert out_id in proto_ids and in_id not in proto_ids
                assert labs[out_id] == labs[in_id]  # class-matched swap
                proto_ids.remove(out_id)
                proto_ids.add(in_id)
            counts = Counter(int(labs[i]) for i in proto_ids)
            assert set(counts.values()) == {2}
            assert proto_ids.issubset(all_ids)
        assert proto_ids == set(int(i) for i in store.ids)

    def test_swap_stamps_replaced_slots(self, tiny_teacher):
        """The n-th swap stamps the slots it fills with n; slots never
        swapped keep the initial draw's 0."""
        teacher, imgs, labs = tiny_teacher
        cfg = ReplacementConfig(p_fraction=0.34, epochs=2, seed=4, batch_size=16)
        student, store, log = train_student(teacher, (imgs, labs), "I", cfg,
                                            LossWeights(), protos_per_class=2)
        want = np.zeros(len(store), dtype=np.int64)
        swaps = [r["replaced"] for r in log if r.get("replaced")]
        assert [len(s) for s in swaps] == [2, 2]  # round(0.34 * 6)
        for n, swap in enumerate(swaps, start=1):
            want[[s["slot"] for s in swap]] = n
        np.testing.assert_array_equal(store.born, want)
        assert store.born.dtype == np.int64 and (want == 0).sum() == 2

    def test_aux_branch_inert_at_lambda2_zero(self, tiny_teacher):
        """With masking weight zero and replacement off, every step's loss
        is the objective without the auxiliary term, bit for bit, and a
        step's gradients equal those with the masked logits replaced by
        the unmasked ones."""
        teacher, imgs, labs = tiny_teacher
        cfg = ReplacementConfig(p_fraction=0.0, epochs=2, seed=5, batch_size=16)
        w = LossWeights(1.0, 0.0, 0.1)
        student, store, log = train_student(teacher, (imgs, labs), "II-A", cfg, w,
                                            protos_per_class=2)
        steps = [r for r in log if r["loss"] is not None]
        assert len(steps) == 2 * 5  # 66 samples in D, batches of 16
        for r in steps:
            assert r["loss"] == (r["supervised"] + w.lam1 * r["distill"]) + w.lam3 * r["distance"]

        batch = np.arange(0, len(imgs), 5)
        y_teacher = teacher.forward(Tensor(imgs[batch])).data
        params = student.encoder.params + student.head.params

        def grads(masked):
            feats = student.encoder.forward(Tensor(np.concatenate([imgs[batch], store.images])))
            fx, fp = T.split_rows(feats, [len(batch), len(store)])
            store.features = fp
            y, rec = head_forward(fx, store, student.head)
            y_mask = masked_logits(rec.z, np.ones(len(store)), student.head) if masked else y
            j = L.j_from_record(rec, labs[batch], store.labels)
            total, _ = L.total_loss(labs[batch], y, y_teacher, y.data.argmax(axis=1),
                                    y_mask, j, w)
            for prm in params:
                prm.zero_grad()
            total.backward()
            return [np.zeros_like(prm.data) if prm.grad is None else prm.grad.copy()
                    for prm in params]

        for g_mask, g_plain in zip(grads(True), grads(False)):
            np.testing.assert_array_equal(g_mask, g_plain)

    def test_class_exhaustion_raises(self, tiny_teacher):
        teacher, imgs, labs = tiny_teacher
        # 2 per class leaves only 22 spares; huge p drains a class fast
        with pytest.raises((ReplacementError, ParameterError)):
            cfg = ReplacementConfig(p_fraction=0.99, epochs=3, seed=6, batch_size=16)
            train_student(teacher, (imgs[:51], labs[:51]), "I", cfg,
                          LossWeights(), protos_per_class=8)


class TestBirthStampRanking:
    @pytest.mark.parametrize("protos,fraction", [(2, 0.34), (4, 0.25)])
    def test_every_slot_swapped_within_k_over_p_epochs_at_zero_decay(
            self, tiny_teacher, protos, fraction):
        """Weight decay 0 does not freeze the ranking on the first slots:
        every slot is swapped within ceil(K / p) epochs."""
        teacher, imgs, labs = tiny_teacher
        k = 3 * protos
        p = ReplacementConfig(p_fraction=fraction).p_count(k)
        cfg = ReplacementConfig(p_fraction=fraction, epochs=-(-k // p), seed=13,
                                batch_size=16, weight_decay=0.0)
        _, _, log = train_student(teacher, (imgs, labs), "I", cfg, LossWeights(),
                                  protos_per_class=protos)
        swapped = {s["slot"] for r in log if r["iter"] is None for s in r["replaced"]}
        assert swapped == set(range(k))

    @pytest.mark.parametrize("kind", ["I", "III-B"])
    def test_same_slots_as_importance_oracle(self, tiny_teacher, monkeypatch, kind):
        """With weight decay on, the birth stamps pick the slots the
        importance vector picked (`oracles.ImportanceWeights`) at every
        step's mask, every swap and the prune, over a schedule with a
        step decay."""
        teacher, imgs, labs = tiny_teacher
        masks, aux_logits = [], R.masked_logits

        def spy(z, mask, model):
            masks.append(mask.copy())
            return aux_logits(z, mask, model)

        monkeypatch.setattr(R, "masked_logits", spy)
        cfg = ReplacementConfig(p_fraction=0.25, epochs=5, seed=12, batch_size=16,
                                lr_head=0.05, weight_decay=1e-3, lr_step_epochs=2,
                                lr_gamma=0.5)
        student, store, log = train_student(teacher, (imgs, labs), kind, cfg,
                                            LossWeights(), protos_per_class=4)
        k, p = len(store), cfg.p_count(len(store))
        oracle = oracles.ImportanceWeights(k, cfg)
        steps = iter(masks)
        for record in log:
            if record["iter"] is not None:
                want = np.ones(k)
                want[lowest(oracle.m, p)] = 0.0
                np.testing.assert_array_equal(next(steps), want)
                oracle.step(record["epoch"])
            else:
                slots = np.sort(lowest(oracle.m, p))
                assert sorted(s["slot"] for s in record["replaced"]) == slots.tolist()
                oracle.swap(slots)
        assert next(steps, None) is None and len(masks) == 5 * 4
        by_oracle = dataclasses.replace(
            student, store=dataclasses.replace(store, born=oracle.m.copy()))
        np.testing.assert_array_equal(prune(student, 0.34).store.ids,
                                      prune(by_oracle, 0.34).store.ids)


@pytest.fixture
def stepped(monkeypatch):
    """Counts `SGD.step` calls; a step that finds a parameter without a
    gradient fails the test."""
    steps = []
    step = SGD.step

    def checked(self):
        params = [prm for g in self.groups for prm in g["params"]]
        assert all(prm.grad is not None for prm in params), \
            [tuple(prm.shape) for prm in params if prm.grad is None]
        steps.append(len(params))
        return step(self)

    monkeypatch.setattr(SGD, "step", checked)
    return steps


class TestEverySteppedParameterHasAGradient:
    def test_teacher_step(self, stepped):
        imgs, labs = shapes_data()
        train_teacher((imgs, labs), epochs=1, lr=0.05, seed=0, batch_size=16, config=SMALL)
        assert len(stepped) == 5   # 72 samples, batches of 16

    @pytest.mark.parametrize("p_fraction", [0.34, 0.0])
    def test_fit_steps(self, tiny_teacher, stepped, head_kind, p_fraction):
        teacher, imgs, labs = tiny_teacher
        cfg = ReplacementConfig(p_fraction=p_fraction, epochs=1, iterations=2, seed=14,
                                batch_size=16)
        train_student(teacher, (imgs, labs), head_kind, cfg, LossWeights(),
                      protos_per_class=2)
        assert len(stepped) == 2


class TestPrune:
    def _trained(self, tiny_teacher, kind="I"):
        teacher, imgs, labs = tiny_teacher
        cfg = ReplacementConfig(p_fraction=0.25, epochs=3, seed=7, batch_size=16)
        return train_student(teacher, (imgs, labs), kind, cfg,
                             LossWeights(), protos_per_class=4), imgs, labs

    def test_removes_lowest_importance(self, tiny_teacher):
        (student, store, _), _, _ = self._trained(tiny_teacher)
        k = len(store)
        pruned = prune(student, 0.25)
        removed = set(int(i) for i in store.ids) - set(int(i) for i in pruned.store.ids)
        order = np.argsort(store.born, kind="stable")
        want = {int(store.ids[i]) for i in order[:k // 4]}
        assert removed == want

    def test_logit_equivalence_with_zeroed_z(self, tiny_teacher):
        """Pruning equals keeping the model and forcing removed z to 0."""
        (student, store, _), imgs, _ = self._trained(tiny_teacher, "II-A")
        pruned = prune(student, 0.25)
        kept = np.isin(store.ids, pruned.store.ids)
        x = imgs[:5]
        logits_full, rec = student.forward(x)
        masked = rec.z.data * kept[None, :]
        want = masked @ student.head.w.data.T + student.head.b.data
        got = pruned.predict_logits(x)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_count_bookkeeping_double_prune(self, tiny_teacher):
        # K=12: 25% prune drops round(3)=3, then round(0.25*9)=2 more
        (student, store, _), _, _ = self._trained(tiny_teacher)
        once = prune(student, 0.25)
        twice = prune(once, 0.25)
        assert len(store) == 12
        assert len(once.store) == 9 and len(twice.store) == 7
        assert once.head.w.shape == (3, 9) and twice.head.w.shape == (3, 7)

    def test_invalid_fraction_rejected(self, tiny_teacher):
        (student, _, _), _, _ = self._trained(tiny_teacher)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ParameterError):
                prune(student, bad)

    def test_keeps_last_prototype_of_each_class(self, tiny_teacher):
        """With one whole class at the bottom of the ranking, the walk drops
        all of it but its highest slot, then the next lowest of the rest."""
        (student, store, _), _, _ = self._trained(tiny_teacher)
        student.store.born[store.labels == 0] = -10
        pruned = prune(student, 0.34)   # round(4.08) = 4 of K = 12
        class0 = np.flatnonzero(store.labels == 0)
        rest = [int(i) for i in lowest(store.born, 12) if store.labels[i] != 0]
        removed = set(store.ids.tolist()) - set(pruned.store.ids.tolist())
        assert removed == {int(store.ids[i]) for i in [*class0[:3], rest[0]]}
        assert set(pruned.store.labels.tolist()) == set(store.labels.tolist())

    def test_count_above_k_minus_classes_rejected(self, tiny_teacher):
        """K = 12 over 3 classes: dropping 9 leaves one per class, 10 cannot."""
        (student, _, _), _, _ = self._trained(tiny_teacher)
        assert sorted(prune(student, 0.75).store.labels.tolist()) == [0, 1, 2]
        with pytest.raises(PruningError):
            prune(student, 0.8)

    def test_finetune_runs_and_keeps_store(self, tiny_teacher):
        (student, store, _), imgs, labs = self._trained(tiny_teacher)
        teacher, _, _ = tiny_teacher
        pruned = prune(student, 0.25)
        ids_before = pruned.store.ids.copy()
        cfg = ReplacementConfig(p_fraction=0.25, epochs=1, seed=8, batch_size=16)
        finetune(pruned, teacher, (imgs, labs), 1, cfg, LossWeights())
        np.testing.assert_array_equal(pruned.store.ids, ids_before)

    @pytest.mark.parametrize("kind", ["I", "III-B"])
    def test_finetune_matches_reference_loop(self, tiny_teacher, kind):
        """The shared step loop with p = 0 reproduces the standalone
        finetuning loop: same log records, bit-equal parameters and
        birth stamps."""
        (student, _, _), imgs, labs = self._trained(tiny_teacher, kind)
        teacher, _, _ = tiny_teacher
        cfg = ReplacementConfig(p_fraction=0.25, epochs=1, seed=9, batch_size=16)
        ours, ref = prune(student, 0.25), prune(student, 0.25)
        log = finetune(ours, teacher, (imgs, labs), 2, cfg, LossWeights())
        want = oracles.finetune(ref, teacher, (imgs, labs), 2, cfg, LossWeights())
        assert len(log) == 2 * 4  # 63 samples in D, batches of 16
        assert log == want
        for a, b in zip(ours.encoder.params + ours.head.params + [ours.store.features],
                        ref.encoder.params + ref.head.params + [ref.store.features]):
            np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(ours.store.born, ref.store.born)


@st.composite
def _prune_cases(draw):
    """Birth stamps with frequent ties, a class layout in which every
    class holds at least one slot, and a prune count in [1, K)."""
    k = draw(st.integers(2, 12))
    classes = draw(st.integers(1, k))
    labels = np.asarray(draw(st.permutations(
        list(range(classes)) + draw(st.lists(st.integers(0, classes - 1),
                                             min_size=k - classes, max_size=k - classes)))))
    born = np.asarray(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)), dtype=np.int64)
    return labels, born, draw(st.integers(1, k - 1))


@settings(max_examples=150, deadline=None)
@given(case=_prune_cases())
def test_prune_keeps_every_class_and_otherwise_drops_the_lowest(case):
    """`prune` never removes a class, refuses only a count above K minus
    the class count, and drops exactly the `drop` lowest-ranked slots
    whenever those leave every class a prototype."""
    labels, born, drop = case
    k = len(labels)
    student = micro_student("I", seed=drop, k=k, classes=int(labels.max()) + 1)
    student.store.labels[:] = labels
    student.store.born[:] = born
    if drop > k - len(set(labels.tolist())):
        with pytest.raises(PruningError):
            prune(student, drop / k)
        return
    kept = prune(student, drop / k).store
    assert len(kept) == k - drop
    assert set(kept.labels.tolist()) == set(labels.tolist())
    lowest_kept = np.setdiff1d(np.arange(k), np.argsort(born, kind="stable")[:drop])
    if set(labels[lowest_kept].tolist()) == set(labels.tolist()):
        np.testing.assert_array_equal(kept.ids, lowest_kept)
