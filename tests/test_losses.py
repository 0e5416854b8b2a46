"""Objective terms: cross-entropy values, the distance terms against
straight-line oracles, composition and gradients of the total loss."""
import numpy as np
import pytest

from protostudent import losses as L
from protostudent import tensor as T
from protostudent.encoder import TrainingError
from protostudent.heads import head_forward, make_head
from protostudent.losses import (LossWeights, aux_mask_loss, cross_entropy,
                                 j_from_record, total_loss)
from protostudent.replacement import lowest, masked_logits
from protostudent.tensor import DimensionError, Tensor

from conftest import micro_student
from oracles import encode, grad_check


class TestCrossEntropy:
    def test_confident_correct_near_zero(self):
        assert cross_entropy(np.array([0]), np.array([[50.0, -50.0]])).data == pytest.approx(0.0, abs=1e-8)

    def test_uniform_logits_log_c(self):
        for c in (2, 3, 10):
            val = cross_entropy(np.array([1 % c]), np.zeros((1, c))).data
            assert val == pytest.approx(np.log(c), abs=1e-9)

    def test_soft_target_equal_to_softmax_gives_entropy(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((1, 5))
        with T.no_grad():
            p = T.softmax(Tensor(logits), axis=-1).data
        want = -(p * np.log(p)).sum()
        assert cross_entropy(p, logits).data == pytest.approx(want, abs=1e-9)

    def test_vector_logits_rejected(self):
        """Logits are a batch of rows; a vector is refused by name, for label
        and soft targets alike."""
        for targets in ([0], np.array([0.5, 0.5])):
            with pytest.raises(DimensionError):
                cross_entropy(targets, np.zeros(2))

    def test_batched_mean(self):
        logits = np.zeros((4, 3))
        labels = np.array([0, 1, 2, 0])
        assert cross_entropy(labels, logits).data == pytest.approx(np.log(3))


class TestAuxMaskLoss:
    def test_identity_mask_self_consistency(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((3, 4))
        y_pred = logits.argmax(axis=1)
        want = cross_entropy(y_pred, logits).data
        assert aux_mask_loss(y_pred, Tensor(logits)).data == pytest.approx(want)

    def test_agreeing_masked_output_near_zero(self):
        y_mask = np.array([[20.0, -5.0, -5.0]])
        assert aux_mask_loss(np.array([0]), Tensor(y_mask)).data == pytest.approx(0.0, abs=1e-8)

    def test_uniform_bias_gives_log_c(self):
        y_mask = np.full((2, 5), 0.3)
        val = aux_mask_loss(np.array([1, 4]), Tensor(y_mask)).data
        assert val == pytest.approx(np.log(5), abs=1e-9)


def _j(kind, fx, labels_x, store):
    """Distance term of head `kind` for input features fx against the
    store's prototype features: head_forward's record into j_from_record."""
    fx = fx if isinstance(fx, Tensor) else Tensor(fx)
    head = make_head(kind, len(store.labels), 1, fx.shape[1])
    _, rec = head_forward(fx, store, head)
    return j_from_record(rec, labels_x, store.labels)


def _norm(v):
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


class TestDistanceTerms:
    def test_same_class_identical_pair_contributes_zero(self):
        """Head I: an input equal to its same-class prototype."""
        student = micro_student("I", seed=2, k=1, classes=1)
        x = student.store.images[0:1]
        j = _j("I", Tensor(encode(student.encoder, x)), np.array([0]), student.store)
        assert j.data == pytest.approx(0.0, abs=1e-12)

    def test_cross_class_inverse_contribution(self):
        """Orthogonal unit vectors: squared distance 2, inverse 1/2."""
        gx = np.array([[1.0, 0.0]]).reshape(1, 2, 1, 1)
        gp = np.array([[0.0, 1.0]]).reshape(1, 2, 1, 1)

        class FakeStore:
            features = Tensor(gp)
            labels = np.array([1])

        j = _j("I", Tensor(gx), np.array([0]), FakeStore())
        assert j.data == pytest.approx(0.5, abs=1e-5)

    def test_j_headA_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        student = micro_student("II-A", seed=4, k=3, classes=2)
        x = rng.random((2, 2, 4, 4))
        fx = encode(student.encoder, x)
        fp = encode(student.encoder, student.store.images)
        labels_x = np.array([0, 1])
        c = fx.shape[1]
        want = 0.0
        for i in range(2):
            for k in range(3):
                fxh = np.apply_along_axis(_norm, 0, fx[i]).reshape(c, -1)
                fph = np.apply_along_axis(_norm, 0, fp[k]).reshape(c, -1)
                d = ((fxh - fph) ** 2).sum() / fxh.shape[1]
                alpha = 1 if labels_x[i] == student.store.labels[k] else -1
                want += d if alpha == 1 else 1.0 / (d + L.EPS_J)
        want /= 6.0
        got = _j("II-A", Tensor(fx), labels_x, student.store)
        assert got.data == pytest.approx(want, abs=1e-9)

    def test_j_headB_equals_j_headA_constant_prototypes(self):
        rng = np.random.default_rng(5)
        student = micro_student("II-B", seed=6, k=2, classes=2)
        const = np.tile(rng.random((2, 1, 1)), (1, 4, 4))
        feats = np.tile(rng.random((2, 2, 1, 1)), (1, 1, 4, 4))

        class FakeStore:
            features = Tensor(feats)
            labels = np.array([0, 1])

        fx = Tensor(rng.random((3, 2, 4, 4)))
        labels_x = np.array([0, 1, 0])
        ja = _j("II-A", fx, labels_x, FakeStore())
        jb = _j("II-B", fx, labels_x, FakeStore())
        assert jb.data == pytest.approx(ja.data, abs=1e-12)

    def test_j_headC_is_sum_of_two_sided_terms(self):
        rng = np.random.default_rng(7)
        student = micro_student("III-C", seed=8, k=3, classes=2)
        fx = Tensor(rng.random((2, *student.store.features.shape[1:])))
        labels_x = np.array([0, 1])
        jc = _j("III-C", fx, labels_x, student.store)
        jb = _j("II-B", fx, labels_x, student.store)
        assert jc.data >= jb.data - 1e-12  # the swapped term is nonnegative too

    def test_j_nonnegative_random(self):
        rng = np.random.default_rng(9)
        for kind in ("I", "II-A", "II-B", "III-C"):
            student = micro_student(kind, seed=10)
            feat_shape = student.store.features.shape[1:]
            fx = Tensor(rng.random((3, *feat_shape)))
            assert _j(kind, fx, rng.integers(0, 2, size=3), student.store).data >= 0.0

    def test_j_decreases_as_same_class_prototype_approaches_input(self):
        """Directional sign: moving a same-class prototype's features
        toward the input's lowers the distance term."""
        rng = np.random.default_rng(11)
        fx_arr = rng.random((1, 2, 4, 4)) + 0.2
        fp_arr = rng.random((1, 2, 4, 4)) + 0.2

        class FakeStore:
            labels = np.array([0])
            features = None

        store = FakeStore()
        vals = []
        for t in (0.0, 0.5):
            store.features = Tensor(fp_arr + t * (fx_arr - fp_arr))
            vals.append(float(_j("II-A", Tensor(fx_arr), np.array([0]), store).data))
        assert vals[1] < vals[0]


class TestTotalLoss:
    def _parts(self, seed=0):
        rng = np.random.default_rng(seed)
        y_true = np.array([0, 1])
        y = Tensor(rng.standard_normal((2, 3)))
        y_teacher = rng.standard_normal((2, 3))
        y_pred = y.data.argmax(axis=1)
        y_mask = Tensor(rng.standard_normal((2, 3)))
        j = Tensor(0.37)
        return y_true, y, y_teacher, y_pred, y_mask, j

    def test_zero_weights_reduce_to_supervised(self):
        y_true, y, y_teacher, y_pred, y_mask, j = self._parts()
        total, parts = total_loss(y_true, y, y_teacher, y_pred, y_mask, j,
                                  LossWeights(0.0, 0.0, 0.0))
        assert total.data == pytest.approx(cross_entropy(y_true, y).data)

    def test_matches_straight_line_recompute(self):
        y_true, y, y_teacher, y_pred, y_mask, j = self._parts(1)
        w = LossWeights(1.0, 1.0, 0.1)
        total, parts = total_loss(y_true, y, y_teacher, y_pred, y_mask, j, w)

        def ce(t, logits):
            logits = logits - logits.max(axis=-1, keepdims=True)
            logp = logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))
            if t.ndim == 1 and np.issubdtype(t.dtype, np.integer):
                return -logp[np.arange(len(t)), t].mean()
            return -(t * logp).sum(axis=-1).mean()

        soft = np.exp(y_teacher - y_teacher.max(axis=-1, keepdims=True))
        soft = soft / soft.sum(axis=-1, keepdims=True)
        want = (ce(y_true, y.data) + ce(soft, y.data)
                + ce(y_pred, y_mask.data) + 0.1 * 0.37)
        assert total.data == pytest.approx(want, abs=1e-9)

    def test_lambda3_linearity(self):
        y_true, y, y_teacher, y_pred, y_mask, j = self._parts(2)
        t1, _ = total_loss(y_true, y, y_teacher, y_pred, y_mask, j, LossWeights(1, 1, 0.1))
        t2, _ = total_loss(y_true, y, y_teacher, y_pred, y_mask, j, LossWeights(1, 1, 0.2))
        assert t2.data - t1.data == pytest.approx(0.1 * 0.37, abs=1e-12)

    def test_non_finite_term_identified(self):
        y_true, y, y_teacher, y_pred, y_mask, _ = self._parts(3)
        with pytest.raises(TrainingError, match="distance"):
            total_loss(y_true, y, y_teacher, y_pred, y_mask, Tensor(np.nan),
                       LossWeights())

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(-0.1, 1.0, 1.0)


class TestObjectiveGradients:
    def test_total_loss_gradients_per_head(self, head_kind):
        """Full objective gradient check for the parameters on a micro
        batch."""
        student = micro_student(head_kind, seed=20)
        k = len(student.store)
        rng = np.random.default_rng(21)
        x = rng.random((2, 2, 4, 4))
        labels = np.array([0, 1])
        y_teacher = rng.standard_normal((2, student.class_count))
        params = student.encoder.params + student.head.params

        def fn():
            feats = student.encoder.forward(Tensor(np.concatenate([x, student.store.images])))
            fx, fp = T.split_rows(feats, [2, k])
            student.store.features = fp
            logits, rec = head_forward(fx, student.store, student.head)
            mask = np.ones(k)
            mask[lowest(student.store.born, 1)] = 0.0
            y_mask = masked_logits(rec.z, mask, student.head)
            j = j_from_record(rec, labels, student.store.labels)
            total, _ = total_loss(labels, logits, y_teacher,
                                  logits.data.argmax(axis=1), y_mask, j, LossWeights())
            return total

        assert grad_check(fn, params, h=1e-6) < 1e-4
