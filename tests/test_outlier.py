"""Similarity scores, outlier score composition, the max-probability
baseline, and the AUC implementation against a brute-force oracle."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from protostudent.encoder import make_teacher
from protostudent.heads import StudentModel
from protostudent.outlier import MetricError, auc, maxprob_score, outlier_score, score_samples
from protostudent.replacement import ParameterError
from protostudent.tensor import DimensionError

from conftest import ROWS_CONFIG, micro_student
from oracles import auc_tie_walk, encode


def auc_pairs_oracle(scores, labels):
    """All-pairs Mann-Whitney count: P(outlier > normal) + ties/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return float(wins / (len(pos) * len(neg)))


def u_one(student, x):
    """Similarity scores of one image [C,H,W] against every prototype, [K]."""
    return student.forward(x[None])[1].u[0]


class TestUScores:
    def test_self_prototype_scores_one_head1(self):
        student = micro_student("I", seed=0, k=3)
        u = u_one(student, student.store.images[1])
        assert u[1] == pytest.approx(1.0, abs=1e-9)

    def test_zero_input_zero_scores(self):
        for kind in ("I", "II-A", "III-A", "III-C"):
            student = micro_student(kind, seed=1)
            u = u_one(student, np.zeros((2, 4, 4)))
            np.testing.assert_allclose(u, 0.0, atol=1e-12)

    def test_head2a_matches_hand_map(self):
        student = micro_student("II-A", seed=2, k=2)
        rng = np.random.default_rng(3)
        x = rng.random((2, 4, 4))
        fx = encode(student.encoder, x[None])[0]
        u = u_one(student, x)
        c = fx.shape[0]
        for k in range(2):
            fp = encode(student.encoder, student.store.images[k:k + 1])[0]
            fxn = fx.reshape(c, -1)
            fpn = fp.reshape(c, -1)
            cos = np.zeros(fxn.shape[1])
            for i in range(fxn.shape[1]):
                na, nb = np.linalg.norm(fxn[:, i]), np.linalg.norm(fpn[:, i])
                cos[i] = 0.0 if na < 1e-12 or nb < 1e-12 else fxn[:, i] @ fpn[:, i] / (na * nb)
            assert u[k] == pytest.approx(cos.mean(), abs=1e-9)

    def test_unit_interval_all_heads_random_inputs(self, head_kind):
        student = micro_student(head_kind, seed=4)
        rng = np.random.default_rng(5)
        imgs = rng.random((1000, 2, 4, 4))
        reports = score_samples(student, imgs, 1)
        u = np.stack([r.u for r in reports])
        assert (u >= -1e-12).all() and (u <= 1 + 1e-12).all()


class TestOutlierScore:
    def test_perfect_match_zero(self):
        assert outlier_score(np.array([1.0, 1.0, 0.2]), 2) == pytest.approx(0.0)

    def test_no_similarity_one(self):
        assert outlier_score(np.zeros(5), 3) == pytest.approx(1.0)

    def test_hand_case(self):
        u = np.array([0.9, 0.8, 0.7, 0.1])
        assert outlier_score(u, 3) == pytest.approx(0.2, abs=1e-12)

    def test_kprime_equals_k_is_one_minus_mean(self):
        rng = np.random.default_rng(6)
        u = rng.random(7)
        assert outlier_score(u, 7) == pytest.approx(1.0 - u.mean())

    def test_monotone_nonincreasing_in_each_score(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = rng.random(6)
            kp = int(rng.integers(1, 7))
            base = outlier_score(u, kp)
            j = int(rng.integers(0, 6))
            u2 = u.copy()
            u2[j] = min(1.0, u2[j] + 0.2)
            assert outlier_score(u2, kp) <= base + 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            outlier_score(np.ones(3), 0)
        with pytest.raises(ParameterError):
            outlier_score(np.ones(3), 4)


class TestMaxProb:
    def test_uniform_logits(self):
        student = micro_student("I", seed=8, classes=2)
        student.head.w.data[...] = 0.0
        student.head.b.data[...] = 0.0
        s = maxprob_score(student, np.random.default_rng(9).random((3, 2, 4, 4)))
        np.testing.assert_allclose(s, [-0.5] * 3)

    def test_uniform_logits_ten_classes(self):
        student = micro_student("I", seed=8, classes=10)
        student.head.w.data[...] = 0.0
        student.head.b.data[...] = 0.0
        s = maxprob_score(student, np.random.default_rng(9).random((3, 2, 4, 4)))
        np.testing.assert_allclose(s, [-0.1] * 3)

    def test_confident_prediction_near_minus_one(self):
        student = micro_student("I", seed=10, classes=2)
        student.head.b.data = np.array([30.0, -30.0])
        s = maxprob_score(student, np.random.default_rng(11).random((3, 2, 4, 4)))
        np.testing.assert_allclose(s, [-1.0] * 3, rtol=0, atol=1e-8)

    def test_logit_shift_invariance(self):
        student = micro_student("I", seed=12, classes=2)
        x = np.random.default_rng(13).random((3, 2, 4, 4))
        s1 = maxprob_score(student, x)
        student.head.b.data += 57.0
        s2 = maxprob_score(student, x)
        np.testing.assert_allclose(s1, s2, rtol=0, atol=1e-9)

    def test_rejects_single_image(self):
        student = micro_student("I", seed=12, classes=2)
        with pytest.raises(DimensionError, match=r"\[N,C,H,W\]"):
            maxprob_score(student, np.zeros((2, 4, 4)))


class TestScoreSamples:
    def test_batch_size_does_not_change_bytes(self, head_kind):
        """With the teacher baseline, u, o, maxprob and the predicted class
        of every sample are the same bytes at batch_size 1, 7 and 128."""
        student = micro_student(head_kind, seed=64, k=12, classes=3, config=ROWS_CONFIG)
        teacher = make_teacher(ROWS_CONFIG, 3, seed=60)
        images = np.random.default_rng(62).random((40, 3, 16, 16))
        runs = [[(rep.u.tobytes(), np.array([rep.o, rep.maxprob]).tobytes(), rep.predicted_class)
                 for rep in score_samples(student, images, 5, batch_size=size,
                                          baseline_model=teacher)]
                for size in (1, 7, 128)]
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_student_baseline_runs_one_forward_per_batch(self, monkeypatch):
        """Without a baseline model, maxprob comes from the student forward
        that gives u: 10 images at batch_size 5 make 2 forwards, and the
        maxprob bytes equal `maxprob_score` on the student."""
        student = micro_student("II-B", seed=65, k=6, classes=3)
        images = np.random.default_rng(66).random((10, 2, 4, 4))
        want = [maxprob_score(student, images[i:i + 5]) for i in (0, 5)]
        calls, forward = [], StudentModel.forward

        def counted(self, x):
            calls.append(len(x))
            return forward(self, x)

        monkeypatch.setattr(StudentModel, "forward", counted)
        reps = score_samples(student, images, 2, batch_size=5)
        assert calls == [5, 5]
        assert np.array([r.maxprob for r in reps]).tobytes() == np.concatenate(want).tobytes()


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc([0.5] * 6, [0, 0, 0, 1, 1, 1]) == 0.5

    def test_hand_case(self):
        # outliers {0.35, 0.8} vs normals {0.1, 0.4}: 3 wins of 4 pairs
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)
        assert auc_pairs_oracle([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            auc([0.1, 0.2], [0, 0])

    def test_matches_pair_oracle_exactly_50_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(5, 200))
            # quantized scores force ties
            scores = np.round(rng.random(n) * 20) / 20
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == auc_pairs_oracle(scores, labels)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.nan, np.inf]),
                              st.booleans()), min_size=2, max_size=60),
           st.integers(0, 2**32 - 1))
    def test_bit_equal_to_tie_walk_oracle(self, pairs, seed):
        """Scores drawn from a few values (ties, signed zeros, NaN, inf),
        half of them perturbed off the grid: the vector tie ranks give the
        loop's AUC bit for bit."""
        scores = np.array([v for v, _ in pairs])
        labels = np.array([b for _, b in pairs])
        labels[:2] = [False, True]
        rng = np.random.default_rng(seed)
        jitter = rng.random(len(scores)) < 0.5
        scores[jitter] += rng.random(int(jitter.sum()))
        got, want = auc(scores, labels), auc_tie_walk(scores, labels)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
