"""Similarity heads: hand-computed values, dominance and range
invariants, permutation symmetry, and gradient checks."""
import sys

import numpy as np
import pytest

from protostudent import heads as H
from protostudent import tensor as T
from protostudent.encoder import EncoderConfig
from protostudent.heads import ConfigurationError, HeadModel, head_forward
from protostudent.lrp import _bilinear_entries
from protostudent.optim import SGD
from protostudent.replacement import PrototypeStore
from protostudent.tensor import Tensor

from conftest import ROWS_CONFIG, micro_student
from oracles import (encode, grad_check, sim_I, sim_IIA, sim_IIB, attention,
                     sim_IIIA, sim_IIIB, attn_IIIC, sim_IIIC)


def cosine_map_loops(fx, fp):
    """Straight-line aligned-cosine oracle."""
    c, h, w = fx.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            a, b = fx[:, i, j], fp[:, i, j]
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            out[i, j] = 0.0 if na < 1e-12 or nb < 1e-12 else a @ b / (na * nb)
    return out


def max_cosine_loops(fx, fp):
    """Brute force over all prototype positions."""
    c, h, w = fx.shape
    _, hp, wp = fp.shape
    out = np.zeros((h, w))
    arg = np.zeros((h, w, 2), dtype=int)
    for i in range(h):
        for j in range(w):
            best, bidx = -np.inf, (0, 0)
            a = fx[:, i, j]
            na = np.linalg.norm(a)
            for ip in range(hp):
                for jp in range(wp):
                    b = fp[:, ip, jp]
                    nb = np.linalg.norm(b)
                    v = 0.0 if na < 1e-12 or nb < 1e-12 else a @ b / (na * nb)
                    if v > best:
                        best, bidx = v, (ip, jp)
            out[i, j] = best
            arg[i, j] = bidx
    return out, arg


class TestSimI:
    def test_identical_vectors(self):
        v = np.array([0.3, 0.4, 0.5])
        assert sim_I(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert sim_I([1.0, 0.0], [0.0, 2.0]) == pytest.approx(0.0)

    def test_hand_cosine(self):
        assert sim_I([1.0, 0.0], [1.0, 1.0]) == pytest.approx(1 / np.sqrt(2), abs=1e-5)

    def test_zero_norm_guard(self):
        assert sim_I([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_range_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.standard_normal((2, 5))
            assert -1.0 - 1e-12 <= sim_I(a, b) <= 1.0 + 1e-12
        for _ in range(200):
            a, b = rng.random((2, 5))
            assert -1e-12 <= sim_I(a, b) <= 1.0 + 1e-12


class TestSimII:
    def test_iia_self_similarity(self):
        fx = np.random.default_rng(1).random((3, 2, 2)) + 0.1
        np.testing.assert_allclose(sim_IIA(fx, fx), 1.0, atol=1e-12)

    def test_iia_orthogonal_channels(self):
        fx = np.zeros((2, 2, 2))
        fp = np.zeros((2, 2, 2))
        fx[0] = 1.0
        fp[1] = 1.0
        np.testing.assert_allclose(sim_IIA(fx, fp), 0.0)

    def test_iia_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            fx = rng.random((4, 3, 3))
            fp = rng.random((4, 3, 3))
            np.testing.assert_allclose(sim_IIA(fx, fp), cosine_map_loops(fx, fp), atol=1e-12)

    def test_iib_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            fx = rng.random((3, 2, 3))
            fp = rng.random((3, 2, 3))
            smap, arg = sim_IIB(fx, fp)
            want, want_arg = max_cosine_loops(fx, fp)
            np.testing.assert_allclose(smap, want, atol=1e-12)
            np.testing.assert_array_equal(arg, want_arg)

    def test_iib_engineered_argmax(self):
        fx = np.zeros((2, 2, 2))
        fx[:, 0, 0] = [1.0, 0.0]
        fp = np.zeros((2, 2, 2))
        fp[:, 1, 0] = [2.0, 0.0]   # only position matching fx(0,0)
        smap, arg = sim_IIB(fx, fp)
        assert smap[0, 0] == pytest.approx(1.0)
        assert tuple(arg[0, 0]) == (1, 0)

    def test_iib_equals_iia_for_constant_prototype(self):
        rng = np.random.default_rng(4)
        fx = rng.random((3, 3, 3))
        fp = np.tile(rng.random((3, 1, 1)), (1, 3, 3))
        smap, _ = sim_IIB(fx, fp)
        np.testing.assert_array_equal(smap, sim_IIA(fx, fp))

    def test_iib_dominates_iia_500_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            fx = rng.random((2, 2, 2))
            fp = rng.random((2, 2, 2))
            smap, _ = sim_IIB(fx, fp)
            assert (smap >= sim_IIA(fx, fp) - 1e-15).all()

    def test_empty_grid_rejected(self):
        with pytest.raises(Exception):
            sim_IIB(np.zeros((2, 0, 2)), np.zeros((2, 2, 2)))


class TestAttention:
    def test_constant_map_uniform(self):
        np.testing.assert_allclose(attention(np.full((2, 3), 1.7)), 1.0 / 6)

    def test_single_spike(self):
        s = np.zeros((2, 2))
        s[0, 1] = 10.0
        a = attention(s)
        assert a[0, 1] == pytest.approx(np.exp(10) / (np.exp(10) + 3), abs=1e-6)
        assert a[0, 1] == pytest.approx(0.99986, abs=1e-4)

    def test_normalized(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            assert attention(rng.standard_normal((3, 4))).sum() == pytest.approx(1.0)


class TestSimIII:
    def test_uniform_attention_constant_maps(self):
        # fp = fx = constant v: each channel gets sum over positions of
        # (1/HW) * v * v = v^2
        v = 0.7
        fx = np.full((3, 2, 2), v)
        a = np.full((2, 2), 0.25)
        np.testing.assert_allclose(sim_IIIA(fx, fx, a), v * v)

    def test_zero_prototype_annihilates(self):
        rng = np.random.default_rng(7)
        fx = rng.random((3, 2, 2))
        a = attention(rng.random((2, 2)))
        np.testing.assert_array_equal(sim_IIIA(fx, np.zeros_like(fx), a), 0.0)
        arg = np.zeros((2, 2, 2), dtype=int)
        np.testing.assert_array_equal(sim_IIIB(fx, np.zeros_like(fx), a, arg), 0.0)

    def test_iiib_equals_iiia_for_constant_prototype(self):
        rng = np.random.default_rng(8)
        fx = rng.random((3, 2, 2))
        fp = np.tile(rng.random((3, 1, 1)), (1, 2, 2))
        smap, arg = sim_IIB(fx, fp)
        a = attention(smap)
        np.testing.assert_allclose(sim_IIIB(fx, fp, a, arg), sim_IIIA(fx, fp, a), atol=1e-12)

    def test_iiic_literal_product(self):
        rng = np.random.default_rng(9)
        fx = rng.random((2, 2, 2))
        fp = rng.random((2, 2, 2))
        smap, _ = sim_IIB(fx, fp)
        a_b = attention(smap)
        a_c = attn_IIIC(fx, fp)
        want = np.einsum("hw,chw,chw->c", a_b * a_c, fx, fp)
        np.testing.assert_allclose(sim_IIIC(fx, fp, a_b, a_c), want, atol=1e-12)


class TestHeadForward:
    def test_head1_self_match_logit_one(self):
        student = micro_student("I", seed=0, k=1, classes=1)
        student.head.w.data[...] = 1.0
        student.head.b.data[...] = 0.0
        logits, rec = student.forward(student.store.images[0:1])
        assert logits.data[0, 0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("head_kind", ["III-A", "III-B", "III-C"])
    def test_head3_zero_conv_weights_gives_bias(self, head_kind):
        student = micro_student(head_kind, seed=1)
        student.head.conv1d_w.data[...] = 0.0
        rng = np.random.default_rng(2)
        logits, rec = student.forward(rng.random((2, 2, 4, 4)))
        np.testing.assert_allclose(rec.z.data, 0.0, atol=1e-15)
        np.testing.assert_allclose(logits.data, np.tile(student.head.b.data, (2, 1)), atol=1e-15)

    def test_head_iia_matches_straight_line_oracle(self):
        """Two-prototype toy against a direct per-pair reimplementation."""
        student = micro_student("II-A", seed=3, k=2)
        rng = np.random.default_rng(4)
        x = rng.random((1, 2, 4, 4))
        logits, rec = student.forward(x)
        fx = encode(student.encoder, x)[0]
        want_z = []
        for k in range(2):
            fp = encode(student.encoder, student.store.images[k:k + 1])[0]
            want_z.append(cosine_map_loops(fx, fp).mean())
        np.testing.assert_allclose(rec.z.data[0], want_z, atol=1e-12)
        want_logits = student.head.w.data @ np.asarray(want_z) + student.head.b.data
        np.testing.assert_allclose(logits.data[0], want_logits, atol=1e-12)

    def test_prototype_permutation_symmetry(self, head_kind):
        student = micro_student(head_kind, seed=5, k=4)
        rng = np.random.default_rng(6)
        x = rng.random((3, 2, 4, 4))
        logits, rec = student.forward(x)
        perm = np.array([2, 0, 3, 1])
        store2 = PrototypeStore(ids=student.store.ids[perm],
                                images=student.store.images[perm],
                                labels=student.store.labels[perm],
                                born=student.store.born[perm])
        head2 = HeadModel(kind=head_kind,
                          w=Tensor(student.head.w.data[:, perm]),
                          b=Tensor(student.head.b.data.copy()),
                          conv1d_w=None if student.head.conv1d_w is None
                          else Tensor(student.head.conv1d_w.data.copy()))
        student2 = H.StudentModel(encoder=student.encoder, head=head2,
                                  store=store2, class_count=student.class_count)
        student2.refresh_store_features()
        logits2, rec2 = student2.forward(x)
        np.testing.assert_allclose(logits2.data, logits.data, atol=1e-10)
        np.testing.assert_allclose(rec2.z.data, rec.z.data[:, perm], atol=1e-10)

    def test_kind_mismatch_raises(self):
        student = micro_student("III-A", seed=7)
        student.head.conv1d_w = None
        rng = np.random.default_rng(8)
        with pytest.raises(ConfigurationError):
            student.forward(rng.random((1, 2, 4, 4)))

    def test_single_feature_map_rejected(self, head_kind):
        """Input features are a batch [B,C,H,W]; one map [C,H,W] is refused."""
        student = micro_student(head_kind, seed=7)
        fx = encode(student.encoder, np.random.default_rng(8).random((1, 2, 4, 4)))[0]
        with pytest.raises(ConfigurationError, match="feature shape mismatch"):
            head_forward(Tensor(fx), student.store, student.head)

    def test_z_values_in_unit_interval_heads_i_ii(self):
        rng = np.random.default_rng(9)
        for kind in ("I", "II-A", "II-B"):
            student = micro_student(kind, seed=10)
            _, rec = student.forward(rng.random((20, 2, 4, 4)))
            assert (rec.z.data >= -1e-12).all() and (rec.z.data <= 1 + 1e-12).all()

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("kind", ["III-A", "III-B", "III-C"])
    def test_attended_matches_pair_oracles(self, kind, batch):
        """For every (input, prototype) pair of a batched forward, z is the
        channel kernel times the per-pair oracle's attended vector, and
        the attended vector the relevance code rebuilds is that vector."""
        config = EncoderConfig(in_channels=2, blocks=((5, 2, 1),), input_size=(5, 5))
        student = micro_student(kind, seed=16, k=5, config=config)
        x = np.random.default_rng(17).random((batch, 2, 5, 5))
        _, rec = student.forward(x)
        fxs = encode(student.encoder, x)
        fps = student.store.features.data
        v = student.head.conv1d_w.data
        ix, kp = np.repeat(np.arange(batch), 5), np.tile(np.arange(5), batch)
        rebuilt = _bilinear_entries(rec, ix, kp)[0][:, :, 0].reshape(batch, 5, -1)
        for b, fx in enumerate(fxs):
            for k, fp in enumerate(fps):
                smap, arg = sim_IIB(fx, fp)
                if kind == "III-A":
                    want = sim_IIIA(fx, fp, attention(sim_IIA(fx, fp)))
                elif kind == "III-B":
                    want = sim_IIIB(fx, fp, attention(smap), arg)
                else:
                    want = sim_IIIC(fx, fp, attention(smap), attn_IIIC(fx, fp))
                np.testing.assert_allclose(rec.z.data[b, k], v @ want, rtol=0, atol=1e-12)
                np.testing.assert_allclose(rebuilt[b, k], want, rtol=0, atol=1e-12)

    def test_conv_weight_clipping_after_step(self):
        student = micro_student("III-A", seed=11)
        student.head.conv1d_w.data[...] = 0.01
        opt = SGD([{"params": [student.head.conv1d_w], "lr": 1.0}], weight_decay=0.0)
        student.head.conv1d_w.grad = np.full_like(student.head.conv1d_w.data, 5.0)
        opt.step()
        student.head.clip_conv1d()
        assert (student.head.conv1d_w.data >= 0).all()


# the record fields that hold one row per input image
PER_IMAGE = ("z", "s_raw", "gxh", "cos", "cos_p", "argmax_p", "argmax_x", "attn", "attn_p",
             "weights", "z_argmax_p", "fxh", "fx_raw")


class TestInferenceForward:
    def test_rows_equal_one_image_calls(self, head_kind):
        """Each row of student.forward over 7 images (logits, u and every
        per-image record field) equals the one-image call bit for bit."""
        student = micro_student(head_kind, seed=60, k=12, classes=3, config=ROWS_CONFIG)
        xs = np.random.default_rng(61).random((7, 3, 16, 16))
        logits, rec = student.forward(xs)
        ones = [student.forward(x[None]) for x in xs]
        assert [row.tobytes() for row in logits.data] == [y.data[0].tobytes() for y, _ in ones]
        assert [row.tobytes() for row in rec.u] == [one.u[0].tobytes() for _, one in ones]
        for name in PER_IMAGE:
            for i, (_, one) in enumerate(ones):
                got, want = getattr(rec, name), getattr(one, name)
                if isinstance(got, Tensor):
                    got, want = got.data, want.data
                if got is not None:
                    assert got[i].tobytes() == want[0].tobytes(), name


class TestHeadGradients:
    def test_logit_gradients_through_every_head(self, head_kind):
        """Encoder and head parameter gradients against central
        differences, through the max selections where present.

        h = 1e-6: a wider step can flip a near-tied argmax inside the
        difference window, which probes a different subgradient branch
        than the one the analytic pass committed to.
        """
        student = micro_student(head_kind, seed=12)
        rng = np.random.default_rng(13)
        x = rng.random((2, 2, 4, 4))
        params = student.encoder.params + student.head.params

        def fn():
            feats = student.encoder.forward(Tensor(np.concatenate([x, student.store.images])))
            fx, fp = T.split_rows(feats, [2, len(student.store)])
            student.store.features = fp
            logits, _ = head_forward(fx, student.store, student.head)
            return T.tsum(T.square(T.softmax(logits, axis=1)))

        assert grad_check(fn, params, h=1e-6) < 1e-4

    def test_iiib_step_runs_without_path_search(self, monkeypatch):
        """A III-B forward and backward never ask numpy for a contraction
        path: each einsum on the tape is one plain pass (a path search
        made III-B training several times slower)."""
        def refuse(*args, **kwargs):
            raise AssertionError("contraction path search on the tape")

        # np.einsum(optimize=...) looks einsum_path up in its own module
        einsumfunc = sys.modules.get("numpy._core.einsumfunc") or sys.modules["numpy.core.einsumfunc"]
        monkeypatch.setattr(einsumfunc, "einsum_path", refuse)
        monkeypatch.setattr(np, "einsum_path", refuse)
        student = micro_student("III-B", seed=18)
        x = np.random.default_rng(19).random((3, 2, 4, 4))
        student.store.features = student.encoder.forward(Tensor(student.store.images))
        logits, _ = head_forward(student.encoder.forward(Tensor(x)), student.store, student.head)
        T.tsum(T.square(logits)).backward()
        assert all(p.grad is not None for p in student.encoder.params + student.head.params)

    @pytest.mark.parametrize("kind,allpairs_calls", [("II-A", 0), ("III-A", 0), ("III-C", 1)])
    def test_aligned_reads_take_no_allpairs_product(self, monkeypatch, kind, allpairs_calls):
        """Aligned position pairs never build the all-pairs product: II-A
        and III-A run forward and backward without it, and III-C builds it
        once per forward, for its row and column maxima only."""
        calls = []
        allpairs = T._allpairs

        def counted(x, p):
            if not allpairs_calls:
                raise AssertionError("all-pairs product on an aligned head")
            calls.append(x.shape)
            return allpairs(x, p)

        monkeypatch.setattr(T, "_allpairs", counted)
        student = micro_student(kind, seed=20)
        x = np.random.default_rng(21).random((3, 2, 4, 4))
        student.store.features = student.encoder.forward(Tensor(student.store.images))
        for forwards in (1, 2):
            logits, _ = head_forward(student.encoder.forward(Tensor(x)), student.store,
                                     student.head)
            assert len(calls) == forwards * allpairs_calls
            T.tsum(T.square(logits)).backward()
        assert len(calls) == 2 * allpairs_calls
        assert all(p.grad is not None for p in student.encoder.params + student.head.params)
