"""Relevance propagation: rule-level values, conv-as-matrix oracle,
conservation ledgers, and heatmap structure."""
import dataclasses
import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from protostudent import lrp
from protostudent import tensor as T
from protostudent.encoder import Encoder, EncoderConfig
from protostudent.heads import StudentModel
from protostudent.imagefiles import read_pgm16
from protostudent.lrp import (LrpParams, PropagationError, encoder_lrp, explain,
                              export_pair, heatmaps, lrp_conv_alphabeta)
from protostudent.perturb import top1_heatmaps
from protostudent.tensor import DimensionError, Tensor, _im2col_plan

from conftest import MICRO_CONFIG, micro_student
from oracles import encode, lrp_linear_eps


class TestLrpParams:
    def test_alpha_beta_constraint(self):
        """beta is alpha - 1, not a parameter, so alpha - beta = 1 always
        holds; alpha below 1 (a negative beta) or non-finite is refused."""
        assert LrpParams().beta == 0.7 and LrpParams(1.0).beta == 0.0
        assert LrpParams(2.5, 1e-2) == LrpParams(alpha=2.5, epsilon=1e-2)
        for alpha in (0.5, 1.0 - 1e-12, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="alpha"):
                LrpParams(alpha)


class TestLinearEps:
    def test_single_path_recovers_full_relevance(self):
        a = np.array([2.0])
        w = np.array([[3.0]])
        for eps in (1e-3, 1e-6):
            r = lrp_linear_eps(a, w, None, np.array([5.0]), eps)
            assert r[0] == pytest.approx(5.0 * 6.0 / (6.0 + eps))
        r0 = lrp_linear_eps(a, w, None, np.array([5.0]), 0.0)
        assert r0[0] == pytest.approx(5.0)

    def test_equal_contributions_split_half(self):
        a = np.array([1.0, 1.0])
        w = np.array([[0.5, 0.5]])
        r = lrp_linear_eps(a, w, None, np.array([1.0]), 0.0)
        np.testing.assert_allclose(r, [0.5, 0.5])

    def test_conservation_bias_free(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.random(3) + 0.1
            w = rng.random((2, 3)) + 0.1
            r_out = rng.random(2)
            r_in = lrp_linear_eps(a, w, None, r_out, 1e-3)
            # epsilon absorbs a proportional share
            assert abs(r_in.sum() - r_out.sum()) <= 1e-2 * r_out.sum()
            exact = lrp_linear_eps(a, w, None, r_out, 0.0)
            assert exact.sum() == pytest.approx(r_out.sum(), abs=1e-12)

    def test_zero_denominator_guarded(self):
        r = lrp_linear_eps(np.zeros(2), np.ones((1, 2)), None, np.array([1.0]), 0.0)
        np.testing.assert_array_equal(r, 0.0)


def alphabeta_oracle(a, kernel, bias, r_out, params, stride, pad):
    """The alpha/beta conv rule for one sample [C,H,W], written with the
    per-connection contribution tensor [F, C*kh*kw, H2*W2] and an
    np.add.at col2im."""
    c, h, w = a.shape
    f, _, kh, kw = kernel.shape
    idx, hp, wp, h2, w2 = _im2col_plan(c, h, w, kh, kw, stride, pad)
    ap = np.zeros((c, hp, wp))
    ap[:, pad:pad + h, pad:pad + w] = a
    cols = ap.reshape(-1)[idx]
    contrib = kernel.reshape(f, -1)[:, :, None] * cols[None, :, :]
    pos = np.maximum(contrib, 0.0)
    neg = np.minimum(contrib, 0.0)
    pos_tot = pos.sum(axis=1)
    neg_tot = neg.sum(axis=1)
    if bias is not None:
        pos_tot += np.maximum(bias, 0.0)[:, None]
        neg_tot += np.minimum(bias, 0.0)[:, None]
    r2 = r_out.reshape(f, h2 * w2)

    def ratio(num, den):
        return np.where(den != 0.0, num / np.where(den != 0.0, den, 1.0), 0.0)

    fac_pos = np.where(neg_tot != 0.0, params.alpha, 1.0) * ratio(r2, pos_tot)
    fac_neg = np.where(pos_tot != 0.0, params.beta, -1.0) * ratio(r2, neg_tot)
    r_cols = np.einsum("fml,fl->ml", pos, fac_pos) - np.einsum("fml,fl->ml", neg, fac_neg)
    r_pad = np.zeros(c * hp * wp)
    np.add.at(r_pad, idx, r_cols)
    return r_pad.reshape(c, hp, wp)[:, pad:pad + h, pad:pad + w]


class TestConvAlphaBeta:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), c=st.integers(1, 3),
           f=st.integers(1, 4), kh=st.integers(1, 3), kw=st.integers(1, 3),
           extra_h=st.integers(0, 4), extra_w=st.integers(0, 4),
           stride=st.integers(1, 2), pad=st.integers(0, 1), with_bias=st.booleans(),
           positive_kernel=st.booleans(), zero_share=st.sampled_from([0.0, 0.3, 0.7]),
           nonnegative=st.booleans())
    def test_batched_sign_split_matches_oracle(self, seed, n, c, f, kh, kw, extra_h, extra_w,
                                               stride, pad, with_bias, positive_kernel,
                                               zero_share, nonnegative):
        """The batched sign-split rule equals the per-sample contribution
        tensor oracle: signed inputs with exact zeros, biases on and off,
        all-positive kernels, whose negative pool is empty wherever the
        input is nonnegative, and whole nonnegative batches (the engine's
        case: images in [0, 1], ReLU outputs), which skip the rule's
        negative-input half."""
        rng = np.random.default_rng(seed)
        h, w = kh + extra_h, kw + extra_w
        a = rng.standard_normal((n, c, h, w))
        a[rng.random(a.shape) < zero_share] = 0.0
        if nonnegative:
            a = np.abs(a)
        kernel = rng.standard_normal((f, c, kh, kw))
        if positive_kernel:
            kernel = np.abs(kernel)
            a[0] = np.abs(a[0])  # single-signed contributions for one sample
        bias = rng.standard_normal(f) if with_bias else None
        h2 = (h + 2 * pad - kh) // stride + 1
        w2 = (w + 2 * pad - kw) // stride + 1
        r_out = rng.standard_normal((n, f, h2, w2))
        params = LrpParams(epsilon=1e-3)
        got = lrp_conv_alphabeta(a, kernel, bias, r_out, params, stride, pad)
        assert got.shape == a.shape
        for i in range(n):
            want = alphabeta_oracle(a[i], kernel, bias, r_out[i], params, stride, pad)
            np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-12)
            one = lrp_conv_alphabeta(a[i:i + 1], kernel, bias, r_out[i:i + 1], params,
                                     stride, pad)
            np.testing.assert_allclose(one[0], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("signed", [False, True], ids=["unsigned", "signed"])
    @pytest.mark.parametrize("with_bias", [False, True], ids=["no-bias", "bias"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_row_map_matches_expanded_inputs(self, signed, with_bias, stride, pad):
        """Sides that share a distinct input through a row map with repeats
        get what a call on the expanded inputs gives them, and the oracle's
        values: the unsigned path's a * col2im(G) and the signed path's
        column products alike."""
        rng = np.random.default_rng([stride, pad, with_bias, signed])
        a = rng.standard_normal((3, 2, 5, 6))
        a[rng.random(a.shape) < 0.3] = 0.0
        if not signed:
            a = np.abs(a)
        kernel = rng.standard_normal((4, 2, 3, 3))
        bias = rng.standard_normal(4) if with_bias else None
        rows = np.array([0, 2, 0, 1, 2, 2, 0])
        h2, w2 = (5 + 2 * pad - 3) // stride + 1, (6 + 2 * pad - 3) // stride + 1
        r_out = rng.standard_normal((len(rows), 4, h2, w2))
        params = LrpParams()
        got = lrp_conv_alphabeta(a, kernel, bias, r_out, params, stride, pad, rows)
        want = lrp_conv_alphabeta(a[rows], kernel, bias, r_out, params, stride, pad)
        assert got.shape == want.shape == (len(rows), 2, 5, 6)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for j, row in enumerate(rows):
            np.testing.assert_allclose(
                got[j], alphabeta_oracle(a[row], kernel, bias, r_out[j], params, stride, pad),
                rtol=0, atol=1e-12)

    def test_row_map_length_sets_the_relevance_batch(self):
        """With a row map, r_out has one entry per side, not per input."""
        a, kernel = np.ones((2, 2, 4, 4)), np.ones((3, 2, 3, 3))
        with pytest.raises(DimensionError, match=r"\(3, 3, 4, 4\)"):
            lrp_conv_alphabeta(a, kernel, None, np.ones((2, 3, 4, 4)), LrpParams(), 1, 1,
                               np.array([0, 1, 1]))

    @pytest.mark.parametrize("a_shape,k_shape,r_shape,culprit", [
        ((2, 2, 4, 4), (4, 2, 3, 3), (1, 4, 4, 4), "r"),   # one sample's relevance, two inputs
        ((1, 2, 4, 4), (4, 2, 3, 3), (2, 4, 4, 4), "r"),   # two samples' relevance, one input
        ((1, 2, 4, 4), (4, 3, 3, 3), (1, 4, 4, 4), "k"),   # kernel channels differ
        ((4, 4), (4, 2, 3, 3), (4, 4, 4), "k"),            # no channel axis
    ])
    def test_shape_mismatch_names_the_shapes(self, a_shape, k_shape, r_shape, culprit):
        rng = np.random.default_rng(6)
        with pytest.raises(DimensionError) as err:
            lrp_conv_alphabeta(rng.random(a_shape), rng.standard_normal(k_shape), None,
                               np.ones(r_shape), LrpParams(), stride=1, pad=1)
        assert str(a_shape) in str(err.value)
        assert str(r_shape if culprit == "r" else k_shape) in str(err.value)

    def test_rejects_single_image(self):
        """The input is a batch [N,C,H,W]; one image [C,H,W] with its
        relevance [F,H2,W2] is refused."""
        with pytest.raises(DimensionError, match=r"\[N,C,H,W\]"):
            lrp_conv_alphabeta(np.ones((2, 4, 4)), np.ones((3, 2, 3, 3)), None,
                               np.ones((3, 4, 4)), LrpParams(), stride=1, pad=1)

    def test_all_positive_exact_conservation(self):
        rng = np.random.default_rng(1)
        a = rng.random((1, 2, 3, 3)) + 0.1
        k = rng.random((3, 2, 2, 2)) + 0.1
        with T.no_grad():
            out = T.conv2d(Tensor(a), Tensor(k)).data
        r_out = rng.random(out.shape)
        r_in = lrp_conv_alphabeta(a, k, None, r_out, LrpParams(epsilon=0.0), 1, 0)
        assert r_in.sum() == pytest.approx(r_out.sum(), abs=1e-9)

    def test_alpha_one_uses_positive_parts_only(self):
        rng = np.random.default_rng(2)
        a = rng.random((1, 1, 2, 2))
        k = rng.standard_normal((1, 1, 2, 2))
        r_out = np.ones((1, 1, 1, 1))
        r_in = lrp_conv_alphabeta(a, k, None, r_out, LrpParams(1.0, epsilon=0.0), 1, 0)
        contrib = a[0, 0] * k[0, 0]
        pos = np.maximum(contrib, 0)
        want = pos / pos.sum() if pos.sum() > 0 else np.zeros_like(pos)
        np.testing.assert_allclose(r_in[0, 0], want, atol=1e-12)

    def test_matches_dense_layer_expansion(self):
        """Conv relevance equals the epsilon-free alpha/beta rule on the
        hand-expanded im2col matrix."""
        rng = np.random.default_rng(3)
        a = rng.standard_normal((1, 1, 2, 2))
        k = rng.standard_normal((2, 1, 2, 2))
        params = LrpParams(epsilon=0.0)
        with T.no_grad():
            out = T.conv2d(Tensor(a), Tensor(k)).data
        r_out = rng.random(out.shape)
        got = lrp_conv_alphabeta(a, k, None, r_out, params, 1, 0)
        # dense expansion: one output per filter, weights = flattened kernel
        w = k.reshape(2, 4)
        flat_a = a.reshape(4)
        contrib = w * flat_a[None, :]
        pos, neg = np.maximum(contrib, 0), np.minimum(contrib, 0)
        want = np.zeros(4)
        for j in range(2):
            ps, ns = pos[j].sum(), neg[j].sum()
            term = np.zeros(4)
            if ps != 0:
                term += params.alpha * pos[j] / ps * r_out.reshape(2)[j]
            if ns != 0:
                term -= params.beta * neg[j] / ns * r_out.reshape(2)[j]
            want += term
        np.testing.assert_allclose(got.reshape(4), want, atol=1e-10)

    def test_strided_padded_conservation_positive(self):
        rng = np.random.default_rng(4)
        a = rng.random((1, 2, 4, 4))
        k = rng.random((3, 2, 3, 3))
        with T.no_grad():
            out = T.conv2d(Tensor(a), Tensor(k), stride=2, pad=1).data
        r_out = rng.random(out.shape)
        r_in = lrp_conv_alphabeta(a, k, None, r_out, LrpParams(epsilon=0.0), 2, 1)
        assert r_in.sum() == pytest.approx(r_out.sum(), rel=1e-9)


def bias_free_student(kind="II-A", seed=0, k=2):
    student = micro_student(kind, seed=seed, k=k, zero_bias=True)
    # positive classifier weights keep the toy's logits comfortably away
    # from zero so epsilon absorption stays proportionally small
    rng = np.random.default_rng([seed, 5])
    student.head.w.data = rng.uniform(0.5, 1.0, size=student.head.w.shape)
    return student


class TestRelevanceAtSimilarity:
    """The pair's r_sim: the relevance at the similarity layer."""

    def test_single_prototype_carries_full_logit(self):
        student = bias_free_student("I", seed=1, k=1)
        student.head.w.data[...] = 1.0
        x = student.store.images[0]
        r_sim = heatmaps(student, x, 0, LrpParams(epsilon=0.0)).r_sim
        y = student.predict_logits(x[None])[0]
        assert r_sim[0] == pytest.approx(y.max(), rel=1e-9)

    def test_zero_activation_zero_relevance(self):
        student = micro_student("I", seed=2, k=2)
        student.refresh_store_features()
        g = student.store.features.data.mean(axis=(2, 3))
        # make prototype 1's pooled features orthogonal to everything: zero
        student.store.images[1] = 0.0
        student.refresh_store_features()
        x = np.random.default_rng(3).random((2, 4, 4))
        r_sim = heatmaps(student, x, 1).r_sim
        np.testing.assert_allclose(r_sim, 0.0, atol=1e-12)

    def test_symmetric_prototypes_equal_relevance(self):
        student = micro_student("I", seed=4, k=2)
        student.head.w.data[...] = 1.0
        student.store.images[1] = student.store.images[0]
        student.refresh_store_features()
        x = np.random.default_rng(5).random((2, 4, 4))
        r0 = heatmaps(student, x, 0).r_sim
        r1 = heatmaps(student, x, 1).r_sim
        np.testing.assert_allclose(r0, r1, atol=1e-12)

    def test_widths_match_head_kind(self):
        x = np.random.default_rng(6).random((2, 4, 4))
        c, h, w = MICRO_CONFIG.feature_shape()
        for kind, shape in (("I", (1,)), ("II-A", (h, w)), ("III-A", (c,))):
            student = micro_student(kind, seed=7)
            assert heatmaps(student, x, 0).r_sim.shape == shape


class TestHeatmaps:
    def test_self_pair_symmetric_maps(self):
        student = bias_free_student("I", seed=8, k=1)
        x = student.store.images[0]
        pair = heatmaps(student, x, 0, LrpParams(epsilon=0.0))
        np.testing.assert_allclose(pair.heat_input, pair.heat_proto, atol=1e-10)

    def test_zero_relevance_zero_maps(self):
        student = micro_student("II-A", seed=9, k=2)
        student.head.w.data[...] = 0.0  # logits all zero
        x = np.random.default_rng(10).random((2, 4, 4))
        pair = heatmaps(student, x, 0)
        np.testing.assert_allclose(pair.heat_input, 0.0, atol=1e-12)
        np.testing.assert_allclose(pair.heat_proto, 0.0, atol=1e-12)

    def test_linearity_in_seed_relevance(self):
        """Pixel relevance is linear in the relevance entering the
        encoder, for the records of a nonnegative and of a signed input."""
        student = bias_free_student("II-B", seed=11)
        rng = np.random.default_rng(12)
        params = LrpParams()
        for shift in (0.0, 0.5):
            x = rng.random((2, 2, 4, 4)) - shift
            feats, records = student.encoder.forward_recorded(x)
            assert (records[0]["input"] < 0).any() == (shift > 0)
            r = rng.standard_normal(feats.shape)
            np.testing.assert_allclose(encoder_lrp(records, 3.0 * r, params),
                                       3.0 * encoder_lrp(records, r, params),
                                       rtol=0, atol=1e-12)

    def test_input_side_conservation_eps_zero(self):
        """Bias-free toy at eps=0: pixel relevance equals the prototype's
        share of the predicted logit exactly."""
        student = bias_free_student("II-A", seed=13, k=2)
        params = LrpParams(epsilon=0.0)
        rng = np.random.default_rng(14)
        for _ in range(5):
            x = rng.random((2, 4, 4))
            total = 0.0
            for k in range(2):
                pair = heatmaps(student, x, k, params)
                total += pair.heat_input.sum()
            y = student.predict_logits(x[None])[0]
            assert total == pytest.approx(y.max(), rel=1e-9)

    def test_prototype_side_scatter_conserves(self):
        """Max-head prototype routing keeps the per-pair total: relevance
        scattered onto the prototype grid equals the pair's share."""
        student = bias_free_student("II-B", seed=15, k=2)
        params = LrpParams(epsilon=0.0)
        x = np.random.default_rng(16).random((2, 4, 4))
        total = 0.0
        for k in range(2):
            pair = heatmaps(student, x, k, params)
            total += pair.heat_proto.sum()
        y = student.predict_logits(x[None])[0]
        assert total == pytest.approx(y.max(), rel=1e-6)

    def test_max_head_prototype_support_only_selected(self):
        """Prototype-side feature relevance lives only on positions some
        input position selected as its best match."""
        student = bias_free_student("II-B", seed=17, k=2)
        x = np.random.default_rng(18).random((2, 4, 4))
        y, rec = student.forward(x[None])
        sel = set(int(v) for v in rec.argmax_p[0, 0])
        feats = encode(student.encoder, np.stack([x, student.store.images[0]]))
        one = np.zeros(1, dtype=np.int64)
        _, _, r_fp = lrp._similarity_relevance(student, rec, y.data, one, one, feats[:1],
                                               feats[1:], 1e-3)
        flat = np.abs(r_fp[0]).sum(axis=0).reshape(-1)
        support = set(int(i) for i in np.flatnonzero(flat > 1e-15))
        assert support.issubset(sel)

    def test_every_head_kind_produces_finite_pairs(self, head_kind):
        student = micro_student(head_kind, seed=19)
        x = np.random.default_rng(20).random((2, 4, 4))
        pair = heatmaps(student, x, 1)
        assert pair.heat_input.shape == (4, 4)
        assert np.isfinite(pair.heat_input).all()
        assert np.isfinite(pair.heat_proto).all()
        assert 0 <= pair.u_value <= 1

    def test_bad_prototype_index_raises(self):
        student = micro_student("I", seed=21)
        with pytest.raises(PropagationError):
            heatmaps(student, np.zeros((2, 4, 4)), 99)


class TestExplain:
    def test_topk_count_and_order(self):
        student = micro_student("II-A", seed=22, k=4)
        x = np.random.default_rng(23).random((2, 4, 4))
        pairs = explain(student, x, topk=3)
        assert len(pairs) == 3
        assert pairs[0].u_value >= pairs[1].u_value >= pairs[2].u_value

    def test_matches_per_pair_heatmaps(self, head_kind):
        """Each pair of one top-3 explain call equals heatmaps() run alone
        for that prototype."""
        student = micro_student(head_kind, seed=24, k=5)
        x = np.random.default_rng(25).random((2, 4, 4))
        pairs = explain(student, x, topk=3)
        assert len({p.prototype_index for p in pairs}) == 3
        for pair in pairs:
            alone = heatmaps(student, x, pair.prototype_index)
            for name in ("heat_input", "heat_proto", "r_sim"):
                np.testing.assert_array_equal(getattr(pair, name), getattr(alone, name))
            assert pair.u_value == alone.u_value
            assert pair.predicted_class == alone.predicted_class

    def test_one_forward_and_one_recorded_forward(self, monkeypatch):
        """The ranking forward is reused for every pair, and the input and
        its prototypes share one recorded encoder forward."""
        calls = {"forward": 0, "forward_recorded": 0}

        def counted(cls, name):
            inner = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(cls, name, wrapper)

        counted(StudentModel, "forward")
        counted(Encoder, "forward_recorded")
        student = micro_student("III-B", seed=26, k=5)
        pairs = explain(student, np.random.default_rng(27).random((2, 4, 4)), topk=3)
        assert len(pairs) == 3
        assert calls == {"forward": 1, "forward_recorded": 1}


SMALL_CONFIG = EncoderConfig(in_channels=2, blocks=((4, 3, 2), (5, 3, 1)), input_size=(6, 6))


def _counting(monkeypatch):
    """Count StudentModel.forward calls and the images of every
    Encoder.forward_recorded call."""
    calls = {"forward": 0, "recorded_rows": []}
    forward, recorded = StudentModel.forward, Encoder.forward_recorded

    def counted_forward(self, images):
        calls["forward"] += 1
        return forward(self, images)

    def counted_recorded(self, image):
        calls["recorded_rows"].append(len(image))
        return recorded(self, image)
    monkeypatch.setattr(StudentModel, "forward", counted_forward)
    monkeypatch.setattr(Encoder, "forward_recorded", counted_recorded)
    return calls


class TestBatchedCore:
    def _images(self, student, seed, n=5):
        """n images, one repeated and one equal to a prototype image, so
        some prototypes rank in the top-3 of several images."""
        images = np.random.default_rng(seed).random((n, *student.store.images.shape[1:]))
        images[3] = images[1]
        images[4] = student.store.images[2]
        return images

    @pytest.mark.parametrize("config", [MICRO_CONFIG, SMALL_CONFIG], ids=["micro", "small"])
    def test_batch_matches_per_image(self, head_kind, config):
        """Batched explain over 5 images gives every pair bit for bit as
        one-image explain calls: heatmaps, r_sim, u, class and index."""
        student = micro_student(head_kind, seed=40, k=6, classes=3, config=config)
        images = self._images(student, 41)
        batched = explain(student, images, topk=3)
        assert len(batched) == len(images)
        shared = [p.prototype_index for pairs in batched for p in pairs]
        assert len(set(shared)) < len(shared)
        for x, pairs in zip(images, batched):
            alone = explain(student, x, topk=3)
            assert len(pairs) == len(alone) == 3
            for got, want in zip(pairs, alone):
                for name in ("heat_input", "heat_proto", "r_sim"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
                assert got.u_value == want.u_value
                assert got.predicted_class == want.predicted_class
                assert got.prototype_index == want.prototype_index

    def test_one_image_equals_batch_of_one(self, head_kind):
        """explain(x) returns the pairs of explain(x[None])[0], byte for
        byte: the one-image form the benchmark's explain workload calls."""
        student = micro_student(head_kind, seed=50, k=6, classes=3)
        x = self._images(student, 51)[0]
        alone, (batched,) = explain(student, x, topk=3), explain(student, x[None], topk=3)
        assert len(alone) == len(batched) == 3
        for got, want in zip(alone, batched):
            for name in ("heat_input", "heat_proto", "r_sim"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert (got.u_value, got.predicted_class, got.prototype_index) == \
                (want.u_value, want.predicted_class, want.prototype_index)

    def test_chunks_cross_without_changing_pairs(self, monkeypatch):
        student = micro_student("III-B", seed=42, k=6)
        images = self._images(student, 43, n=7)
        whole = explain(student, images, topk=2)
        monkeypatch.setattr(lrp, "CHUNK", 3)
        for got, want in zip(explain(student, images, topk=2), whole, strict=True):
            for a, b in zip(got, want, strict=True):
                assert a.heat_input.tobytes() == b.heat_input.tobytes()
                assert a.heat_proto.tobytes() == b.heat_proto.tobytes()

    def test_one_forward_per_chunk_and_distinct_prototypes_once(self, monkeypatch):
        """Each chunk runs one ranking forward and one recorded forward,
        whose batch is the chunk's images plus its distinct top-k
        prototypes."""
        student = micro_student("II-B", seed=44, k=6)
        images = self._images(student, 45, n=7)
        monkeypatch.setattr(lrp, "CHUNK", 4)
        calls = _counting(monkeypatch)
        result = explain(student, images, topk=3)
        chunks = [result[:4], result[4:]]
        distinct = [len({p.prototype_index for pairs in c for p in pairs}) for c in chunks]
        assert calls["forward"] == 2
        assert calls["recorded_rows"] == [4 + distinct[0], 3 + distinct[1]]
        assert distinct[0] < 4 * 3

    def test_top1_heatmaps_one_forward_per_chunk(self, monkeypatch):
        student = micro_student("II-A", seed=46, k=4)
        images = self._images(student, 47, n=5)
        want = [explain(student, x, 1)[0].heat_input for x in images]
        calls = _counting(monkeypatch)
        heats = top1_heatmaps(student, images)
        assert calls["forward"] == 1 and len(calls["recorded_rows"]) == 1
        assert [h.tobytes() for h in heats] == [h.tobytes() for h in want]

    @pytest.mark.parametrize("bad", [-1, 4, 99])
    def test_out_of_range_index_in_batch_raises(self, bad):
        student = micro_student("III-C", seed=48, k=4)
        images = np.random.default_rng(49).random((2, 2, 4, 4))
        with pytest.raises(PropagationError):
            lrp._pairs(student, images, [[0, 1], [2, bad]], None, student.forward(images))


class TestExportPair:
    def test_conservation_residual_bias_free_positive(self, tmp_path, head_kind):
        """Bias-free, all-positive toy at eps=0: each sidecar's residual
        between summed pixel relevance and summed r_sim is at rounding
        level."""
        student = bias_free_student(head_kind, seed=28, k=3)
        for kern in student.encoder.kernels:
            kern.data = np.abs(kern.data)
        student.refresh_store_features()
        x = np.random.default_rng(29).random((2, 4, 4))
        for j, pair in enumerate(explain(student, x, topk=3, params=LrpParams(epsilon=0.0))):
            export_pair(pair, tmp_path / f"pair{j}")
            for side in ("input", "proto"):
                meta = json.loads((tmp_path / f"pair{j}_{side}.json").read_text())
                assert 0.0 <= meta["conservation_residual"] <= 1e-9

    def test_conservation_residual_null_without_relevance(self, tmp_path):
        student = micro_student("II-A", seed=30, k=2)
        student.head.w.data[...] = 0.0  # every logit and r_sim is zero
        pair = heatmaps(student, np.random.default_rng(31).random((2, 4, 4)), 0)
        export_pair(pair, tmp_path / "pair")
        for side in ("input", "proto"):
            meta = json.loads((tmp_path / f"pair_{side}.json").read_text())
            assert meta["conservation_residual"] is None

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("field,bad", [("heat_input", np.nan), ("heat_proto", np.nan),
                                           ("heat_proto", np.inf), ("r_sim", np.nan),
                                           ("u_value", np.inf)])
    def test_non_finite_pair_raises_before_writing(self, tmp_path, field, bad):
        """A NaN or inf in a heatmap, r_sim or u_k raises PropagationError
        naming it, and no file is left: a PGM has no word for it and JSON
        no token."""
        student = micro_student("II-A", seed=35, k=3)
        pair = heatmaps(student, np.random.default_rng(36).random((2, 4, 4)), 1)
        if field == "u_value":
            pair = dataclasses.replace(pair, u_value=bad)
        else:
            value = getattr(pair, field).copy()
            value.flat[1] = bad
            pair = dataclasses.replace(pair, **{field: value})
        named = {"heat_input": "input heatmap", "heat_proto": "proto heatmap"}
        with pytest.raises(PropagationError, match=named.get(field, "r_sim or u_k")):
            export_pair(pair, tmp_path / "pair")
        assert list(tmp_path.iterdir()) == []

    def test_export_over_longer_files_matches_fresh_export(self, tmp_path):
        """Exporting over a base whose four files already hold 10 KB of junk
        leaves the same bytes as an export into an empty directory."""
        student = micro_student("III-B", seed=32, k=3)
        pair = heatmaps(student, np.random.default_rng(33).random((2, 4, 4)), 1)
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        fresh.mkdir()
        reused.mkdir()
        junk = np.random.default_rng(34).bytes(10_000)
        for side in ("input", "proto"):
            for ext in ("pgm", "json"):
                (reused / f"pair_{side}.{ext}").write_bytes(junk)
        written = export_pair(pair, reused / "pair")
        export_pair(pair, fresh / "pair")
        assert len(written) == 4
        for path in written:
            assert path.read_bytes() == (fresh / path.name).read_bytes()
        peak = max(np.abs(pair.heat_input).max(), np.abs(pair.heat_proto).max())
        for side, heat in (("input", pair.heat_input), ("proto", pair.heat_proto)):
            pgm = reused / f"pair_{side}.pgm"
            meta = json.loads((reused / f"pair_{side}.json").read_text())
            assert meta["checksum"] == zlib.crc32(pgm.read_bytes())
            assert np.abs(read_pgm16(pgm) - np.abs(heat) / peak).max() <= 0.5 / 65535 + 1e-12
