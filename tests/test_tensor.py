"""Tensor core: primitive values against hand results and brute-force
oracles, and reverse-mode gradients against central differences."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from protostudent import tensor as T
from protostudent.heads import HEAD_KINDS, head_forward
from protostudent.tensor import DimensionError, Tensor

from conftest import micro_student
from oracles import (EvaluationError, conv2d_param_grads, grad_check, l2_normalize_channels,
                     matched_attended_gather, matched_cosine_allpairs)

# the contractions the Head III score was composed of before
# T.attended_score, which TestAttendedScore composes as its oracle
HEAD_EINSUM_SPECS = ("bki,bci,kci->bkc", "bkc,c->bk")


def conv2d_loops(x, k, stride, pad):
    """Brute-force cross-correlation used as the conv oracle."""
    c, h, w = x.shape
    f, _, kh, kw = k.shape
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad))
    xp[:, pad:pad + h, pad:pad + w] = x
    h2 = (h + 2 * pad - kh) // stride + 1
    w2 = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((f, h2, w2))
    for fi in range(f):
        for i in range(h2):
            for j in range(w2):
                patch = xp[:, i * stride:i * stride + kh, j * stride:j * stride + kw]
                out[fi, i, j] = (patch * k[fi]).sum()
    return out


class TestConv2d:
    def test_scalar_product(self):
        out = T.conv2d(Tensor(np.full((1, 1, 1, 1), 2.0)), Tensor(np.full((1, 1, 1, 1), 3.0)))
        assert out.data.reshape(-1)[0] == 6.0

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.random((1, 3, 5, 5))
        out = T.conv2d(Tensor(x), Tensor(np.eye(3).reshape(3, 3, 1, 1)))
        np.testing.assert_array_equal(out.data, x)

    def test_ones_summation(self):
        out = T.conv2d(Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones((1, 1, 3, 3))))
        np.testing.assert_allclose(out.data, [[[[9.0]]]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            c, f = rng.integers(1, 4, size=2)
            kh = int(rng.integers(1, 4))
            h = int(rng.integers(kh, kh + 4))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            x = rng.standard_normal((c, h, h))
            k = rng.standard_normal((f, c, kh, kh))
            got = T.conv2d(Tensor(x[None]), Tensor(k), stride=stride, pad=pad).data[0]
            np.testing.assert_allclose(got, conv2d_loops(x, k, stride, pad), atol=1e-12)

    def test_output_extent_formula(self):
        out = T.conv2d(Tensor(np.zeros((1, 1, 10, 7))), Tensor(np.zeros((2, 1, 3, 3))),
                       stride=2, pad=1)
        assert out.shape == (1, 2, (10 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1)

    def test_channel_mismatch_raises(self):
        with pytest.raises(DimensionError, match="channel mismatch"):
            T.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 2, 2))))

    def test_rejects_single_image(self):
        """The input is a batch [N,C,H,W]; one image [C,H,W] is refused."""
        with pytest.raises(DimensionError, match=r"\[N,C,H,W\]"):
            T.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 2, 2, 2))))

    @pytest.mark.parametrize("w2", [1, 4, 15, 16, 20])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_col2im_matches_scatter_oracle(self, w2, stride):
        """The col2im bincount equals an np.add.at scatter through the
        im2col index, bit for bit, below and above 16 output columns."""
        rng = np.random.default_rng([w2, stride])
        t, c, kh, h2 = 3, 2, 3, 3
        hp, wp = stride * (h2 - 1) + kh, stride * (w2 - 1) + kh
        idx = T._im2col_plan(c, hp, wp, kh, kh, stride, 0)[0]
        cols = rng.standard_normal((t, *idx.shape))
        got = T._col2im(cols, (t, c, hp, wp), kh, kh, stride)
        want = np.zeros((t, c * hp * wp))
        for i in range(t):
            np.add.at(want[i], idx, cols[i])
        np.testing.assert_array_equal(got.reshape(t, -1), want)

    def test_oversized_kernel_raises(self):
        with pytest.raises(DimensionError, match="exceeds"):
            T.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))


class TestConv2dTiles:
    """Batches spanning several im2col tiles, the last one partial, against
    the loop oracle and against the same op applied image by image as
    batches of one (a single tile)."""

    @staticmethod
    def _tiles_of(monkeypatch, per_tile, c, h, kh, stride, pad):
        cols = T._im2col_plan(c, h, h, kh, kh, stride, pad)[0].size
        monkeypatch.setattr(T, "_TILE_BYTES", per_tile * cols * 8)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_matches_per_image(self, monkeypatch, stride, pad, with_bias):
        rng = np.random.default_rng([stride, pad, with_bias])
        n, c, h, f, kh = 7, 2, 7, 3, 3
        self._tiles_of(monkeypatch, 3, c, h, kh, stride, pad)  # tiles of 3, 3, 1
        x = Tensor(rng.standard_normal((n, c, h, h)), requires_grad=True)
        k = Tensor(rng.standard_normal((f, c, kh, kh)), requires_grad=True)
        b = Tensor(rng.standard_normal(f), requires_grad=True) if with_bias else None
        out = T.conv2d(x, k, b, stride=stride, pad=pad)
        shift = 0.0 if b is None else b.data[:, None, None]
        seed = rng.standard_normal(out.shape)
        out.backward(seed)
        dk = np.zeros_like(k.data)
        db = np.zeros(f)
        for i in range(n):
            np.testing.assert_allclose(out.data[i], conv2d_loops(x.data[i], k.data, stride, pad)
                                       + shift, atol=1e-12)
            xi = Tensor(x.data[i:i + 1], requires_grad=True)
            ki = Tensor(k.data, requires_grad=True)
            bi = None if b is None else Tensor(b.data, requires_grad=True)
            one = T.conv2d(xi, ki, bi, stride=stride, pad=pad)
            np.testing.assert_allclose(one.data[0], out.data[i], atol=1e-12)
            one.backward(seed[i:i + 1])
            np.testing.assert_allclose(x.grad[i], xi.grad[0], atol=1e-12)
            dk += ki.grad
            if b is not None:
                db += bi.grad
        np.testing.assert_allclose(k.grad, dk, atol=1e-12)
        if b is not None:
            np.testing.assert_allclose(b.grad, db, atol=1e-12)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_gradients_across_tiles(self, monkeypatch, stride):
        rng = np.random.default_rng([stride, 13])
        self._tiles_of(monkeypatch, 2, 2, 5, 3, stride, 1)  # tiles of 2, 2, 1
        x = Tensor(rng.standard_normal((5, 2, 5, 5)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)

        def fn():
            return T.tsum(T.square(T.conv2d(x, k, b, stride=stride, pad=1)))

        assert grad_check(fn, [x, k, b], h=1e-5) < 1e-4

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 0), (3, 1)])
    def test_kept_columns_match_regathered_backward(self, monkeypatch, stride, pad):
        """The kernel and bias gradients read from the forward's kept
        columns equal the regathering backward bit for bit, and a second
        backward through the same graph still finds the columns."""
        rng = np.random.default_rng([stride, pad, 31])
        n, c, h, f, kh = 7, 2, 7, 3, 3
        self._tiles_of(monkeypatch, 3, c, h, kh, stride, pad)  # tiles of 3, 3, 1
        x = Tensor(rng.standard_normal((n, c, h, h)), requires_grad=True)
        k = Tensor(rng.standard_normal((f, c, kh, kh)), requires_grad=True)
        b = Tensor(rng.standard_normal(f), requires_grad=True)
        out = T.conv2d(x, k, b, stride=stride, pad=pad)
        for _ in range(2):
            seed = rng.standard_normal(out.shape)
            k.zero_grad()
            b.zero_grad()
            out.backward(seed)
            dk, db = conv2d_param_grads(x.data, k.data, seed, stride, pad)
            assert np.array_equal(k.grad, dk)
            assert np.array_equal(b.grad, db)

    def test_no_grad_call_keeps_no_batch_columns(self):
        """Without a graph only one tile's columns are allocated; a
        recorded call holds the whole batch's."""
        rng = np.random.default_rng(23)
        n, c, h = 64, 8, 16
        x = rng.standard_normal((n, c, h, h))
        k = Tensor(rng.standard_normal((2, c, 3, 3)), requires_grad=True)
        batch_cols = T._im2col_plan(c, h, h, 3, 3, 1, 1)[0].size * 8 * n

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with T.no_grad():
            plain = peak(lambda: T.conv2d(Tensor(x), k, stride=1, pad=1))
        recorded = peak(lambda: T.conv2d(Tensor(x), k, stride=1, pad=1))
        assert plain < batch_cols / 4
        assert recorded >= batch_cols

    def test_default_budget_splits_large_batch(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((9, 3, 32, 32))
        k = rng.standard_normal((2, 3, 3, 3))
        per_image = T._im2col_plan(3, 32, 32, 3, 3, 1, 1)[0].size * 8
        assert 1 <= T._TILE_BYTES // per_image < 9  # several tiles, the last partial
        out = T.conv2d(Tensor(x), Tensor(k), stride=1, pad=1).data
        for i in range(9):
            np.testing.assert_allclose(out[i], conv2d_loops(x[i], k, 1, 1), atol=1e-12)


class TestConv2dRelu:
    """The ReLU epilogue, T.conv2d(..., relu=True), against T.relu composed
    on the linear op: the forward and the x, kernel and bias gradients bit
    for bit. Filter 0 has a NaN bias and filter 1 a zero kernel and bias,
    so the mask meets NaN and exact zeros as well as both signs."""

    @staticmethod
    def _operands(rng, x_shape, f, kh):
        c = x_shape[-3]
        k = rng.standard_normal((f, c, kh, kh))
        k[1] = 0.0
        b = rng.standard_normal(f)
        b[:2] = (np.nan, 0.0)
        return rng.standard_normal(x_shape), k, b

    @staticmethod
    def _seed(rng, operands, stride, pad, padded_view=False):
        """An output gradient; as a padded view it is the interior of a
        zero-bordered buffer, as the next block's input gradient is."""
        x, k, _ = operands
        _, _, _, h2, w2 = T._im2col_plan(*x.shape[-3:], *k.shape[2:], stride, pad)
        shape = x.shape[:-3] + (k.shape[0], h2, w2)
        g = rng.standard_normal(shape)
        if not padded_view:
            return g
        buf = np.zeros(shape[:-2] + (h2 + 2, w2 + 2))
        buf[..., 1:-1, 1:-1] = g
        view = buf[..., 1:-1, 1:-1]
        assert not view.flags.c_contiguous
        return view

    @staticmethod
    def _run(fused, operands, seed, stride, pad):
        x, k, b = (Tensor(a, requires_grad=True) for a in operands)
        if fused:
            out = T.conv2d(x, k, b, stride=stride, pad=pad, relu=True)
        else:
            out = T.relu(T.conv2d(x, k, b, stride=stride, pad=pad))
        out.backward(seed)
        return out.data, x.grad, k.grad, b.grad

    def _assert_same(self, operands, seed, stride, pad):
        """Also checks that neither backward writes into the seed."""
        want_seed = seed.copy()
        fused = self._run(True, operands, seed, stride, pad)
        composed = self._run(False, operands, seed, stride, pad)
        assert np.array_equal(seed, want_seed)
        for got, want in zip(fused, composed):
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(fused[0][..., 0, :, :]).all()   # filter 0 is all NaN
        assert (fused[3][:2] == 0.0).all()               # masked off entirely
        return fused

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 0), (3, 1)])
    @pytest.mark.parametrize("padded_view", [False, True], ids=["contiguous", "padded-view"])
    def test_matches_composed_relu_across_tiles(self, monkeypatch, stride, pad, padded_view):
        rng = np.random.default_rng([stride, pad, padded_view, 71])
        n, c, h, f, kh = 7, 2, 7, 4, 3
        TestConv2dTiles._tiles_of(monkeypatch, 3, c, h, kh, stride, pad)  # tiles of 3, 3, 1
        operands = self._operands(rng, (n, c, h, h), f, kh)
        self._assert_same(operands, self._seed(rng, operands, stride, pad, padded_view),
                          stride, pad)

    def test_no_grad_call(self):
        rng = np.random.default_rng(73)
        x, k, b = self._operands(rng, (5, 2, 6, 6), 3, 3)
        with T.no_grad():
            fused = T.conv2d(Tensor(x), Tensor(k, requires_grad=True), Tensor(b), pad=1, relu=True)
            linear = T.conv2d(Tensor(x), Tensor(k, requires_grad=True), Tensor(b), pad=1)
        assert fused._parents == () and fused._backward_fn is None
        assert np.array_equal(fused.data, np.maximum(linear.data, 0.0), equal_nan=True)


class TestSimplePrimitives:
    def test_softmax_uniform(self):
        out = T.softmax(Tensor(np.zeros(3)), axis=-1)
        np.testing.assert_allclose(out.data, [1 / 3] * 3)

    def test_softmax_shift_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(6)
            a = T.softmax(Tensor(x), axis=-1).data
            b = T.softmax(Tensor(x + 123.456), axis=-1).data
            np.testing.assert_allclose(a, b, atol=1e-12)
            assert a.argmax() == b.argmax()

    def test_softmax_sums_to_one_and_positive(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 7))
        out = T.softmax(Tensor(x), axis=-1).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        assert (out > 0).all()

    def test_l2_normalize_hand_case(self):
        v = Tensor(np.array([3.0, 4.0]).reshape(2, 1, 1))
        np.testing.assert_allclose(l2_normalize_channels(v).data.reshape(-1), [0.6, 0.8])

    def test_l2_normalize_zero_vector_stays_zero(self):
        out = l2_normalize_channels(Tensor(np.zeros((3, 2, 2))))
        assert np.isfinite(out.data).all()
        np.testing.assert_array_equal(out.data, 0.0)

    def test_avgpool_constant(self):
        out = T.avgpool_spatial(Tensor(np.full((1, 4, 3, 3), 2.5)))
        np.testing.assert_allclose(out.data, np.full((1, 4), 2.5))

    def test_avgpool_rejects_single_image(self):
        with pytest.raises(DimensionError, match=r"\[N,C,H,W\]"):
            T.avgpool_spatial(Tensor(np.ones((4, 3, 3))))

    def test_avgpool_batched(self):
        rng = np.random.default_rng(3)
        x = rng.random((2, 4, 3, 3))
        out = T.avgpool_spatial(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))

    def test_linear_rejects_vector(self):
        """`linear` takes a batch of rows [N, D]; a vector reaches matmul's
        check for 2 or more dims."""
        with pytest.raises(DimensionError):
            T.linear(Tensor(np.ones(2)), Tensor(np.ones((3, 2))), Tensor(np.zeros(3)))

    def test_linear_shape_check(self):
        with pytest.raises(DimensionError):
            T.linear(Tensor(np.zeros(3)), Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))

    def test_max_tie_takes_first_index(self):
        out, arg = T.tmax(Tensor(np.array([[1.0, 5.0, 5.0, 2.0]])), axis=1)
        assert out.data[0] == 5.0 and arg[0] == 1

    def test_take_flat_roundtrip(self):
        rng = np.random.default_rng(4)
        x = rng.random((3, 4))
        idx = np.array([[0, 5], [11, 5]])
        out = T.take_flat(Tensor(x), idx)
        np.testing.assert_array_equal(out.data, x.ravel()[idx])


class TestMatmul:
    @pytest.mark.parametrize("a_shape,b_shape", [((3,), (3, 2)), ((2, 3), (3,)), ((3,), (3,))],
                             ids=["vector-at-matrix", "matrix-at-vector", "vector-at-vector"])
    def test_rejects_1d_operand(self, a_shape, b_shape):
        """Operands have 2 or more dims, so no 1-D backward is needed."""
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))

    @pytest.mark.parametrize("a_shape,b_shape", [((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5))],
                             ids=["stack-at-matrix", "matrix-at-stack"])
    def test_broadcast_operand_gradients(self, a_shape, b_shape):
        """A 2-D operand against a stacked one gets its gradient summed
        over the stack."""
        rng = np.random.default_rng(51)
        a = Tensor(rng.standard_normal(a_shape), requires_grad=True)
        b = Tensor(rng.standard_normal(b_shape), requires_grad=True)
        w = rng.standard_normal((2, 3, 5))
        assert grad_check(lambda: T.tsum(T.mul(T.matmul(a, b), w)), [a, b]) < 1e-8


class TestGradientAliasing:
    """A node keeps the first gradient it receives without a copy, so two
    parents of an add hold one buffer; a later contribution to one of them
    must not reach the other, nor the seed passed to backward."""

    def test_add_parents_share_then_part(self):
        rng = np.random.default_rng(61)
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        p = T.mul(x, 2.0)
        q = T.mul(p, 3.0)    # p's second consumer runs after the add
        seed = rng.standard_normal(4)
        want = seed.copy()
        T.add(p, q).backward(seed)
        assert np.array_equal(q.grad, want)
        assert np.array_equal(p.grad, want + want * 3.0)
        assert np.array_equal(x.grad, (want + want * 3.0) * 2.0)
        assert np.array_equal(seed, want)

    def test_leaf_used_twice(self):
        rng = np.random.default_rng(62)
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        q = T.mul(a, 3.0)
        seed = rng.standard_normal((2, 3))
        want = seed.copy()
        T.add(a, q).backward(seed)
        assert np.array_equal(q.grad, want)
        assert np.array_equal(a.grad, want + want * 3.0)
        assert np.array_equal(seed, want)


def _unit_columns(rng, shape, dead_share, constant):
    """[N,C,HW] normalized columns: random directions, a share of dead
    (zero) columns, and with `constant` every column of item 0 equal, so
    each of its maxima is a tie across all positions. Small integer
    entries make further exact ties between columns likely."""
    raw = rng.integers(-2, 3, size=shape).astype(np.float64)
    raw[:, :, rng.random(shape[2]) < dead_share] = 0.0
    if constant:
        raw[0] = raw[0, :, :1]
    with T.no_grad():
        return T.l2_normalize(Tensor(raw), axis=1).data


def _weighted_sum(rng, outs):
    """Scalar sum of each output times fixed random weights."""
    total = Tensor(0.0)
    for t in outs:
        if t is not None:
            total = T.add(total, T.tsum(T.mul(t, rng.standard_normal(t.shape))))
    return total


class TestMatchedCosine:
    """The fused matched-cosine op against the dense all-pairs path it
    replaced (tests/oracles.py): values and argmax bit-equal for the max
    modes, aligned values to 1e-14 (one product per position sums in
    another order than the all-pairs GEMM), gradients to 1e-12, and
    gradients against central differences."""

    @pytest.mark.parametrize("match", T.MATCHES)
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 3), k=st.integers(1, 3),
           c=st.integers(1, 4), hw=st.integers(1, 6), hwp=st.integers(1, 6),
           dead_share=st.sampled_from([0.0, 0.3]), constant=st.booleans())
    def test_matches_allpairs_oracle(self, match, seed, b, k, c, hw, hwp, dead_share, constant):
        if match == "aligned":
            hwp = hw
        rng = np.random.default_rng(seed)
        xd = _unit_columns(rng, (b, c, hw), dead_share, False)
        pd = _unit_columns(rng, (k, c, hwp), dead_share, constant)
        fx, fp = Tensor(xd, requires_grad=True), Tensor(pd, requires_grad=True)
        ox, op = Tensor(xd, requires_grad=True), Tensor(pd, requires_grad=True)
        got = T.matched_cosine(fx, fp, match)
        want = matched_cosine_allpairs(ox, op, match)
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if g is None:
                continue
            g, w = getattr(g, "data", g), getattr(w, "data", w)
            if match == "aligned":
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-14)
            else:
                np.testing.assert_array_equal(g, w)
        wseed = rng.integers(2**32)
        _weighted_sum(np.random.default_rng(wseed), [got[0], got[2]]).backward()
        _weighted_sum(np.random.default_rng(wseed), [want[0], want[2]]).backward()
        np.testing.assert_allclose(fx.grad, ox.grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fp.grad, op.grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("match", T.MATCHES)
    def test_gradients_against_central_differences(self, match):
        rng = np.random.default_rng([T.MATCHES.index(match), 31])
        hwp = 4 if match == "aligned" else 3
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        p = Tensor(rng.standard_normal((2, 3, hwp)), requires_grad=True)
        w_cos, w_p = rng.standard_normal((2, 2, 4)), rng.standard_normal((2, 2, hwp))

        def fn():
            cos, _, cos_p, _ = T.matched_cosine(T.l2_normalize(x, axis=1),
                                                T.l2_normalize(p, axis=1), match)
            total = T.tsum(T.mul(cos, w_cos))
            return total if cos_p is None else T.add(total, T.tsum(T.mul(cos_p, w_p)))

        assert grad_check(fn, [x, p], h=1e-6) < 1e-6

    def test_first_index_wins_ties(self):
        p = Tensor(np.ones((1, 2, 3)) / np.sqrt(2.0))
        x = Tensor(np.ones((1, 2, 2)) / np.sqrt(2.0))
        _, arg_p, _, arg_x = T.matched_cosine(x, p, "row+col")
        np.testing.assert_array_equal(arg_p, 0)
        np.testing.assert_array_equal(arg_x, 0)

    def test_graph_is_gemm_node_plus_selections(self):
        """The op's graph is the GEMM node [B*HW, K*HWp] plus one node per
        selection; no [B,K,HW,HWp] view or transpose node sits between."""
        rng = np.random.default_rng(33)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        p = Tensor(rng.standard_normal((3, 3, 4)), requires_grad=True)
        cos, _, cos_p, _ = T.matched_cosine(x, p, "row+col")
        (pairs,) = cos._parents
        assert cos_p._parents == (pairs,)
        assert pairs.shape == (2 * 4, 3 * 4) and pairs._parents == (x, p)

    def test_aligned_graph_is_one_node(self):
        """Aligned cosines hang straight off the two operands: no all-pairs
        node or selection node sits between."""
        rng = np.random.default_rng(36)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        p = Tensor(rng.standard_normal((3, 3, 4)), requires_grad=True)
        cos = T.matched_cosine(x, p, "aligned")[0]
        assert cos.shape == (2, 3, 4) and cos._parents == (x, p)

    @pytest.mark.parametrize("match", T.MATCHES)
    def test_rows_equal_one_row_calls(self, match):
        """Each row of a batched call is bit-equal to the call on that row
        alone, as batched explain pairs need."""
        rng = np.random.default_rng([37, T.MATCHES.index(match)])
        with T.no_grad():
            fxh = T.l2_normalize(rng.random((5, 8, 16)), axis=1).data
            fph = T.l2_normalize(rng.random((6, 8, 16)), axis=1).data
            batched = T.matched_cosine(fxh, fph, match)
            for b in range(5):
                one = T.matched_cosine(fxh[b:b + 1], fph, match)
                for got, want in zip(batched, one):
                    assert (got is None) == (want is None)
                    if got is not None:
                        np.testing.assert_array_equal(getattr(got, "data", got)[b:b + 1],
                                                      getattr(want, "data", want))

    def test_shape_errors(self):
        x, p = Tensor(np.zeros((1, 2, 4))), Tensor(np.zeros((1, 2, 3)))
        with pytest.raises(DimensionError):
            T.matched_cosine(x, p, "aligned")
        with pytest.raises(DimensionError):
            T.matched_cosine(x, Tensor(np.zeros((1, 3, 4))), "row")
        with pytest.raises(ValueError):
            T.matched_cosine(x, p, "col")


def _score_oracle(w, fx, fp, v, arg):
    """The Head III score as the einsum composition it replaced: the
    aligned contraction, or the matched gather of tests/oracles.py, then
    the channel kernel."""
    if arg is None:
        attended = T.einsum(HEAD_EINSUM_SPECS[0], w, fx, fp)
    else:
        attended = matched_attended_gather(w, fx, fp, arg)
    return T.einsum(HEAD_EINSUM_SPECS[1], attended, v)


class TestAttendedScore:
    """The Head III score op against the einsum compositions it replaced,
    against central differences, and row by row against one-row calls."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 3), k=st.integers(1, 3),
           c=st.integers(1, 4), hw=st.integers(1, 6), matched=st.booleans())
    def test_matches_oracle_compositions(self, seed, b, k, c, hw, matched):
        rng = np.random.default_rng(seed)
        arrays = (rng.random((b, k, hw)), rng.random((b, c, hw)), rng.random((k, c, hw)),
                  rng.random(c))
        arg = rng.integers(0, hw, size=(b, k, hw)) if matched else None
        got_in = [Tensor(a, requires_grad=True) for a in arrays]
        want_in = [Tensor(a, requires_grad=True) for a in arrays]
        got = T.attended_score(*got_in, arg)
        want = _score_oracle(*want_in, arg)
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)
        g = rng.standard_normal(got.shape)
        got.backward(g)
        want.backward(g)
        for a, w in zip(got_in, want_in):
            np.testing.assert_allclose(a.grad, w.grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_against_central_differences(self, seed):
        rng = np.random.default_rng([seed, 10])
        w = Tensor(rng.standard_normal((2, 3, 5)), requires_grad=True)
        fx = Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
        fp = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        v = Tensor(rng.standard_normal(4), requires_grad=True)
        for arg in (None, rng.integers(0, 5, size=(2, 3, 5))):
            def fn():
                return T.tsum(T.square(T.attended_score(w, fx, fp, v, arg)))

            assert grad_check(fn, [w, fx, fp, v], h=1e-5) < 1e-4

    def test_graph_is_one_node(self):
        """z hangs straight off its four operands: no [B,K,C] attended
        node or all-pairs node enters the graph."""
        rng = np.random.default_rng(34)
        ops = [Tensor(rng.random(shape), requires_grad=True)
               for shape in ((2, 3, 4), (2, 5, 4), (3, 5, 4), (5,))]
        z = T.attended_score(*ops, rng.integers(0, 4, size=(2, 3, 4)))
        assert z.shape == (2, 3) and z._parents == tuple(ops)

    @pytest.mark.parametrize("matched", [False, True], ids=["aligned", "matched"])
    def test_rows_equal_one_row_calls(self, matched):
        """Each row of a batched call is bit-equal to the call on that row
        alone, as batched explain pairs need."""
        rng = np.random.default_rng([35, matched])
        w, fx = rng.random((5, 6, 16)), rng.random((5, 8, 16))
        fp, v = rng.random((6, 8, 16)), rng.random(8)
        arg = rng.integers(0, 16, size=(5, 6, 16)) if matched else None
        with T.no_grad():
            z = T.attended_score(w, fx, fp, v, arg).data
            for b in range(5):
                one = T.attended_score(w[b:b + 1], fx[b:b + 1], fp, v,
                                       None if arg is None else arg[b:b + 1]).data
                np.testing.assert_array_equal(z[b:b + 1], one)

    def test_shape_errors(self):
        w, fx, fp, v = np.zeros((1, 2, 4)), np.zeros((1, 3, 4)), np.zeros((2, 3, 5)), np.zeros(3)
        with pytest.raises(DimensionError):
            T.attended_score(w, fx, fp, v)
        with pytest.raises(DimensionError):
            T.attended_score(w, fx, fp[:, :2], v, np.zeros((1, 2, 4), dtype=int))
        with pytest.raises(DimensionError):
            T.attended_score(w, fx, fp, np.zeros(2), np.zeros((1, 2, 4), dtype=int))


class TestGradients:
    """Every primitive against central differences on randomized shapes."""

    def _check(self, fn, params, tol=1e-4):
        assert grad_check(fn, params, h=1e-5) < tol

    @pytest.mark.parametrize("seed", range(100))
    def test_primitive_mix_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        a = Tensor(rng.standard_normal((n, m)), requires_grad=True)
        b = Tensor(rng.standard_normal((n, m)), requires_grad=True)
        w = Tensor(rng.standard_normal((m, n)), requires_grad=True)
        choice = seed % 5

        def fn():
            if choice == 0:
                return T.tsum(T.square(T.relu(T.add(T.mul(a, b), -0.25))))
            if choice == 1:
                return T.tsum(T.div(b, T.add(T.square(a), 1.0)))
            if choice == 2:
                return T.tsum(T.square(T.matmul(a, w)))
            if choice == 3:
                return T.tsum(T.mul(T.softmax(a, axis=1), b))
            return T.tsum(T.mul(T.square(T.l2_normalize(a, axis=1)), b))

        self._check(fn, [a, b, w])

    @pytest.mark.parametrize("seed", range(12))
    def test_conv_gradients(self, seed):
        rng = np.random.default_rng([seed, 7])
        stride = 1 + seed % 2
        pad = seed % 2
        x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 2, 2, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)

        def fn():
            return T.tsum(T.square(T.conv2d(x, k, b, stride=stride, pad=pad)))

        self._check(fn, [x, k, b])

    @pytest.mark.parametrize("seed", range(8))
    def test_reduction_and_gather_gradients(self, seed):
        rng = np.random.default_rng([seed, 8])
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        idx = rng.integers(0, 15, size=(2, 4))

        def fn():
            picked = T.take_flat(x, idx)
            mx, _ = T.tmax(x, axis=1)
            return T.add(T.tsum(T.square(picked)), T.tsum(T.mul(mx, 0.5)))

        self._check(fn, [x])

    @pytest.mark.parametrize("seed", range(8))
    def test_einsum_gradients(self, seed):
        rng = np.random.default_rng([seed, 9])
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((5, 3, 4)), requires_grad=True)
        c = Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)

        def fn():
            return T.tsum(T.square(T.einsum("bci,kci,bki->bkc", a, b, c)))

        self._check(fn, [a, b, c])

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("spec", HEAD_EINSUM_SPECS)
    def test_head_einsum_gradients(self, spec, seed):
        """Every operand's gradient of each contraction the Head III
        oracle composes against central differences, at distinct extents
        per index letter."""
        rng = np.random.default_rng([seed, 10])
        extent = {"b": 2, "k": 3, "c": 4, "i": 5}
        ops = [Tensor(rng.standard_normal([extent[ch] for ch in part]), requires_grad=True)
               for part in spec.split("->")[0].split(",")]

        def fn():
            return T.tsum(T.square(T.einsum(spec, *ops)))

        self._check(fn, ops)

    def test_head_forward_makes_no_einsum_call(self, monkeypatch):
        """Every head's forward and backward run without T.einsum: Head III
        takes its score from T.attended_score."""
        def refuse(spec, *tensors):
            raise AssertionError(f"T.einsum({spec!r}) on the head path")

        monkeypatch.setattr(T, "einsum", refuse)
        rng = np.random.default_rng(14)
        for kind in HEAD_KINDS:
            student = micro_student(kind, seed=15)
            student.store.features = student.encoder.forward(Tensor(student.store.images))
            x = student.encoder.forward(Tensor(rng.random((2, 2, 4, 4))))
            logits, _ = head_forward(x, student.store, student.head)
            T.tsum(T.square(logits)).backward()

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)

        def fn():
            return -T.tmean(T.take_flat(T.log_softmax(x, axis=1),
                                        np.arange(4) * 6 + np.array([0, 2, 4, 5])))

        self._check(fn, [x])


class TestGradCheckOracle:
    def test_sum_of_squares(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.standard_normal(6), requires_grad=True)
        err = grad_check(lambda: T.tsum(T.square(p)), [p], h=1e-5)
        assert err < 1e-6

    def test_constant_function_zero_error(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        err = grad_check(lambda: Tensor(3.0), [p], h=1e-5)
        assert err == 0.0

    def test_composite_pooled_cosine_pipeline(self):
        """Pooled-feature cosine head on a 2-channel input (the composite
        pipeline oracle)."""
        rng = np.random.default_rng(5)
        x = Tensor(rng.random((1, 2, 4, 4)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 2, 2, 2)) * 0.5, requires_grad=True)
        proto = Tensor(rng.random((3,)), requires_grad=True)

        def fn():
            feats = T.relu(T.conv2d(x, k, stride=1, pad=0))
            g = T.avgpool_spatial(feats)
            gn = T.l2_normalize(T.reshape(g, (1, 3)), axis=1)
            pn = T.l2_normalize(T.reshape(proto, (1, 3)), axis=1)
            return T.tsum(T.mul(gn, pn))

        assert grad_check(fn, [x, k, proto], h=1e-5) < 1e-4

    def test_non_finite_value_raises(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        with pytest.raises(EvaluationError):
            grad_check(lambda: T.div(1.0, p), [p], h=1e-5)
