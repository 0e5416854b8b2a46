"""Tensor core: primitive values against hand results and brute-force
oracles, and reverse-mode gradients against central differences."""
import numpy as np
import pytest

from protostudent import tensor as T
from protostudent.tensor import DimensionError, EvaluationError, Tensor


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
        out = T.conv2d(Tensor(np.full((1, 1, 1), 2.0)), Tensor(np.full((1, 1, 1, 1), 3.0)))
        assert out.data.reshape(-1)[0] == 6.0

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.random((3, 5, 5))
        out = T.conv2d(Tensor(x), Tensor(np.eye(3).reshape(3, 3, 1, 1)))
        np.testing.assert_array_equal(out.data, x)

    def test_ones_summation(self):
        out = T.conv2d(Tensor(np.ones((1, 3, 3))), Tensor(np.ones((1, 1, 3, 3))))
        np.testing.assert_allclose(out.data, [[[9.0]]])

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
            got = T.conv2d(Tensor(x), Tensor(k), stride=stride, pad=pad).data
            np.testing.assert_allclose(got, conv2d_loops(x, k, stride, pad), atol=1e-12)

    def test_output_extent_formula(self):
        out = T.conv2d(Tensor(np.zeros((1, 10, 7))), Tensor(np.zeros((2, 1, 3, 3))),
                       stride=2, pad=1)
        assert out.shape == (2, (10 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1)

    def test_channel_mismatch_raises(self):
        with pytest.raises(DimensionError):
            T.conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 2, 2))))

    def test_oversized_kernel_raises(self):
        with pytest.raises(DimensionError):
            T.conv2d(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))


class TestConv2dTiles:
    """Batches spanning several im2col tiles, the last one partial, against
    the loop oracle and against the same op applied image by image through
    the 3-D path (a single tile)."""

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
            xi = Tensor(x.data[i], requires_grad=True)
            ki = Tensor(k.data, requires_grad=True)
            bi = None if b is None else Tensor(b.data, requires_grad=True)
            one = T.conv2d(xi, ki, bi, stride=stride, pad=pad)
            np.testing.assert_allclose(one.data, out.data[i], atol=1e-12)
            one.backward(seed[i])
            np.testing.assert_allclose(x.grad[i], xi.grad, atol=1e-12)
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

        assert T.grad_check(fn, [x, k, b], h=1e-5) < 1e-4

    def test_default_budget_splits_large_batch(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((9, 3, 32, 32))
        k = rng.standard_normal((2, 3, 3, 3))
        per_image = T._im2col_plan(3, 32, 32, 3, 3, 1, 1)[0].size * 8
        assert 1 <= T._TILE_BYTES // per_image < 9  # several tiles, the last partial
        out = T.conv2d(Tensor(x), Tensor(k), stride=1, pad=1).data
        for i in range(9):
            np.testing.assert_allclose(out[i], conv2d_loops(x[i], k, 1, 1), atol=1e-12)


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
        np.testing.assert_allclose(T.l2_normalize_channels(v).data.reshape(-1), [0.6, 0.8])

    def test_l2_normalize_zero_vector_stays_zero(self):
        out = T.l2_normalize_channels(Tensor(np.zeros((3, 2, 2))))
        assert np.isfinite(out.data).all()
        np.testing.assert_array_equal(out.data, 0.0)

    def test_avgpool_constant(self):
        out = T.avgpool_spatial(Tensor(np.full((4, 3, 3), 2.5)))
        np.testing.assert_allclose(out.data, 2.5)

    def test_avgpool_batched(self):
        rng = np.random.default_rng(3)
        x = rng.random((2, 4, 3, 3))
        out = T.avgpool_spatial(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))

    def test_linear_vector(self):
        w = np.array([[1.0, 2.0], [0.0, -1.0]])
        out = T.linear(Tensor(np.array([3.0, 4.0])), Tensor(w), Tensor(np.array([1.0, 1.0])))
        np.testing.assert_allclose(out.data, [12.0, -3.0])

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


class TestGradients:
    """Every primitive against central differences on randomized shapes."""

    def _check(self, fn, params, tol=1e-4):
        assert T.grad_check(fn, params, h=1e-5) < tol

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
                return T.tsum(T.square(T.relu(T.sub(T.mul(a, b), 0.25))))
            if choice == 1:
                return T.tsum(T.log(T.add(T.exp(a), 1.0)))
            if choice == 2:
                return T.tsum(T.square(T.matmul(a, w)))
            if choice == 3:
                return T.tsum(T.mul(T.softmax(a, axis=1), b))
            return T.tsum(T.square(T.l2_normalize(a, axis=1)) * b)

        self._check(fn, [a, b, w])

    @pytest.mark.parametrize("seed", range(12))
    def test_conv_gradients(self, seed):
        rng = np.random.default_rng([seed, 7])
        stride = 1 + seed % 2
        pad = seed % 2
        x = Tensor(rng.standard_normal((2, 4, 4)), requires_grad=True)
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
        err = T.grad_check(lambda: T.tsum(T.square(p)), [p], h=1e-5)
        assert err < 1e-6

    def test_constant_function_zero_error(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        err = T.grad_check(lambda: Tensor(3.0), [p], h=1e-5)
        assert err == 0.0

    def test_composite_pooled_cosine_pipeline(self):
        """Pooled-feature cosine head on a 2-channel input (the composite
        pipeline oracle)."""
        rng = np.random.default_rng(5)
        x = Tensor(rng.random((2, 4, 4)), requires_grad=True)
        k = Tensor(rng.standard_normal((3, 2, 2, 2)) * 0.5, requires_grad=True)
        proto = Tensor(rng.random((3,)), requires_grad=True)

        def fn():
            feats = T.relu(T.conv2d(x, k, stride=1, pad=0))
            g = T.avgpool_spatial(feats)
            gn = T.l2_normalize(T.reshape(g, (1, 3)), axis=1)
            pn = T.l2_normalize(T.reshape(proto, (1, 3)), axis=1)
            return T.tsum(T.mul(gn, pn))

        assert T.grad_check(fn, [x, k, proto], h=1e-5) < 1e-4

    def test_non_finite_value_raises(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        with pytest.raises(EvaluationError):
            T.grad_check(lambda: T.log(p), [p], h=1e-5)
