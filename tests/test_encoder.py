"""Encoder and teacher: shape arithmetic, nonnegativity, training
behavior, and soft labels."""
import numpy as np
import pytest

from protostudent import tensor as T
from protostudent.encoder import (Encoder, EncoderConfig, TrainingError, make_teacher,
                                  train_teacher)
from protostudent.tensor import DimensionError, Tensor

from conftest import ROWS_CONFIG
from oracles import encode
from oracles import train_teacher as reference_train_teacher


def blob_data(n_per_class=20, classes=2, size=8, seed=0):
    """Linearly separable class-colored noise images."""
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


class TestEncoder:
    def test_default_feature_shape(self):
        assert EncoderConfig().feature_shape() == (64, 4, 4)

    def test_default_encode_shape(self):
        enc = Encoder(EncoderConfig(), seed=0)
        rng = np.random.default_rng(0)
        assert encode(enc, rng.random((2, 3, 32, 32))).shape == (2, 64, 4, 4)

    def test_zero_image_zero_features_at_init(self):
        # biases start at zero, so an all-zero image propagates to zero
        enc = Encoder(SMALL, seed=1)
        feats = encode(enc, np.zeros((1, 3, 8, 8)))
        np.testing.assert_array_equal(feats, 0.0)

    def test_deterministic_encode(self):
        enc = Encoder(SMALL, seed=2)
        img = np.random.default_rng(3).random((1, 3, 8, 8))
        np.testing.assert_array_equal(encode(enc, img), encode(enc, img.copy()))

    def test_nonnegative_output(self):
        enc = Encoder(SMALL, seed=4)
        rng = np.random.default_rng(5)
        for _ in range(50):
            assert (encode(enc, rng.random((1, 3, 8, 8))) >= 0).all()

    @pytest.mark.parametrize("config", [SMALL, EncoderConfig()], ids=["small", "default"])
    def test_recorded_block_inputs_nonnegative(self, config):
        """Every block input relevance propagation reads is >= 0 for images
        in [0, 1], with biases of both signs: the image itself, then ReLU
        outputs. The alpha/beta rule's nonnegative-input branch rests on
        this."""
        enc = Encoder(config, seed=8)
        rng = np.random.default_rng(9)
        for b in enc.biases:
            b.data = rng.standard_normal(b.shape)
        images = rng.random((5, config.in_channels, *config.input_size))
        images[0] = 0.0
        images[1] = 1.0
        _, records = enc.forward_recorded(images)
        assert len(records) == len(config.blocks)
        for rec in records:
            assert (rec["input"] >= 0).all()

    def test_forward_is_one_node_per_block(self):
        """Each block is one fused conv+bias+ReLU node whose parents are
        (block input, kernel, bias): no separate ReLU node."""
        enc = Encoder(SMALL, seed=10)
        x = Tensor(np.random.default_rng(11).random((3, 3, 8, 8)))
        h = enc.forward(x)
        for kern, bias in reversed(list(zip(enc.kernels, enc.biases))):
            h_in, k, b = h._parents
            assert k is kern and b is bias
            h = h_in
        assert h is x

    @pytest.mark.parametrize("config", [SMALL, EncoderConfig()], ids=["small", "default"])
    def test_forward_matches_composed_blocks(self, config):
        """Features and every kernel, bias and input gradient equal the
        relu(conv2d(...)) stack composed here, bit for bit."""
        rng = np.random.default_rng(12)
        images = rng.random((5, config.in_channels, *config.input_size))
        seed = rng.standard_normal((5, *config.feature_shape()))

        def run(fused):
            enc = Encoder(config, seed=13)
            for b in enc.biases:
                b.data = np.random.default_rng(14).standard_normal(b.shape)
            x = Tensor(images, requires_grad=True)
            if fused:
                h = enc.forward(x)
            else:
                h = x
                for kern, bias, (_, k, stride) in zip(enc.kernels, enc.biases, config.blocks):
                    h = T.relu(T.conv2d(h, kern, bias, stride=stride, pad=k // 2))
            h.backward(seed)
            return [h.data, x.grad] + [p.grad for p in enc.params]

        for got, want in zip(run(True), run(False)):
            assert np.array_equal(got, want)

    def test_recorded_forward_matches_composed_blocks(self):
        enc = Encoder(SMALL, seed=15)
        for b in enc.biases:
            b.data = np.random.default_rng(16).standard_normal(b.shape)
        a = np.random.default_rng(17).random((4, 3, 8, 8))
        feats, records = enc.forward_recorded(a)
        with T.no_grad():
            for rec, kern, bias, (_, k, stride) in zip(records, enc.kernels, enc.biases,
                                                       SMALL.blocks):
                assert np.array_equal(rec["input"], a)
                a = np.maximum(T.conv2d(Tensor(a), kern, bias, stride=stride, pad=k // 2).data, 0.0)
        assert np.array_equal(feats, a)

    def test_recorded_forward_rejects_single_image(self):
        enc = Encoder(SMALL, seed=6)
        with pytest.raises(DimensionError, match=r"\[N,C,H,W\]"):
            enc.forward_recorded(np.zeros((3, 8, 8)))

    def test_too_small_feature_map_rejected(self):
        with pytest.raises(DimensionError):
            EncoderConfig(in_channels=3, blocks=((4, 3, 2),) * 3, input_size=(8, 8))

    def test_recorded_forward_matches_encode(self):
        enc = Encoder(SMALL, seed=6)
        img = np.random.default_rng(7).random((1, 3, 8, 8))
        feats, records = enc.forward_recorded(img)
        np.testing.assert_allclose(feats, encode(enc, img), atol=0)
        assert len(records) == len(SMALL.blocks)

    @pytest.mark.parametrize("config,n", [(SMALL, 4), (EncoderConfig(), 11)],
                             ids=["small", "default-across-conv-tiles"])
    def test_recorded_forward_batch_matches_single_calls(self, config, n):
        """A batch gives, image for image, the features and record inputs
        of calls on a batch of one; 11 default-size images span two conv2d
        tiles."""
        enc = Encoder(config, seed=8)
        imgs = np.random.default_rng(9).random((n, config.in_channels, *config.input_size))
        feats, records = enc.forward_recorded(imgs)
        assert feats.shape == (n, *config.feature_shape())
        for i, img in enumerate(imgs):
            one_feats, one_records = enc.forward_recorded(img[None])
            np.testing.assert_array_equal(feats[i], one_feats[0])
            for rec, one in zip(records, one_records):
                assert rec["input"].shape == (n, *one["input"].shape[1:])
                np.testing.assert_array_equal(rec["input"][i], one["input"][0])
                assert (rec["stride"], rec["pad"]) == (one["stride"], one["pad"])


def test_teacher_logit_rows_equal_one_image_calls():
    """teacher.predict_logits over 7 images gives, row for row, the bytes of
    one-image calls."""
    teacher = make_teacher(ROWS_CONFIG, 3, seed=62)
    xs = np.random.default_rng(63).random((7, 3, 16, 16))
    logits = teacher.predict_logits(xs)
    for i in range(len(xs)):
        assert logits[i].tobytes() == teacher.predict_logits(xs[i:i + 1])[0].tobytes()


class TestTeacherTraining:
    def test_separable_two_class_accuracy(self):
        imgs, labs = blob_data()
        teacher = train_teacher((imgs, labs), epochs=10, lr=0.05, seed=0,
                                batch_size=16, config=SMALL)
        assert teacher.train_accuracy >= 0.95

    def test_zero_epochs_chance_level(self):
        imgs, labs = blob_data(n_per_class=50, classes=2)
        teacher = train_teacher((imgs, labs), epochs=0, lr=0.05, seed=0, config=SMALL)
        assert abs(teacher.train_accuracy - 0.5) <= 0.25

    def test_same_seed_identical_parameters(self):
        imgs, labs = blob_data()
        t1 = train_teacher((imgs, labs), epochs=3, lr=0.05, seed=9, config=SMALL)
        t2 = train_teacher((imgs, labs), epochs=3, lr=0.05, seed=9, config=SMALL)
        for p1, p2 in zip(t1.params, t2.params):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_matches_reference_loop(self):
        """The teacher loop on `optim.batches` and `losses.cross_entropy`
        reproduces the loop with its own permutation slicer and inline
        cross-entropy bit for bit, with a partial last batch (60 images in
        batches of 16 and of 7)."""
        imgs, labs = blob_data(n_per_class=20, classes=3)
        for seed in (3, 11):
            for batch_size in (16, 7):
                got = train_teacher((imgs, labs), epochs=2, lr=0.05, seed=seed,
                                    batch_size=batch_size, config=SMALL)
                want = reference_train_teacher((imgs, labs), epochs=2, lr=0.05, seed=seed,
                                               batch_size=batch_size, config=SMALL)
                for p_got, p_want in zip(got.params, want.params):
                    assert p_got.data.tobytes() == p_want.data.tobytes()
                assert got.train_accuracy == want.train_accuracy

    def test_diverging_loss_names_epoch_and_iteration(self):
        """At lr 1e300 the first step blows the weights up and the second
        step's loss is non-finite: the error names epoch 0, iteration 1."""
        imgs, labs = blob_data(n_per_class=4, classes=3)
        with np.errstate(all="ignore"), \
                pytest.raises(TrainingError, match=r"non-finite at epoch 0 iteration 1$"):
            train_teacher((imgs, labs), epochs=2, lr=1e300, seed=0, batch_size=4, config=SMALL)

    def test_single_class_rejected(self):
        imgs, labs = blob_data(classes=1)
        with pytest.raises(TrainingError):
            train_teacher((imgs, labs), epochs=1, lr=0.05, seed=0, config=SMALL)

    def test_loss_non_increasing_trend(self):
        """Epoch-mean training loss should trend down (5% jitter allowed)."""
        imgs, labs = blob_data(n_per_class=30)
        losses = []
        teacher = None
        for epochs in (2, 6):
            teacher = train_teacher((imgs, labs), epochs=epochs, lr=0.05, seed=1,
                                    batch_size=16, config=SMALL)
            with T.no_grad():
                logits = teacher.forward(Tensor(imgs))
                logp = T.log_softmax(logits, axis=1).data
            losses.append(-logp[np.arange(len(labs)), labs].mean())
        assert losses[1] <= losses[0] * 1.05


class TestSoftLabels:
    def test_uniform_logits_uniform_probs(self):
        probs = T.softmax(Tensor(np.zeros((1, 4))), axis=-1).data
        np.testing.assert_allclose(probs, 0.25)

    def test_extreme_logits_saturate(self):
        probs = T.softmax(Tensor(np.array([10.0, -10.0])), axis=-1).data
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-8)
