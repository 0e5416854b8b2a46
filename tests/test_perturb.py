"""Region perturbation mechanics: tile ordering, curve endpoints, and
configuration validation."""
import numpy as np
import pytest

from protostudent.heads import ConfigurationError
from protostudent.perturb import PerturbationCurve, perturb_eval, tile_order

from conftest import micro_student


class TestTileOrder:
    def test_orders_by_absolute_sum(self):
        heat = np.zeros((4, 4))
        heat[0, 0] = 0.5    # tile 0
        heat[2, 3] = -2.0   # tile 3 (region 2 -> 2x2 tiles)
        order = tile_order(heat, 2)
        assert order[0] == 3 and order[1] == 0

    def test_tie_break_lower_index_first(self):
        heat = np.ones((4, 4))
        order = tile_order(heat, 2)
        np.testing.assert_array_equal(order, [0, 1, 2, 3])


class TestPerturbEval:
    def _student_and_images(self, seed=0, n=6):
        student = micro_student("II-A", seed=seed, k=4)
        rng = np.random.default_rng(seed + 1)
        return student, rng.random((n, 2, 4, 4))

    def test_zero_steps_single_point(self):
        student, imgs = self._student_and_images()
        curve = perturb_eval(student, imgs, region=2, steps=0, policy="random")
        assert len(curve.mean_logits) == 1
        logits, _ = student.forward(imgs)
        preds = logits.data.argmax(axis=1)
        want = logits.data[np.arange(len(imgs)), preds].mean()
        assert curve.mean_logits[0] == pytest.approx(want)

    def test_all_tiles_perturbation_reaches_mean_image(self):
        student, imgs = self._student_and_images(seed=2)
        curve = perturb_eval(student, imgs, region=2, steps=4, policy="random")
        fill = imgs.mean(axis=(0, 2, 3))
        flat = np.tile(fill[None, :, None, None], (len(imgs), 1, 4, 4))
        logits0, _ = student.forward(imgs)
        preds = logits0.data.argmax(axis=1)
        logits_flat = student.predict_logits(flat)
        want = logits_flat[np.arange(len(imgs)), preds].mean()
        assert curve.mean_logits[-1] == pytest.approx(want, abs=1e-9)

    def test_region_must_divide_image(self):
        student, imgs = self._student_and_images(seed=3)
        with pytest.raises(ConfigurationError):
            perturb_eval(student, imgs, region=3, steps=1, policy="random")

    def test_steps_bounded_by_tiles(self):
        student, imgs = self._student_and_images(seed=4)
        with pytest.raises(ConfigurationError):
            perturb_eval(student, imgs, region=2, steps=5, policy="random")

    def test_unknown_policy_rejected(self):
        student, imgs = self._student_and_images(seed=5)
        with pytest.raises(ConfigurationError):
            perturb_eval(student, imgs, region=2, steps=2, policy="sorted")

    def test_random_policy_deterministic_per_seed(self):
        student, imgs = self._student_and_images(seed=6)
        c1 = perturb_eval(student, imgs, region=2, steps=4, policy="random", seed=5)
        c2 = perturb_eval(student, imgs, region=2, steps=4, policy="random", seed=5)
        assert c1.mean_logits == c2.mean_logits

    def test_relevance_policy_runs_every_head(self, head_kind):
        student = micro_student(head_kind, seed=7, k=3)
        rng = np.random.default_rng(8)
        imgs = rng.random((4, 2, 4, 4))
        curve = perturb_eval(student, imgs, region=2, steps=4, policy="relevance")
        assert len(curve.mean_logits) == 5
        assert all(np.isfinite(v) for v in curve.mean_logits)


class TestAopc:
    def test_aopc_mean_drop(self):
        curve = PerturbationCurve(mean_logits=[2.0, 1.5, 1.0, 0.5])
        assert curve.aopc() == pytest.approx((0.5 + 1.0 + 1.5) / 3)

    def test_aopc_empty_curve(self):
        curve = PerturbationCurve(mean_logits=[2.0])
        assert curve.aopc() == 0.0
