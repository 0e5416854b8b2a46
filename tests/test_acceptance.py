"""Acceptance gate: one test per criterion, each printing a PASS line
with its measured numbers (run with -s to see them inline).

The heavy fixtures (the 4-class synthetic task, teachers and students
for three seeds) are session-scoped and shared by the distillation,
outlier, perturbation, and pruning criteria.
"""
import json
import time
import zlib

import numpy as np
import pytest

from protostudent import tensor as T
from protostudent.datasets import gen_altered_color, gen_dataset, gen_strokes
from protostudent.encoder import EncoderConfig, train_teacher
from protostudent.heads import HEAD_KINDS, head_forward
from protostudent.losses import LossWeights, j_from_record, total_loss
from protostudent.lrp import LrpParams, heatmaps
from protostudent.outlier import auc, score_samples
from protostudent.perturb import perturb_eval
from protostudent.replacement import (ReplacementConfig, finetune, init_store,
                                      lowest, masked_logits, prune, train_student)
from protostudent.tensor import Tensor

from conftest import micro_student
from oracles import grad_check

pytestmark = pytest.mark.acceptance

SEEDS = (0, 1, 2)
# desk-scale rates: hundreds of optimizer steps rather than tens of
# thousands, so larger rates and no mid-run decay; the attention heads
# train at a gentler rate (their raw-feature products destabilize early
# epochs at the rate the linear heads want)
HEAD_LR = {"I": 0.05, "II-A": 0.05, "II-B": 0.05,
           "III-A": 0.03, "III-B": 0.03, "III-C": 0.03}
ENCODER_LR, LR_STEP = 1e-3, 20
ENC = EncoderConfig(in_channels=3, blocks=((8, 3, 2), (16, 3, 2), (32, 3, 2)),
                    input_size=(32, 32))


def report(criterion: int, message: str):
    print(f"PASS criterion {criterion}: {message}")


@pytest.fixture(scope="session")
def task_data():
    train = gen_dataset(0, 500, 4)
    test = gen_dataset(1, 100, 4)
    return train, test


@pytest.fixture(scope="session")
def teachers(task_data):
    train, test = task_data
    out = {}
    for seed in SEEDS:
        out[seed] = train_teacher((train.images, train.labels), epochs=15, lr=0.05,
                                  seed=seed, batch_size=64, config=ENC,
                                  val_data=(test.images, test.labels))
    return out


@pytest.fixture(scope="session")
def students(task_data, teachers):
    """All six heads for three seeds, trained for 20 epochs each."""
    train, _ = task_data
    out = {}
    timings = {}
    for seed in SEEDS:
        for kind in HEAD_KINDS:
            t0 = time.time()
            cfg = ReplacementConfig(p_fraction=0.3, epochs=20, seed=seed, batch_size=64,
                                    lr_head=HEAD_LR[kind], lr_encoder=ENCODER_LR,
                                    lr_step_epochs=LR_STEP)
            student, _, _ = train_student(teachers[seed], (train.images, train.labels),
                                          kind, cfg, LossWeights(), protos_per_class=10)
            out[(kind, seed)] = student
            timings[(kind, seed)] = time.time() - t0
    out["timings"] = timings
    return out


class TestCriterion1GradientSuite:
    def test_total_loss_gradients_every_head(self):
        """Objective gradients for the parameters agree with central
        differences on 20 random micro-batches per head."""
        t0 = time.time()
        worst = {}
        for kind in HEAD_KINDS:
            errs = []
            for batch in range(20):
                student = micro_student(kind, seed=1000 + batch)
                rng = np.random.default_rng([ord(kind[0]), len(kind), batch])
                x = rng.random((2, 2, 4, 4))
                labels = rng.integers(0, student.class_count, size=2)
                y_teacher = rng.standard_normal((2, student.class_count))
                k = len(student.store)
                params = student.encoder.params + student.head.params

                def fn():
                    feats = student.encoder.forward(
                        Tensor(np.concatenate([x, student.store.images])))
                    fx, fp = T.split_rows(feats, [2, k])
                    student.store.features = fp
                    logits, rec = head_forward(fx, student.store, student.head)
                    mask = np.ones(k)
                    mask[lowest(student.store.born, 1)] = 0.0
                    y_mask = masked_logits(rec.z, mask, student.head)
                    j = j_from_record(rec, labels, student.store.labels)
                    total, _ = total_loss(labels, logits, y_teacher,
                                          logits.data.argmax(axis=1), y_mask, j,
                                          LossWeights())
                    return total

                errs.append(grad_check(fn, params, h=1e-6))
            worst[kind] = max(errs)
            assert worst[kind] < 1e-4, f"{kind}: max rel error {worst[kind]:.2e}"
        elapsed = time.time() - t0
        assert elapsed < 120, f"gradient suite took {elapsed:.0f}s"
        report(1, "total_loss gradients vs central differences, "
                  + ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
                  + f" (max allowed 1e-4), {elapsed:.0f}s")


class TestCriterion2MaskReplacement:
    def test_mask_zero_count_and_partition_invariants(self):
        t0 = time.time()
        rng = np.random.default_rng(77)
        for trial in range(1000):
            k = int(rng.integers(2, 15))
            style = trial % 3
            if style == 0:
                m = rng.random(k)
            elif style == 1:
                m = np.round(rng.random(k) * 3) / 3   # engineered ties
            else:
                m = np.full(k, float(rng.random()))   # all tied
            p = int(rng.integers(1, k + 1))
            masked = lowest(m, p)
            mask = np.ones(k)
            mask[masked] = 0.0
            assert int((mask == 0).sum()) == p
            # below the p-th smallest all zeroed, above it all kept, and
            # the slots tied with it zeroed from the lowest index up
            tau = m[masked[-1]]
            assert (mask[m < tau] == 0).all() and (mask[m > tau] == 1).all()
            tied = np.flatnonzero(m == tau)
            need = p - int((m < tau).sum())
            np.testing.assert_array_equal(mask[tied], np.arange(len(tied)) >= need)

        # 5-epoch toy run: P u D = S and per-class balance at every epoch
        rng = np.random.default_rng(5)
        imgs, labs = [], []
        for c in range(3):
            base = np.zeros((3, 8, 8))
            base[c] = 0.8
            for _ in range(20):
                imgs.append(np.clip(base + rng.normal(0, 0.1, base.shape), 0, 1))
                labs.append(c)
        imgs, labs = np.asarray(imgs), np.asarray(labs, dtype=np.int64)
        enc_cfg = EncoderConfig(in_channels=3, blocks=((4, 3, 2), (8, 3, 2)),
                                input_size=(8, 8))
        teacher = train_teacher((imgs, labs), epochs=4, lr=0.05, seed=0, config=enc_cfg)
        cfg = ReplacementConfig(p_fraction=0.34, epochs=5, seed=0, batch_size=16)
        student, store, log = train_student(teacher, (imgs, labs), "I", cfg,
                                            LossWeights(), protos_per_class=3)
        proto_ids = set(int(i) for i in init_store(imgs, labs, 3, 0)[0].ids)
        epochs_checked = 0
        for record in log:
            if not record.get("replaced"):
                continue
            for swap in record["replaced"]:
                assert labs[swap["out_id"]] == labs[swap["in_id"]]
                proto_ids.remove(swap["out_id"])
                proto_ids.add(swap["in_id"])
            assert len(proto_ids) == 9
            counts = np.bincount([labs[i] for i in proto_ids])
            np.testing.assert_array_equal(counts, 3)
            epochs_checked += 1
        assert epochs_checked == 5
        assert proto_ids == set(int(i) for i in store.ids)
        elapsed = time.time() - t0
        assert elapsed < 60, f"mask suite took {elapsed:.0f}s"
        report(2, f"1000 masks exact zero counts; partition and balance held "
                  f"over {epochs_checked} epochs, {elapsed:.0f}s")


def _bias_free_toy(seed=0):
    """Two conv blocks + pooled-map head with no biases anywhere."""
    cfg = EncoderConfig(in_channels=2, blocks=((3, 2, 1), (4, 2, 1)), input_size=(5, 5))
    student = micro_student("II-A", seed=seed, k=2, classes=2, config=cfg,
                            zero_bias=True)
    rng = np.random.default_rng([seed, 55])
    student.head.w.data = rng.uniform(0.5, 1.0, size=student.head.w.shape)
    return student


class TestCriterion3LrpConservation:
    def test_exact_at_eps_zero_and_bounded_at_defaults(self):
        t0 = time.time()
        student = _bias_free_toy(0)
        exact = LrpParams(epsilon=0.0)
        defaults = LrpParams(epsilon=1e-3)
        rng = np.random.default_rng(3)
        worst_exact = 0.0
        worst_default = 0.0
        for _ in range(100):
            x = rng.random((2, 5, 5)) + 0.05
            y = student.predict_logits(x[None])[0]
            logit = y.max()
            total_e = sum(heatmaps(student, x, k, exact).heat_input.sum()
                          for k in range(2))
            total_d = sum(heatmaps(student, x, k, defaults).heat_input.sum()
                          for k in range(2))
            worst_exact = max(worst_exact, abs(total_e - logit))
            worst_default = max(worst_default, abs(total_d - logit) / abs(logit))
        assert worst_exact < 1e-9, f"eps=0 absolute drift {worst_exact:.2e}"
        assert worst_default < 0.02, f"default-eps relative drift {worst_default:.2%}"
        elapsed = time.time() - t0
        assert elapsed < 120, f"conservation suite took {elapsed:.0f}s"
        report(3, f"eps=0 drift {worst_exact:.1e} (<1e-9); alpha/beta/eps defaults "
                  f"drift {worst_default:.2%} (<2%) over 100 samples, {elapsed:.0f}s")


class TestCriterion4HeadRelations:
    def test_dominance_equality_and_unit_range(self):
        from oracles import sim_IIA, sim_IIB
        rng = np.random.default_rng(4)
        for _ in range(500):
            fx = rng.random((3, 3, 3))
            fp = rng.random((3, 3, 3))
            smap, _ = sim_IIB(fx, fp)
            assert (smap >= sim_IIA(fx, fp)).all()
        for _ in range(50):
            fx = rng.random((3, 3, 3))
            fp = np.tile(rng.random((3, 1, 1)), (1, 3, 3))
            smap, _ = sim_IIB(fx, fp)
            np.testing.assert_array_equal(smap, sim_IIA(fx, fp))
        for kind in HEAD_KINDS:
            student = micro_student(kind, seed=40)
            imgs = rng.random((200, 2, 4, 4))
            _, rec = student.forward(imgs)
            u = rec.u
            assert (u >= -1e-12).all() and (u <= 1 + 1e-12).all(), kind
        report(4, "max-head dominance on 500 pairs (exact), equality for "
                  "constant prototypes, u in [0,1] for all heads")


class TestCriterion5DistillationParity:
    def test_every_head_within_three_points_of_teacher(self, task_data, teachers,
                                                       students):
        _, test = task_data
        lines = []
        total_time = sum(students["timings"].values())
        for seed in SEEDS:
            assert teachers[seed].train_accuracy >= 0.90, \
                f"teacher seed {seed} under 90% train accuracy"
            teacher_acc = teachers[seed].accuracy(test.images, test.labels)
            for kind in HEAD_KINDS:
                acc = students[(kind, seed)].accuracy(test.images, test.labels)
                assert acc >= teacher_acc - 0.03, \
                    f"{kind} seed {seed}: student {acc:.3f} vs teacher {teacher_acc:.3f}"
                lines.append(f"{kind}/s{seed} {acc:.3f}")
        assert total_time < 1200, f"training took {total_time:.0f}s"
        report(5, f"teacher parity (within 3 points) for: " + " ".join(lines)
                  + f"; training {total_time:.0f}s")


class TestCriterion6OutlierDetection:
    def test_strokes_and_color_aucs_head_iib(self, task_data, teachers, students):
        """Prototype-similarity score vs the max-probability baseline of
        the reference (non-prototype) predictor, the teacher."""
        t0 = time.time()
        _, test = task_data
        student = students[("II-B", 0)]
        strokes = np.stack([gen_strokes(im, 5, 3, seed=1000 + i)
                            for i, im in enumerate(test.images)])
        altered = np.stack([gen_altered_color(im, seed=2000 + i)
                            for i, im in enumerate(test.images)])
        labels = np.array([0] * len(test.images) + [1] * len(test.images))
        results = {}
        for name, outs in (("strokes", strokes), ("altered_color", altered)):
            reps = score_samples(student, np.concatenate([test.images, outs]), 20,
                                 baseline_model=teachers[0])
            o_auc = auc([r.o for r in reps], labels)
            mp_auc = auc([r.maxprob for r in reps], labels)
            results[name] = (o_auc, mp_auc)
            assert o_auc > 0.60, f"{name}: o-AUC {o_auc:.3f}"
        assert any(o > mp for o, mp in results.values()), \
            f"o-AUC never beat the baseline: {results}"
        elapsed = time.time() - t0
        assert elapsed < 300, f"outlier suite took {elapsed:.0f}s"
        report(6, "II-B k'=20 " + ", ".join(
            f"{n}: o-AUC {o:.3f} (baseline maxprob {m:.3f})" for n, (o, m) in results.items())
            + f", {elapsed:.0f}s")


class TestCriterion7PerturbationQuality:
    def test_relevance_ordering_beats_random(self, task_data, students):
        t0 = time.time()
        train, test = task_data
        student = students[("III-B", 0)]
        sub = test.images[:200]
        params = LrpParams()
        fill = train.images.mean(axis=(0, 2, 3))
        rel = perturb_eval(student, sub, region=4, steps=15, policy="relevance",
                           params=params, fill=fill)
        rnd = perturb_eval(student, sub, region=4, steps=15, policy="random",
                           params=params, fill=fill, seed=0)
        assert rel.aopc() >= 1.10 * rnd.aopc(), \
            f"AOPC relevance {rel.aopc():.4f} vs random {rnd.aopc():.4f}"
        elapsed = time.time() - t0
        assert elapsed < 300, f"perturbation suite took {elapsed:.0f}s"
        report(7, f"III-B AOPC relevance {rel.aopc():.4f} >= 1.1 x random "
                  f"{rnd.aopc():.4f} over 200 samples, {elapsed:.0f}s")


class TestCriterion8Pruning:
    def test_prune_30_percent_with_finetune(self, task_data, teachers, students):
        train, test = task_data
        student = students[("II-B", 0)]
        acc_before = student.accuracy(test.images, test.labels)
        pruned = prune(student, 0.3)
        cfg = ReplacementConfig(p_fraction=0.3, epochs=3, seed=0, batch_size=64,
                                lr_head=HEAD_LR["II-B"], lr_encoder=ENCODER_LR,
                                lr_step_epochs=LR_STEP)
        finetune(pruned, teachers[0], (train.images, train.labels), 3, cfg,
                 LossWeights())
        acc_after = pruned.accuracy(test.images, test.labels)
        assert abs(acc_after - acc_before) <= 0.02, \
            f"accuracy moved {acc_before:.3f} -> {acc_after:.3f}"
        report(8, f"II-B prune 30% + 3 finetune epochs: {acc_before:.3f} -> "
                  f"{acc_after:.3f} (|delta| <= 2 points), K {len(student.store)} "
                  f"-> {len(pruned.store)}")


class TestCriterion9AucOracle:
    def test_exact_match_on_50_instances(self):
        def pairs_oracle(scores, labels):
            scores = np.asarray(scores, dtype=np.float64)
            labels = np.asarray(labels).astype(bool)
            pos, neg = scores[labels], scores[~labels]
            wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
            return float(wins / (len(pos) * len(neg)))

        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(4, 200))
            scores = np.round(rng.random(n) * 10) / 10
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == pairs_oracle(scores, labels)
        report(9, "rank AUC equals brute-force pair counting exactly on 50 "
                  "random tied instances")


class TestCriterion10Determinism:
    def test_pipelines_byte_identical(self, tmp_path):
        from protostudent.cli import main
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            cfg = {"out_dir": str(out), "seed": 3, "classes": 3, "n_per_class": 30,
                   "n_test_per_class": 6, "encoder_blocks": [[6, 3, 2], [12, 3, 2]],
                   "teacher_epochs": 3, "epochs": 2, "batch_size": 32,
                   "lr_head": 0.05, "lr_encoder": 0.001, "head": "II-B",
                   "protos_per_class": 4, "explain_samples": 2, "topk": 2,
                   "kprime": [1, 5], "steps": 8}
            path = tmp_path / f"cfg_{run}.json"
            path.write_text(json.dumps(cfg))
            for cmd in ("train-teacher", "train-student", "explain", "outlier-eval"):
                assert main([cmd, "--config", str(path)]) == 0
            metrics = (out / "student_report.json").read_bytes()
            summary = (out / "outlier_summary.json").read_bytes()
            checks = {f.name: zlib.crc32(f.read_bytes())
                      for f in sorted((out / "heatmaps").glob("*.pgm"))}
            outputs.append((metrics, summary, checks))
        assert outputs[0][0] == outputs[1][0], "metrics JSON differs"
        assert outputs[0][1] == outputs[1][1], "outlier summary differs"
        assert outputs[0][2] == outputs[1][2], "heatmap checksums differ"
        report(10, f"two full runs byte-identical: metrics, outlier summary, "
                   f"{len(outputs[0][2])} heatmap checksums")
