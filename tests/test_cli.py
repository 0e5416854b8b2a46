"""CLI: config validation exit codes, artifact production, and run
reproducibility at tiny scale."""
import hashlib
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from protostudent.checkpoint import load_student, save_student
from protostudent.cli import main
from protostudent.config import ConfigError, RunConfig


def tiny_config(out_dir, **extra):
    cfg = {
        "out_dir": str(out_dir),
        "seed": 0,
        "classes": 3,
        "n_per_class": 30,
        "n_test_per_class": 6,
        "encoder_blocks": [[6, 3, 2], [12, 3, 2]],
        "teacher_epochs": 4,
        "epochs": 3,
        "batch_size": 32,
        "lr_head": 0.05,
        "lr_encoder": 0.001,
        "head": "II-B",
        "protos_per_class": 4,
        "explain_samples": 2,
        "topk": 3,
        "kprime": [1, 5],
        "steps": 8,
        "prune_fraction": 0.25,
        "finetune_epochs": 1,
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, name="cfg.json", **extra):
    path = tmp_path / name
    path.write_text(json.dumps(tiny_config(tmp_path / "out", **extra)))
    return path


class TestConfigValidation:
    def test_bad_head_exit_2_names_field(self, tmp_path, capsys):
        path = write_config(tmp_path, head="IV")
        assert main(["train-teacher", "--config", str(path)]) == 2
        assert "head" in capsys.readouterr().err

    def test_unknown_field_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nonsense_knob": 1}))
        assert main(["train-teacher", "--config", str(path)]) == 2
        assert "nonsense_knob" in capsys.readouterr().err

    def test_alpha_beta_constraint(self, tmp_path, capsys):
        """beta is alpha - 1, so lrp_beta is an unknown field, and an
        alpha below 1 (a negative beta) is refused."""
        for fields, name in (({"lrp_alpha": 2.0, "lrp_beta": 1.0}, "lrp_beta"),
                             ({"lrp_alpha": 0.5}, "lrp_alpha")):
            path = write_config(tmp_path, **fields)
            assert main(["train-teacher", "--config", str(path)]) == 2
            err = capsys.readouterr().err.strip()
            assert f"'{name}'" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_policy_is_not_a_setting(self, tmp_path, capsys):
        """perturb-eval always runs both policies, so a config "policy"
        key is an unknown field and --policy is not a flag."""
        path = write_config(tmp_path, policy="random")
        assert main(["perturb-eval", "--config", str(path)]) == 2
        assert "policy" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["perturb-eval", "--policy", "random"])
        assert exc.value.code == 2

    def test_loader_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            RunConfig.load(None, {"p_fraction": 1.5})

    @pytest.mark.parametrize("field,bad,edge", [
        ("topk", -1, 1), ("topk", 0, 1), ("batch_size", 0, 1), ("explain_samples", -1, 0),
        ("epochs", -1, 0), ("teacher_epochs", -1, 0), ("finetune_epochs", -1, 0)])
    def test_count_out_of_range_names_field(self, field, bad, edge):
        """Each count is refused below its floor and accepted at it; an
        accepted topk = -1 would slice the ranking to K - 1 pairs."""
        with pytest.raises(ConfigError) as exc:
            RunConfig(**{field: bad}).validate()
        assert exc.value.field == field
        RunConfig(**{field: edge}).validate()

    @pytest.mark.parametrize("argv", [["--topk", "0"], ["--samples", "-2"], ["--epochs", "-1"]])
    def test_cli_count_out_of_range_exit_2_one_line(self, tmp_path, capsys, argv):
        path = write_config(tmp_path)
        assert main(["explain", "--config", str(path)] + argv) == 2
        err = capsys.readouterr().err.strip()
        assert argv[0].lstrip("-").replace("samples", "explain_samples") in err
        assert len(err.splitlines()) == 1

    def test_missing_teacher_exit_2_one_line(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["train-student", "--config", str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert "teacher.ckpt" in err and len(err.splitlines()) == 1

    def test_defaults_follow_training_recipe(self):
        cfg = RunConfig()
        assert (cfg.lambda1, cfg.lambda2, cfg.lambda3) == (1.0, 1.0, 0.1)
        assert (cfg.lr_head, cfg.lr_encoder) == (1e-3, 1e-4)
        assert (cfg.momentum, cfg.weight_decay) == (0.9, 1e-4)
        assert (cfg.lr_step_epochs, cfg.lr_gamma) == (10, 0.1)
        assert (cfg.lrp_alpha, cfg.lrp_epsilon) == (1.7, 1e-3)
        assert cfg.p_fraction == 0.3


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny teacher+student pipeline shared by the artifact tests."""
    root = tmp_path_factory.mktemp("cli")
    path = root / "cfg.json"
    path.write_text(json.dumps(tiny_config(root / "out")))
    assert main(["train-teacher", "--config", str(path)]) == 0
    assert main(["train-student", "--config", str(path)]) == 0
    return root, path


class TestPipelineArtifacts:
    def test_reports_written(self, pipeline):
        root, _ = pipeline
        out = root / "out"
        assert (out / "teacher.ckpt").exists()
        assert (out / "student.ckpt").exists()
        report = json.loads((out / "student_report.json").read_text())
        assert 0.0 <= report["test_accuracy"] <= 1.0
        log_lines = (out / "training_log.jsonl").read_text().strip().splitlines()
        assert all("loss" in json.loads(line) for line in log_lines)

    def test_explain_exports_topk_pairs(self, pipeline):
        root, path = pipeline
        assert main(["explain", "--config", str(path), "--topk", "3"]) == 0
        files = sorted((root / "out" / "heatmaps").glob("sample0000_*"))
        # 3 pairs x (input, proto) x (pgm, json)
        assert len([f for f in files if f.suffix == ".pgm"]) == 6
        assert len([f for f in files if f.suffix == ".json"]) == 6
        meta = json.loads(files[1].read_text()) if files[1].suffix == ".json" else None

    def test_heatmap_checksums_stable_across_runs(self, pipeline, tmp_path):
        root, path = pipeline
        assert main(["explain", "--config", str(path)]) == 0
        first = {f.name: zlib.crc32(f.read_bytes())
                 for f in (root / "out" / "heatmaps").glob("*.pgm")}
        assert main(["explain", "--config", str(path)]) == 0
        second = {f.name: zlib.crc32(f.read_bytes())
                  for f in (root / "out" / "heatmaps").glob("*.pgm")}
        assert first == second

    def test_explain_sidecars_carry_residual_and_repeat_bytes(self, pipeline):
        """Every sidecar carries the side's conservation residual, and two
        explain runs write byte-identical heatmaps and sidecars."""
        root, path = pipeline
        runs = []
        for _ in range(2):
            assert main(["explain", "--config", str(path)]) == 0
            runs.append({f.name: f.read_bytes()
                         for f in (root / "out" / "heatmaps").glob("sample*")})
        assert runs[0] == runs[1]
        sidecars = [json.loads(data) for name, data in runs[0].items()
                    if name.endswith(".json")]
        assert len(sidecars) == 2 * 3 * 2  # samples x topk x sides
        for meta in sidecars:
            residual = meta["conservation_residual"]
            assert residual is None or (np.isfinite(residual) and residual >= 0.0)

    def test_explain_sidecar_checksums_match_pgm_files(self, pipeline):
        """Each sidecar's checksum is the CRC32 of the PGM file beside it."""
        root, path = pipeline
        assert main(["explain", "--config", str(path)]) == 0
        sidecars = sorted((root / "out" / "heatmaps").glob("sample*.json"))
        assert len(sidecars) == 2 * 3 * 2  # samples x topk x sides
        for meta_path in sidecars:
            pgm = meta_path.with_suffix(".pgm")
            assert json.loads(meta_path.read_text())["checksum"] == zlib.crc32(pgm.read_bytes())

    def test_outlier_eval_csv_and_summary(self, pipeline):
        root, path = pipeline
        assert main(["outlier-eval", "--config", str(path), "--setup", "C"]) == 0
        out = root / "out"
        rows = (out / "outlier_scores.csv").read_text().strip().splitlines()
        assert rows[0] == "sample_id,label,o_top1,o_top5,maxprob,pred_class"
        assert len(rows) == 1 + 2 * 18
        summary = json.loads((out / "outlier_summary.json").read_text())
        assert {"auc_o_top1", "auc_o_top5", "auc_o_all", "auc_maxprob"} <= set(summary)

    @pytest.mark.parametrize("kprime,want", [("1,5", [1, 5]), ("3", [3])])
    def test_outlier_eval_one_auc_and_column_per_kprime(self, pipeline, kprime, want):
        """Every kprime entry k' gets its own `auc_o_top{k'}` and `o_top{k'}`
        column, and no other top-k' AUC is written."""
        root, path = pipeline
        assert main(["outlier-eval", "--config", str(path), "--kprime", kprime]) == 0
        out = root / "out"
        summary = json.loads((out / "outlier_summary.json").read_text())
        assert sorted(key for key in summary if key.startswith("auc_o_top")) == \
            [f"auc_o_top{k}" for k in want]
        assert summary["kprime"] == want
        header = (out / "outlier_scores.csv").read_text().splitlines()[0]
        assert header == ",".join(["sample_id", "label", *(f"o_top{k}" for k in want),
                                   "maxprob", "pred_class"])

    def test_perturb_eval_curves(self, pipeline):
        root, path = pipeline
        assert main(["perturb-eval", "--config", str(path)]) == 0
        out = root / "out"
        for policy in ("relevance", "random"):
            rows = (out / f"curve_{policy}.csv").read_text().strip().splitlines()
            assert rows[0] == "step,mean_logit"
            assert len(rows) == 1 + 8 + 1  # header + steps + step 0

    def test_prune_reports_accuracy(self, pipeline):
        root, path = pipeline
        assert main(["prune", "--config", str(path)]) == 0
        report = json.loads((root / "out" / "prune_report.json").read_text())
        assert report["k_before"] == 12 and report["k_after"] == 9
        assert (root / "out" / "student_pruned.ckpt").exists()


class TestSettingsAboveTheirRange:
    """A setting bounded by the loaded student or the test set exits 2 and
    names its field, before any artifact is written; none is clamped."""

    @pytest.mark.parametrize("command,argv,field", [
        ("explain", ["--topk", "13"], "topk"),                     # K = 12
        ("outlier-eval", ["--kprime", "1,13"], "kprime"),
        ("outlier-eval", ["--kprime", "13,5"], "kprime"),
        ("explain", ["--samples", "19"], "explain_samples"),       # 18 test images
    ], ids=["topk", "kprime-last", "kprime-first", "explain_samples"])
    def test_exit_2_names_field(self, pipeline, capsys, command, argv, field):
        root, path = pipeline
        before = _digests(root / "out")
        assert main([command, "--config", str(path)] + argv) == 2
        err = capsys.readouterr().err.strip()
        assert f"'{field}'" in err and len(err.splitlines()) == 1
        assert _digests(root / "out") == before


class TestBadConfigValues:
    """A config value of the wrong type or below its range exits 2, names
    its field on one stderr line and writes nothing, in the command that
    reads it."""

    @pytest.mark.parametrize("command,field,bad", [
        ("perturb-eval", "region", 0),
        ("perturb-eval", "region", -4),
        ("train-student", "epochs", "3"),
        ("outlier-eval", "kprime", 5),
        ("train-teacher", "classes", 2.5),
        ("train-teacher", "seed", None),
        ("train-teacher", "encoder_blocks", [[8, 3]]),
        ("perturb-eval", "steps", -1),
        ("train-teacher", "dataset_family", "foo"),
        ("train-teacher", "n_test_per_class", 0),
        ("train-teacher", "image_size", 0),
        ("train-teacher", "encoder_blocks", [[6, 0, 2], [12, 3, 2]]),
        ("train-teacher", "encoder_blocks", [[6, 3, 0], [12, 3, 2]]),
        ("train-teacher", "n_per_class", 0),
        ("train-teacher", "teacher_lr", -0.05),
        ("train-student", "lr_head", -0.05),
        ("train-student", "lr_encoder", 0),
        ("train-student", "weight_decay", -1),
        ("train-student", "lr_step_epochs", -3),
        ("train-student", "momentum", 1.5),
        ("train-student", "momentum", 1.0),
        ("train-student", "momentum", -0.1),
        ("train-student", "lr_gamma", -1),
        ("train-student", "lr_gamma", 0),
        ("explain", "lrp_epsilon", -0.5),
        ("outlier-eval", "stroke_count", 0),
        ("train-teacher", "seed", -1),
    ], ids=["region-0", "region-negative", "epochs-string", "kprime-int", "classes-float",
            "seed-null", "encoder_blocks-two-ints", "steps-negative", "dataset_family-unknown",
            "n_test_per_class-0", "image_size-0", "encoder_blocks-kernel-0",
            "encoder_blocks-stride-0", "n_per_class-0", "teacher_lr-negative",
            "lr_head-negative", "lr_encoder-0", "weight_decay-negative",
            "lr_step_epochs-negative", "momentum-1.5", "momentum-1", "momentum-negative",
            "lr_gamma-negative", "lr_gamma-0", "lrp_epsilon-negative", "stroke_count-0",
            "seed-negative"])
    def test_exit_2_names_field(self, pipeline, capsys, command, field, bad):
        root, _ = pipeline
        path = root / f"bad_{field}.json"
        path.write_text(json.dumps(tiny_config(root / "out", **{field: bad})))
        before = _digests(root / "out")
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err.strip()
        assert f"'{field}'" in err and len(err.splitlines()) == 1
        assert _digests(root / "out") == before

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        """`--seed -1` is refused by the config check, before any data is
        generated: exit 2 naming the field, not a numpy traceback."""
        path = write_config(tmp_path)
        assert main(["train-teacher", "--config", str(path), "--seed", "-1"]) == 2
        err = capsys.readouterr().err.strip()
        assert "'seed'" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["explain", "perturb-eval"])
def test_non_finite_student_exit_3_one_line(pipeline, tmp_path, capsys, command):
    """A student whose logits are NaN is a numerical failure: exit 3 with
    one stderr line, not a traceback."""
    root, _ = pipeline
    student = load_student(root / "out" / "student.ckpt")
    student.head.w.data[:] = np.nan
    path = write_config(tmp_path)
    (tmp_path / "out").mkdir()
    save_student(tmp_path / "out" / "student.ckpt", student)
    assert main([command, "--config", str(path)]) == 3
    err = capsys.readouterr().err.strip()
    assert "non-finite" in err and len(err.splitlines()) == 1


def test_diverging_teacher_exit_3_one_line_no_artifacts(tmp_path, capsys):
    """A teacher rate of 1e300 makes the loss non-finite: exit 3 with one
    `numerical failure:` line naming the epoch and iteration, and neither
    the checkpoint nor the report is written."""
    path = write_config(tmp_path, n_per_class=4, n_test_per_class=2, image_size=16,
                        batch_size=4, teacher_lr=1e300)
    assert main(["train-teacher", "--config", str(path)]) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("numerical failure: ") and len(err.splitlines()) == 1
    assert "at epoch 0 iteration" in err
    for name in ("teacher.ckpt", "teacher_report.json"):
        assert not (tmp_path / "out" / name).exists()


def test_diverging_teacher_one_stderr_line_in_a_real_process(tmp_path):
    """In a process of its own, where no test runner records numpy's
    overflow and invalid-value warnings, stderr still holds the one
    `numerical failure:` line."""
    path = write_config(tmp_path, n_per_class=4, n_test_per_class=2, image_size=16,
                        batch_size=4, teacher_lr=1e300)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    run = subprocess.run([sys.executable, "-m", "protostudent.cli", "train-teacher",
                          "--config", str(path)], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == 3
    assert run.stderr.startswith("numerical failure: ") and len(run.stderr.splitlines()) == 1


def test_prune_keeps_a_class_that_swaps_put_at_the_bottom(tmp_path):
    """3 classes x 4 prototypes with p = 4 swaps one whole class per epoch,
    so that class ranks lowest; a 0.34 prune (4 of 12) keeps one of it."""
    path = write_config(tmp_path, n_per_class=20, n_test_per_class=4, image_size=16,
                        encoder_blocks=[[8, 3, 2], [16, 3, 2]])
    assert main(["train-teacher", "--config", str(path)]) == 0
    for head in ["I", "II-A", "II-B", "III-A", "III-B", "III-C"]:
        assert main(["train-student", "--config", str(path), "--head", head]) == 0
        assert main(["prune", "--config", str(path), "--prune-fraction", "0.34"]) == 0
        report = json.loads((tmp_path / "out" / "prune_report.json").read_text())
        assert (report["k_before"], report["k_after"]) == (12, 8)
        pruned = load_student(tmp_path / "out" / "student_pruned.ckpt")
        assert sorted(set(pruned.store.labels.tolist())) == [0, 1, 2]


class TestSweep:
    def test_sweep_writes_rows(self, pipeline):
        root, path = pipeline
        assert main(["sweep-prototypes", "--config", str(path), "--sweep", "2,4",
                     "--epochs", "1"]) == 0
        report = json.loads((root / "out" / "sweep_report.json").read_text())
        assert [r["protos_per_class"] for r in report["rows"]] == [2, 4]


def _digests(out):
    return {str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.rglob("*")) if f.is_file()}


def test_rerun_into_same_out_dir_rewrites_identical_artifacts(tmp_path):
    """A second pipeline run into the same out dir, over artifacts that were
    each made 10 KB longer, leaves every file byte-identical to the
    fresh-dir run: each write overwrites in place and trims to length."""
    path = tmp_path / "cfg.json"
    out = tmp_path / "out"
    path.write_text(json.dumps(tiny_config(out, n_per_class=12, n_test_per_class=3,
                                           teacher_epochs=1, epochs=1, steps=2, topk=2)))
    commands = ["train-teacher", "train-student", "explain", "outlier-eval", "perturb-eval"]
    for command in commands:
        assert main([command, "--config", str(path)]) == 0
    fresh = _digests(out)
    assert {"teacher.ckpt", "student.ckpt", "training_log.jsonl", "outlier_scores.csv",
            "curve_relevance.csv", "perturb_summary.json"} <= set(fresh)
    junk = np.random.default_rng(35).bytes(10_000)
    for name in fresh:
        with open(out / name, "ab") as fh:
            fh.write(junk)
    for command in commands:
        assert main([command, "--config", str(path)]) == 0
    assert _digests(out) == fresh
