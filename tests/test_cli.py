"""CLI: config validation exit codes, artifact production, and run
reproducibility at tiny scale."""
import json
import os
import zlib

import numpy as np
import pytest

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

    def test_alpha_beta_constraint(self, tmp_path):
        path = write_config(tmp_path, lrp_alpha=2.0, lrp_beta=0.7)
        assert main(["train-teacher", "--config", str(path)]) == 2

    def test_loader_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            RunConfig.load(None, {"p_fraction": 1.5})

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
        assert (cfg.lrp_alpha, cfg.lrp_beta, cfg.lrp_epsilon) == (1.7, 0.7, 1e-3)
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

    def test_outlier_eval_csv_and_summary(self, pipeline):
        root, path = pipeline
        assert main(["outlier-eval", "--config", str(path), "--setup", "C"]) == 0
        out = root / "out"
        rows = (out / "outlier_scores.csv").read_text().strip().splitlines()
        assert rows[0] == "sample_id,label,o,maxprob,pred_class"
        assert len(rows) == 1 + 2 * 18
        summary = json.loads((out / "outlier_summary.json").read_text())
        assert {"auc_o_top1", "auc_o_topk", "auc_o_all", "auc_maxprob"} <= set(summary)

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

    def test_worker_env_is_respected(self, pipeline, monkeypatch):
        from protostudent.cli import worker_count
        monkeypatch.setenv("PBSN_THREADS", "3")
        assert worker_count() == 3
        monkeypatch.setenv("PBSN_THREADS", "bogus")
        assert worker_count() == 1


class TestSweep:
    def test_sweep_writes_rows(self, pipeline):
        root, path = pipeline
        assert main(["sweep-prototypes", "--config", str(path), "--sweep", "2,4",
                     "--epochs", "1"]) == 0
        report = json.loads((root / "out" / "sweep_report.json").read_text())
        assert [r["protos_per_class"] for r in report["rows"]] == [2, 4]
