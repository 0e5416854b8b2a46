"""Command-line driver tying the pipeline together.

Commands write their artifacts (checkpoints, heatmaps, CSV/JSON reports)
under the configured output directory. Exit codes: 0 success, 2 config
validation failure or a file the command cannot read or write (a missing
or corrupt checkpoint included), 3 numerical failure during a run.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import datasets as D
from . import lrp as X
from . import outlier as O
from . import perturb as P
from .config import ConfigError, RunConfig
from .datasets import DatasetError
from .encoder import EncoderConfig, TrainingError, train_teacher
from .heads import ConfigurationError
from .losses import LossWeights
from .replacement import (ParameterError, PruningError, ReplacementConfig,
                          ReplacementError, finetune, prune, train_student)
from .tensor import DimensionError, EvaluationError


def worker_count() -> int:
    """Parallelism cap from PBSN_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("PBSN_THREADS", "1")))
    except ValueError:
        return 1


def _pmap(fn, items):
    n = worker_count()
    if n <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


def _write_json(path, obj):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _datasets(cfg: RunConfig) -> tuple:
    size = (cfg.image_size, cfg.image_size)
    train = D.gen_dataset(cfg.seed, cfg.n_per_class, cfg.classes, size, cfg.dataset_family)
    test = D.gen_dataset(cfg.seed + 1, cfg.n_test_per_class, cfg.classes, size, cfg.dataset_family)
    return train, test


def _encoder_config(cfg: RunConfig) -> EncoderConfig:
    return EncoderConfig(in_channels=3,
                         blocks=tuple(tuple(b) for b in cfg.encoder_blocks),
                         input_size=(cfg.image_size, cfg.image_size))


def _replacement_config(cfg: RunConfig) -> ReplacementConfig:
    return ReplacementConfig(p_fraction=cfg.p_fraction, epochs=cfg.epochs,
                             seed=cfg.seed, batch_size=cfg.batch_size,
                             lr_head=cfg.lr_head, lr_encoder=cfg.lr_encoder,
                             momentum=cfg.momentum, weight_decay=cfg.weight_decay,
                             lr_step_epochs=cfg.lr_step_epochs, lr_gamma=cfg.lr_gamma)


def _lrp_params(cfg: RunConfig) -> X.LrpParams:
    return X.LrpParams(alpha=cfg.lrp_alpha, beta=cfg.lrp_beta, epsilon=cfg.lrp_epsilon)


def _out(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train_teacher(cfg: RunConfig) -> int:
    out = _out(cfg)
    train, test = _datasets(cfg)
    teacher = train_teacher((train.images, train.labels), epochs=cfg.teacher_epochs,
                            lr=cfg.teacher_lr, seed=cfg.seed, batch_size=cfg.batch_size,
                            config=_encoder_config(cfg),
                            val_data=(test.images, test.labels))
    ckpt.save_teacher(out / "teacher.ckpt", teacher)
    _write_json(out / "teacher_report.json",
                {"train_accuracy": teacher.train_accuracy,
                 "test_accuracy": teacher.val_accuracy})
    print(f"teacher saved: train acc {teacher.train_accuracy:.4f}, "
          f"test acc {teacher.val_accuracy:.4f}")
    return 0


def cmd_train_student(cfg: RunConfig) -> int:
    out = _out(cfg)
    train, test = _datasets(cfg)
    teacher = ckpt.load_teacher(out / "teacher.ckpt")
    weights = LossWeights(cfg.lambda1, cfg.lambda2, cfg.lambda3)
    student, store, log = train_student(teacher, (train.images, train.labels), cfg.head,
                                        _replacement_config(cfg), weights,
                                        protos_per_class=cfg.protos_per_class)
    ckpt.save_student(out / "student.ckpt", student)
    with open(out / "training_log.jsonl", "w") as fh:
        for record in log:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    acc = student.accuracy(test.images, test.labels)
    _write_json(out / "student_report.json",
                {"head": cfg.head, "test_accuracy": acc,
                 "teacher_test_accuracy": teacher.accuracy(test.images, test.labels)})
    print(f"student ({cfg.head}) saved: test acc {acc:.4f}")
    return 0


def cmd_explain(cfg: RunConfig) -> int:
    out = _out(cfg)
    _, test = _datasets(cfg)
    student = ckpt.load_student(out / "student.ckpt")
    params = _lrp_params(cfg)
    heat_dir = out / "heatmaps"
    heat_dir.mkdir(exist_ok=True)
    samples = list(range(min(cfg.explain_samples, len(test.images))))

    def run(i):
        pairs = X.explain(student, test.images[i], topk=cfg.topk, params=params)
        written = []
        for rank, pair in enumerate(pairs):
            base = heat_dir / f"sample{i:04d}_rank{rank}_proto{pair.prototype_index:03d}"
            written.extend(X.export_pair(pair, base))
        return written

    files = _pmap(run, samples)
    total = sum(len(group) for group in files)
    print(f"explain: wrote {total} files for {len(samples)} samples under {heat_dir}")
    return 0


def _outlier_images(cfg: RunConfig, test: D.SyntheticDataset) -> np.ndarray:
    if cfg.outlier_setup == "A":
        alt = D.gen_dataset(cfg.seed + 2, cfg.n_test_per_class, cfg.classes,
                            (cfg.image_size, cfg.image_size), family="alt")
        return alt.images
    if cfg.outlier_setup == "B":
        return np.stack([D.gen_strokes(img, cfg.stroke_thickness, cfg.stroke_count,
                                       seed=cfg.seed * 100003 + i)
                         for i, img in enumerate(test.images)])
    return np.stack([D.gen_altered_color(img, seed=cfg.seed * 100003 + i)
                     for i, img in enumerate(test.images)])


def cmd_outlier_eval(cfg: RunConfig) -> int:
    out = _out(cfg)
    _, test = _datasets(cfg)
    student = ckpt.load_student(out / "student.ckpt")
    # baseline predictor for max-probability scores: the teacher when
    # available, else the student itself
    baseline = None
    if (out / "teacher.ckpt").exists():
        baseline = ckpt.load_teacher(out / "teacher.ckpt")
    k = len(student.store)
    outliers = _outlier_images(cfg, test)
    images = np.concatenate([test.images, outliers])
    flags = [False] * len(test.images) + [True] * len(outliers)
    primary = min(int(cfg.kprime[-1] if len(cfg.kprime) else k), k)
    reports = O.score_samples(student, images, primary, is_outlier=flags,
                              baseline_model=baseline)
    with open(out / "outlier_scores.csv", "w") as fh:
        fh.write("sample_id,label,o,maxprob,pred_class\n")
        for i, rep in enumerate(reports):
            label = "outlier" if rep.is_outlier else "normal"
            fh.write(f"{i},{label},{rep.o!r},{rep.maxprob!r},{rep.predicted_class}\n")
    labels = np.asarray(flags)
    u_matrix = np.stack([rep.u for rep in reports])
    maxprob = np.asarray([rep.maxprob for rep in reports])
    summary = {
        "setup": cfg.outlier_setup,
        "auc_o_top1": O.auc([O.outlier_score(u, 1) for u in u_matrix], labels),
        "auc_o_topk": O.auc([O.outlier_score(u, primary) for u in u_matrix], labels),
        "auc_o_all": O.auc([O.outlier_score(u, k) for u in u_matrix], labels),
        "auc_maxprob": O.auc(maxprob, labels),
        "kprime": primary,
    }
    _write_json(out / "outlier_summary.json", summary)
    print(f"outlier setup {cfg.outlier_setup}: o-AUC(top-{primary}) {summary['auc_o_topk']:.3f}, "
          f"maxprob AUC {summary['auc_maxprob']:.3f}")
    return 0


def cmd_perturb_eval(cfg: RunConfig) -> int:
    out = _out(cfg)
    train, test = _datasets(cfg)
    student = ckpt.load_student(out / "student.ckpt")
    params = _lrp_params(cfg)
    fill = train.images.mean(axis=(0, 2, 3))
    curves = {}
    heats = P.top1_heatmaps(student, test.images, params)
    for policy in ("relevance", "random"):
        curve = P.perturb_eval(student, test.images, region=cfg.region, steps=cfg.steps,
                               policy=policy, params=params, fill=fill, seed=cfg.seed,
                               heats=heats if policy == "relevance" else None)
        curves[policy] = curve
        with open(out / f"curve_{policy}.csv", "w") as fh:
            fh.write("step,mean_logit\n")
            for step, value in enumerate(curve.mean_logits):
                fh.write(f"{step},{value!r}\n")
    summary = {p: {"aopc": c.aopc(), "mean_logits": c.mean_logits}
               for p, c in curves.items()}
    _write_json(out / "perturb_summary.json", summary)
    print(f"perturbation: relevance AOPC {curves['relevance'].aopc():.4f}, "
          f"random AOPC {curves['random'].aopc():.4f}")
    return 0


def cmd_prune(cfg: RunConfig) -> int:
    out = _out(cfg)
    train, test = _datasets(cfg)
    student = ckpt.load_student(out / "student.ckpt")
    teacher = ckpt.load_teacher(out / "teacher.ckpt")
    acc_before = student.accuracy(test.images, test.labels)
    pruned = prune(student, cfg.prune_fraction)
    if cfg.finetune_epochs > 0:
        finetune(pruned, teacher, (train.images, train.labels),
                 cfg.finetune_epochs, _replacement_config(cfg),
                 LossWeights(cfg.lambda1, cfg.lambda2, cfg.lambda3))
    acc_after = pruned.accuracy(test.images, test.labels)
    ckpt.save_student(out / "student_pruned.ckpt", pruned)
    _write_json(out / "prune_report.json",
                {"fraction": cfg.prune_fraction, "k_before": len(student.store),
                 "k_after": len(pruned.store), "accuracy_before": acc_before,
                 "accuracy_after": acc_after})
    print(f"pruned {len(student.store)} -> {len(pruned.store)} prototypes: "
          f"acc {acc_before:.4f} -> {acc_after:.4f}")
    return 0


def cmd_sweep_prototypes(cfg: RunConfig) -> int:
    out = _out(cfg)
    train, test = _datasets(cfg)
    teacher = ckpt.load_teacher(out / "teacher.ckpt")
    weights = LossWeights(cfg.lambda1, cfg.lambda2, cfg.lambda3)
    rows = []
    for per_class in cfg.sweep:
        student, _, _ = train_student(teacher, (train.images, train.labels), cfg.head,
                                      _replacement_config(cfg), weights,
                                      protos_per_class=int(per_class))
        rows.append({"protos_per_class": int(per_class),
                     "k": int(per_class) * cfg.classes,
                     "test_accuracy": student.accuracy(test.images, test.labels)})
        print(f"sweep {per_class}/class: acc {rows[-1]['test_accuracy']:.4f}")
    _write_json(out / "sweep_report.json", {"head": cfg.head, "rows": rows})
    return 0


COMMANDS = {
    "train-teacher": cmd_train_teacher,
    "train-student": cmd_train_student,
    "explain": cmd_explain,
    "outlier-eval": cmd_outlier_eval,
    "perturb-eval": cmd_perturb_eval,
    "prune": cmd_prune,
    "sweep-prototypes": cmd_sweep_prototypes,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="protostudent",
                                     description="prototype-similarity student pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=str, default=None, help="JSON config path")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--head", type=str, default=None,
                         choices=["I", "II-A", "II-B", "III-A", "III-B", "III-C"])
        cmd.add_argument("--protos-per-class", dest="protos_per_class", type=int, default=None)
        cmd.add_argument("--kprime", type=str, default=None, help="comma list, e.g. 1,20")
        cmd.add_argument("--out", dest="out_dir", type=str, default=None)
        cmd.add_argument("--topk", type=int, default=None)
        cmd.add_argument("--samples", dest="explain_samples", type=int, default=None)
        cmd.add_argument("--setup", dest="outlier_setup", type=str, default=None,
                         choices=["A", "B", "C"])
        cmd.add_argument("--prune-fraction", dest="prune_fraction", type=float, default=None)
        cmd.add_argument("--region", type=int, default=None)
        cmd.add_argument("--steps", type=int, default=None)
        cmd.add_argument("--policy", type=str, default=None, choices=["relevance", "random"])
        cmd.add_argument("--epochs", type=int, default=None)
        cmd.add_argument("--sweep", type=str, default=None, help="comma list of protos per class")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in
                 ("seed", "head", "protos_per_class", "out_dir", "topk", "explain_samples",
                  "outlier_setup", "prune_fraction", "region", "steps", "policy", "epochs")}
    if args.kprime is not None:
        overrides["kprime"] = [int(v) for v in args.kprime.split(",") if v]
    if args.sweep is not None:
        overrides["sweep"] = [int(v) for v in args.sweep.split(",") if v]
    try:
        cfg = RunConfig.load(args.config, overrides)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as err:
        print(f"config error: cannot read config ({err})", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg)
    except (TrainingError, EvaluationError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except (ParameterError, PruningError, ReplacementError, ConfigurationError,
            DatasetError, DimensionError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (OSError, ckpt.CorruptCheckpointError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
