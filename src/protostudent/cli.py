"""Command-line driver tying the pipeline together.

Commands write their artifacts (checkpoints, heatmaps, CSV/JSON reports)
under the configured output directory. Exit codes: 0 success, 2 config
validation failure or a file the command cannot read or write (a missing
or corrupt checkpoint included), 3 numerical failure during a run.
"""
from __future__ import annotations

import argparse
import json
import sys
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
from .heads import HEAD_KINDS, ConfigurationError
from .imagefiles import write_file
from .losses import LossWeights
from .replacement import (ParameterError, PruningError, ReplacementConfig,
                          ReplacementError, finetune, prune, train_student)
from .tensor import DimensionError


def _write_json(path, obj):
    write_file(path, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode())


def _train_set(cfg: RunConfig) -> D.SyntheticDataset:
    return D.gen_dataset(cfg.seed, cfg.n_per_class, cfg.classes,
                         (cfg.image_size, cfg.image_size), cfg.dataset_family)


def _test_set(cfg: RunConfig) -> D.SyntheticDataset:
    return D.gen_dataset(cfg.seed + 1, cfg.n_test_per_class, cfg.classes,
                         (cfg.image_size, cfg.image_size), cfg.dataset_family)


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
    return X.LrpParams(alpha=cfg.lrp_alpha, epsilon=cfg.lrp_epsilon)


def _at_most(name: str, value: int, limit: int, what: str):
    if value > limit:
        raise ConfigError(name, f"{value} exceeds {what} ({limit})")


def _out(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train_teacher(cfg: RunConfig) -> int:
    out = _out(cfg)
    train, test = _train_set(cfg), _test_set(cfg)
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
    train, test = _train_set(cfg), _test_set(cfg)
    teacher = ckpt.load_teacher(out / "teacher.ckpt")
    weights = LossWeights(cfg.lambda1, cfg.lambda2, cfg.lambda3)
    student, store, log = train_student(teacher, (train.images, train.labels), cfg.head,
                                        _replacement_config(cfg), weights,
                                        protos_per_class=cfg.protos_per_class)
    ckpt.save_student(out / "student.ckpt", student)
    write_file(out / "training_log.jsonl",
               "".join(json.dumps(record, sort_keys=True) + "\n" for record in log).encode())
    acc = student.accuracy(test.images, test.labels)
    _write_json(out / "student_report.json",
                {"head": cfg.head, "test_accuracy": acc,
                 "teacher_test_accuracy": teacher.accuracy(test.images, test.labels)})
    print(f"student ({cfg.head}) saved: test acc {acc:.4f}")
    return 0


def cmd_explain(cfg: RunConfig) -> int:
    out = _out(cfg)
    test = _test_set(cfg)
    _at_most("explain_samples", cfg.explain_samples, len(test.images), "the test-set size")
    student = ckpt.load_student(out / "student.ckpt")
    _at_most("topk", cfg.topk, len(student.store), "the student's prototype count K")
    params = _lrp_params(cfg)
    heat_dir = out / "heatmaps"
    heat_dir.mkdir(exist_ok=True)
    n = cfg.explain_samples
    total = 0
    for i, pairs in enumerate(X.explain(student, test.images[:n], topk=cfg.topk, params=params)):
        for rank, pair in enumerate(pairs):
            base = heat_dir / f"sample{i:04d}_rank{rank}_proto{pair.prototype_index:03d}"
            total += len(X.export_pair(pair, base))
    print(f"explain: wrote {total} files for {n} samples under {heat_dir}")
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
    test = _test_set(cfg)
    student = ckpt.load_student(out / "student.ckpt")
    # baseline predictor for max-probability scores: the teacher when
    # available, else the student itself
    baseline = None
    if (out / "teacher.ckpt").exists():
        baseline = ckpt.load_teacher(out / "teacher.ckpt")
    k = len(student.store)
    _at_most("kprime", max(cfg.kprime, default=k), k, "the student's prototype count K")
    outliers = _outlier_images(cfg, test)
    images = np.concatenate([test.images, outliers])
    labels = np.arange(len(images)) >= len(test.images)
    reports = O.score_samples(student, images, k, baseline_model=baseline)
    top = {kp: [O.outlier_score(rep.u, kp) for rep in reports] for kp in cfg.kprime}
    lines = [["sample_id", "label", *(f"o_top{kp}" for kp in top), "maxprob", "pred_class"]]
    for i, rep in enumerate(reports):
        lines.append([str(i), "outlier" if labels[i] else "normal",
                      *(repr(o[i]) for o in top.values()), repr(rep.maxprob),
                      str(rep.predicted_class)])
    write_file(out / "outlier_scores.csv", "".join(",".join(ln) + "\n" for ln in lines).encode())
    summary = {"setup": cfg.outlier_setup, "kprime": cfg.kprime,
               "auc_o_all": O.auc([rep.o for rep in reports], labels),
               "auc_maxprob": O.auc([rep.maxprob for rep in reports], labels),
               **{f"auc_o_top{kp}": O.auc(o, labels) for kp, o in top.items()}}
    _write_json(out / "outlier_summary.json", summary)
    print(f"outlier setup {cfg.outlier_setup}: o-AUC "
          + "".join(f"top-{kp} {summary[f'auc_o_top{kp}']:.3f}, " for kp in top)
          + f"all {summary['auc_o_all']:.3f}; maxprob AUC {summary['auc_maxprob']:.3f}")
    return 0


def cmd_perturb_eval(cfg: RunConfig) -> int:
    out = _out(cfg)
    train, test = _train_set(cfg), _test_set(cfg)
    student = ckpt.load_student(out / "student.ckpt")
    params = _lrp_params(cfg)
    fill = train.images.mean(axis=(0, 2, 3))
    curves = {}
    for policy in ("relevance", "random"):
        curve = P.perturb_eval(student, test.images, region=cfg.region, steps=cfg.steps,
                               policy=policy, params=params, fill=fill, seed=cfg.seed)
        curves[policy] = curve
        rows = "".join(f"{step},{value!r}\n" for step, value in enumerate(curve.mean_logits))
        write_file(out / f"curve_{policy}.csv", ("step,mean_logit\n" + rows).encode())
    summary = {p: {"aopc": c.aopc(), "mean_logits": c.mean_logits}
               for p, c in curves.items()}
    _write_json(out / "perturb_summary.json", summary)
    print(f"perturbation: relevance AOPC {curves['relevance'].aopc():.4f}, "
          f"random AOPC {curves['random'].aopc():.4f}")
    return 0


def cmd_prune(cfg: RunConfig) -> int:
    out = _out(cfg)
    train, test = _train_set(cfg), _test_set(cfg)
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
    train, test = _train_set(cfg), _test_set(cfg)
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
                         choices=HEAD_KINDS)
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
        cmd.add_argument("--epochs", type=int, default=None)
        cmd.add_argument("--sweep", type=str, default=None, help="comma list of protos per class")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in
                 ("seed", "head", "protos_per_class", "out_dir", "topk", "explain_samples",
                  "outlier_setup", "prune_fraction", "region", "steps", "epochs")}
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
        # a diverging run reports itself in one line, not in numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return COMMANDS[args.command](cfg)
    except (TrainingError, X.PropagationError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except (ConfigError, ParameterError, PruningError, ReplacementError, ConfigurationError,
            DatasetError, DimensionError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (OSError, ckpt.CorruptCheckpointError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
