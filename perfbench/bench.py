"""Set-up, workloads, output checks and determinism digests of the
protostudent benchmark.

Each workload is a closed loop with one caller: the next library call
starts only after the previous one returned. A run sets up several times
(the median is `setup_s`), then repeats identical rounds of its workload
until another round would run past the requested seconds. Every round
does the same work on the same inputs, so every round must give the same
digest.

- train: `train_teacher` for whole epochs, then `train_student` once per
  head, two epochs each, so `_replace_lowest` swaps run.
- explain: `lrp.explain` (top-k) plus `lrp.export_pair` for a fixed set of
  test images against each head's student.

Every timed sample is rescaled to a reference machine speed by the probes
of `pace.Pace`, and rates are medians over a run's samples.

Outlier scoring (`outlier.score_samples`, `outlier.auc`) runs in the
set-up only, so the traced run still times the outlier layer.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import traceback
import zlib
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from protostudent import (checkpoint, datasets, encoder, heads, imagefiles, lrp, outlier,
                          replacement)
from protostudent.encoder import EncoderConfig
from protostudent.losses import LossWeights

import pace as pace_mod
import spans

OUT_DIR = Path(__file__).resolve().parents[1] / ".perfbench_out"

# learning rates of the acceptance suite; the attention heads train gentler
HEAD_LR = {"I": 0.05, "II-A": 0.05, "II-B": 0.05, "III-A": 0.03, "III-B": 0.03, "III-C": 0.03}
ENCODER_LR, LR_STEP = 1e-3, 20
TEACHER_LR = 0.05


@dataclass(frozen=True)
class Scale:
    classes: int
    train_per_class: int
    test_per_class: int
    blocks: tuple
    protos_per_class: int
    batch_size: int
    p_fraction: float
    teacher_epochs: int          # per train round
    student_epochs: int          # per train_student call in a train round
    student_iterations: int      # steps per student epoch
    setup_per_class: int         # training images per class of the set-up models
    setup_iterations: int        # steps of each set-up student
    setup_repeats: int
    explain_per_class: int       # test images per class explained per round
    topk: int
    k_prime: int
    score_batch: int

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(in_channels=3, blocks=self.blocks, input_size=(32, 32))


# the acceptance-test task: 4 classes x 500 training images, 100 test
# images per class, K = 40 prototypes
ACCEPTANCE = Scale(classes=4, train_per_class=500, test_per_class=100,
                   blocks=((8, 3, 2), (16, 3, 2), (32, 3, 2)), protos_per_class=10,
                   batch_size=64, p_fraction=0.3, teacher_epochs=1, student_epochs=2,
                   student_iterations=3, setup_per_class=50, setup_iterations=2,
                   setup_repeats=3, explain_per_class=2, topk=3, k_prime=20, score_batch=128)

# seconds-long variant for the benchmark's own smoke test
TINY = Scale(classes=2, train_per_class=24, test_per_class=4, blocks=((4, 3, 2), (8, 3, 2)),
             protos_per_class=3, batch_size=8, p_fraction=0.3, teacher_epochs=1,
             student_epochs=2, student_iterations=2, setup_per_class=12, setup_iterations=1,
             setup_repeats=2, explain_per_class=1, topk=2, k_prime=2, score_batch=4)


@dataclass
class Fixture:
    train: datasets.SyntheticDataset
    explain_images: np.ndarray
    students: dict                 # head kind -> student loaded from its checkpoint


@dataclass
class Round:
    """Timings, counts, failures and digest of one workload round."""
    samples: dict = field(default_factory=dict)    # part -> [(items, start, end)]
    attempted: int = 0
    failures: list = field(default_factory=list)
    residuals: list = field(default_factory=list)  # explain: LRP conservation
    wall: float = 0.0
    digest: str = ""

    def fail(self, what: str, detail: str):
        self.failures.append(f"{what}: {detail}")

    def add(self, part: str, items: int, t0: float, t1: float):
        self.samples.setdefault(part, []).append((items, t0, t1))


def _student_config(kind: str, seed: int, scale: Scale, epochs: int, iterations: int):
    return replacement.ReplacementConfig(
        p_fraction=scale.p_fraction, epochs=epochs, iterations=iterations, seed=seed,
        batch_size=scale.batch_size, lr_head=HEAD_LR[kind], lr_encoder=ENCODER_LR,
        lr_step_epochs=LR_STEP)


def _first_per_class(labels: np.ndarray, n: int, classes: int) -> np.ndarray:
    return np.concatenate([np.flatnonzero(labels == c)[:n] for c in range(classes)])


def prepare(seed: int, scale: Scale, workdir: Path) -> Fixture:
    """Generate the data, distill a teacher and one student per head for a
    few steps on a class-balanced subset, round-trip each student through
    its checkpoint, explain one image and score one batch of normal and
    stroke-corrupted test images per head. The last two fill lazy caches
    (einsum paths, im2col plans) before timing."""
    train = datasets.gen_dataset(seed, scale.train_per_class, scale.classes)
    test = datasets.gen_dataset(seed + 1, scale.test_per_class, scale.classes)
    pick = _first_per_class(train.labels, scale.setup_per_class, scale.classes)
    subset = (train.images[pick], train.labels[pick])
    teacher = encoder.train_teacher(subset, epochs=1, lr=TEACHER_LR, seed=seed,
                                    batch_size=scale.batch_size, config=scale.encoder_config())
    students = {}
    for kind in heads.HEAD_KINDS:
        cfg = _student_config(kind, seed, scale, epochs=1, iterations=scale.setup_iterations)
        student, _, _ = replacement.train_student(teacher, subset, kind, cfg, LossWeights(),
                                                  protos_per_class=scale.protos_per_class)
        path = workdir / f"{kind}.ckpt"
        checkpoint.save_student(path, student)
        students[kind] = checkpoint.load_student(path)
    fx = Fixture(train=train,
                 explain_images=test.images[_first_per_class(test.labels,
                                                              scale.explain_per_class,
                                                              scale.classes)],
                 students=students)
    half = scale.score_batch // 2
    strokes = [datasets.gen_strokes(im, seed=seed * 100_003 + i)
               for i, im in enumerate(test.images[:half])]
    batch = np.concatenate([test.images[:half], strokes])
    labels = np.repeat([0, 1], half)
    for kind, student in students.items():
        for j, pair in enumerate(lrp.explain(student, fx.explain_images[0], topk=scale.topk)):
            lrp.export_pair(pair, workdir / f"warm_{kind}_{j}")
        reps = outlier.score_samples(student, batch, scale.k_prime,
                                     batch_size=scale.score_batch, baseline_model=teacher)
        outlier.auc([rep.o for rep in reps], labels)
    return fx


# -- train -------------------------------------------------------------------

def _check_training(log: list, store, labels: np.ndarray, p: int, scale: Scale) -> list:
    """Problems in one train_student result: non-finite loss terms, an
    epoch without exactly p class-matched swaps, or a store that lost its
    class balance."""
    problems = []
    steps = [r for r in log if r["iter"] is not None]
    if len(steps) != scale.student_epochs * scale.student_iterations:
        problems.append(f"{len(steps)} steps logged")
    for r in steps:
        terms = [r["loss"], r["supervised"], r["distill"], r["aux_mask"], r["distance"]]
        if not np.all(np.isfinite(terms)):
            problems.append(f"non-finite loss term at epoch {r['epoch']} iter {r['iter']}")
            break
    swaps = [r for r in log if r["iter"] is None and "val_accuracy" not in r]
    if [r["epoch"] for r in swaps] != list(range(scale.student_epochs)):
        problems.append("swap log does not cover every epoch once")
    for r in swaps:
        if len(r["replaced"]) != p:
            problems.append(f"epoch {r['epoch']}: {len(r['replaced'])} swaps, expected {p}")
        if any(labels[s["out_id"]] != labels[s["in_id"]] for s in r["replaced"]):
            problems.append(f"epoch {r['epoch']}: swap crosses classes")
    counts = np.bincount(store.labels, minlength=scale.classes)
    if not np.all(counts == scale.protos_per_class):
        problems.append(f"prototype class counts {counts.tolist()}")
    return problems


def train_round(fx: Fixture, seed: int, scale: Scale, workdir: Path,
                pace: pace_mod.Pace) -> Round:
    r = Round()
    h = hashlib.sha256()
    data = (fx.train.images, fx.train.labels)
    r.attempted += 1 + len(heads.HEAD_KINDS)
    try:
        t0 = pace.start()
        teacher = encoder.train_teacher(data, epochs=scale.teacher_epochs, lr=TEACHER_LR,
                                        seed=seed, batch_size=scale.batch_size,
                                        config=scale.encoder_config())
        t1 = perf_counter()
    except Exception:  # a failed call is counted, the round goes on
        r.fail("train_teacher", traceback.format_exc())
        for kind in heads.HEAD_KINDS:
            r.fail(f"train_student {kind}", "no teacher")
        return r
    r.add("teacher", scale.teacher_epochs * len(fx.train.images), t0, t1)
    params = [p.data for p in teacher.params]
    if not all(np.all(np.isfinite(p)) for p in params):
        r.fail("train_teacher", "non-finite parameters")
    for p in params:
        h.update(p.tobytes())
    for kind in heads.HEAD_KINDS:
        cfg = _student_config(kind, seed, scale, scale.student_epochs, scale.student_iterations)
        try:
            t0 = pace.start()
            _, store, log = replacement.train_student(teacher, data, kind, cfg, LossWeights(),
                                                      protos_per_class=scale.protos_per_class)
            t1 = perf_counter()
        except Exception:
            r.fail(f"train_student {kind}", traceback.format_exc())
            continue
        steps = [rec for rec in log if rec["iter"] is not None]
        r.add(kind, len(steps) * scale.batch_size, t0, t1)
        p = cfg.p_count(len(store))
        problems = _check_training(log, store, fx.train.labels, p, scale)
        if problems:
            r.fail(f"train_student {kind}", "; ".join(problems))
        h.update(np.array([[rec["loss"], rec["supervised"], rec["distill"], rec["aux_mask"],
                            rec["distance"]] for rec in steps]).tobytes())
        h.update(json.dumps([rec["replaced"] for rec in log if rec["iter"] is None]).encode())
    r.digest = h.hexdigest()[:16]
    return r


# -- explain -----------------------------------------------------------------

def _check_pair(pair, base: Path) -> tuple:
    """(problems, conservation residual) of one exported heatmap pair."""
    problems = []
    heats = {"input": pair.heat_input, "proto": pair.heat_proto}
    for side, heat in heats.items():
        if not np.all(np.isfinite(heat)):
            problems.append(f"{side} heatmap non-finite")
        elif not np.abs(heat).max() > 0:
            problems.append(f"{side} heatmap has a zero peak")
    if problems:
        return problems, float("nan")
    peak = max(np.abs(h).max() for h in heats.values())
    for side, heat in heats.items():
        pgm = base.parent / f"{base.name}_{side}.pgm"
        raw = pgm.read_bytes()
        sidecar = json.loads((base.parent / f"{base.name}_{side}.json").read_text())
        if sidecar["checksum"] != zlib.crc32(raw):
            problems.append(f"{side} sidecar CRC mismatch")
        img = imagefiles.read_pgm16(pgm)
        expected = np.clip(np.abs(heat) / peak, 0.0, 1.0)
        if img.shape != heat.shape or np.abs(img - expected).max() > 0.5 / 65535 + 1e-12:
            problems.append(f"{side} PGM does not read back as the heatmap")
    # each side carries the full similarity-layer relevance down to pixels;
    # the epsilon rule and the conv biases absorb a share of it
    r_sim = float(np.sum(pair.r_sim))
    residual = max(abs(float(h.sum()) - r_sim) for h in heats.values()) / abs(r_sim) \
        if r_sim else float("nan")
    return problems, residual


def explain_round(fx: Fixture, seed: int, scale: Scale, workdir: Path,
                  pace: pace_mod.Pace) -> Round:
    """Heads take turns image by image, so each head's samples spread over
    the whole run."""
    r = Round()
    exported = {kind: [] for kind in fx.students}
    for i, x in enumerate(fx.explain_images):
        for kind, student in fx.students.items():
            r.attempted += scale.topk
            try:
                t0 = pace.start()
                pairs = lrp.explain(student, x, topk=scale.topk)
                for j, pair in enumerate(pairs):
                    lrp.export_pair(pair, workdir / f"{kind}_{i}_{j}")
                r.add(kind, len(pairs), t0, perf_counter())
            except Exception:  # the image's pairs count as failed, the round goes on
                for _ in range(scale.topk):
                    r.fail(f"explain {kind} image {i}", traceback.format_exc())
                continue
            exported[kind].extend((pair, workdir / f"{kind}_{i}_{j}")
                                  for j, pair in enumerate(pairs))
    h = hashlib.sha256()
    for kind, done in exported.items():
        for pair, base in done:
            problems, residual = _check_pair(pair, base)
            if problems:
                r.fail(f"explain {kind} {base.name}", "; ".join(problems))
            r.residuals.append(residual)
            for a in (pair.r_sim, pair.heat_input, pair.heat_proto):
                h.update(np.ascontiguousarray(a).tobytes())
    r.digest = h.hexdigest()[:16]
    return r


ROUNDS = {"train": train_round, "explain": explain_round}


# -- run ---------------------------------------------------------------------

def _scope(tracer, name):
    stack = ExitStack()
    if tracer is not None:
        stack.enter_context(tracer.active())
        stack.enter_context(tracer.span(name))
    return stack


def machine_facts(blas_threads) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads, "cpu_model": cpu}


def conv_table(scale: Scale) -> list:
    """Computed conv2d counts per call for each encoder block at each batch
    size the workloads use."""
    cfg = scale.encoder_config()
    k = scale.protos_per_class * scale.classes
    batches = {"student_step": scale.batch_size + k, "teacher_step": scale.batch_size,
               "score_batch": scale.score_batch, "one_image": 1}
    rows = []
    for use, n in batches.items():
        c, h, w = cfg.in_channels, *cfg.input_size
        for block, (f, kk, stride) in enumerate(cfg.blocks):
            pad = kk // 2
            h2, w2 = (h + 2 * pad - kk) // stride + 1, (w + 2 * pad - kk) // stride + 1
            cc = spans.conv_counts(n, c, h, w, f, kk, kk, h2, w2)
            rows.append({"use": use, "batch": n, "block": block, "gflop": cc["flop"] / 1e9,
                         "fwd_mbytes": cc["fwd_bytes"] / 1e6,
                         "dk_mbytes": cc["dk_bytes"] / 1e6, "dx_mbytes": cc["dx_bytes"] / 1e6})
            c, h, w = f, h2, w2
    return rows


def _item_seconds(rounds: list, part: str, seconds_of) -> float:
    """Median seconds per item of a part; `seconds_of(t0, t1)` times one
    sample."""
    per_item = [seconds_of(t0, t1) / n for r in rounds for n, t0, t1 in r.samples.get(part, [])
                if n]
    # no successful sample: infinite time per item, a rate of 0
    return statistics.median(per_item) if per_item else math.inf


def _overall_rate(rounds: list, seconds_of) -> float:
    """Items over the time all parts take at their median speed."""
    parts = {p for r in rounds for p in r.samples}
    items = {p: sum(n for r in rounds for n, _, _ in r.samples.get(p, [])) for p in parts}
    seconds = sum(n * _item_seconds(rounds, p, seconds_of) for p, n in items.items() if n)
    return sum(items.values()) / seconds if seconds else 0.0


def part_summary(rounds: list, pace: pace_mod.Pace) -> dict:
    """Sample count, wall-clock rate and reference-speed rate of every
    part."""
    parts = sorted({p for r in rounds for p in r.samples})
    return {p: {"samples": sum(len(r.samples.get(p, [])) for r in rounds),
                "wall_per_s": 1.0 / _item_seconds(rounds, p, pace.wall),
                "ref_per_s": 1.0 / _item_seconds(rounds, p, pace.measure)} for p in parts}


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(rounds: list, setup_times: list, pace: pace_mod.Pace) -> dict:
    m = {"setup_s": (statistics.median(setup_times), "s"),
         "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
         "items_per_s": (_overall_rate(rounds, pace.measure), "1/s")}
    for kind in heads.HEAD_KINDS:
        m[f"{kind}.items_per_s"] = (1.0 / _item_seconds(rounds, kind, pace.measure), "1/s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: Scale = ACCEPTANCE,
        blas_threads=None) -> tuple:
    """Set up, run rounds of the workload for `seconds`, check them.

    Returns (result, report): the result holds correct / attempted /
    failed / metrics; the report holds the machine facts, digests and
    computed counts. Untraced, every timing is at the reference speed of
    `pace`. With `trace`, rounds alternate between untraced and traced,
    nothing is probed, the metrics are per layer, and the spans go to
    OUT_DIR.
    """
    round_fn = ROUNDS[workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    tracer = spans.Tracer() if trace else None
    pace = pace_mod.Pace(enabled=not trace)
    try:
        with pace:
            setup_spans = []
            for _ in range(scale.setup_repeats):
                fx = None  # let the previous fixture go before building the next
                t0 = pace.start()
                with _scope(tracer, spans.SETUP):
                    fx = prepare(seed, scale, workdir)
                setup_spans.append((t0, perf_counter()))
            plain, traced = [], []
            start = perf_counter()
            while True:
                on = tracer is not None and len(plain) > len(traced)
                t0 = perf_counter()
                with _scope(tracer if on else None, spans.ROUND):
                    rnd = round_fn(fx, seed, scale, workdir, pace)
                rnd.wall = perf_counter() - t0
                (traced if on else plain).append(rnd)
                # stop before a round that would end past the measuring time
                enough = tracer is None or bool(traced)
                if enough and perf_counter() - start + rnd.wall > seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_times = [pace.measure(t0, t1) for t0, t1 in setup_spans]

    rounds = plain + traced
    failures = [f for r in rounds for f in r.failures]
    digests = sorted({r.digest for r in rounds})
    report = {"workload": workload, "seed": seed, "trace": bool(trace),
              "machine": machine_facts(blas_threads),
              "digest": digests[0] if len(digests) == 1 else digests,
              "rounds": len(plain), "traced_rounds": len(traced),
              "round_wall_s": [round(r.wall, 4) for r in rounds],
              "setup_s": [round(t, 4) for t in setup_times],
              "setup_wall_s": [round(t1 - t0, 4) for t0, t1 in setup_spans],
              "pace": pace.summary(),
              "failures": failures[:5],
              "computed": {"conv2d_per_call": conv_table(scale)}}
    report["parts"] = part_summary(plain, pace)
    if workload == "explain":
        res = [x for r in rounds for x in r.residuals]
        report["lrp_conservation_residual"] = {"median": _median(res),
                                               "max": max(res) if res else float("nan")}
    if tracer is not None:
        walls_on, walls_off = [r.wall for r in traced], [r.wall for r in plain]
        overhead = 100.0 * (_median(walls_on) - _median(walls_off)) / _median(walls_off)
        metrics = spans.layer_metrics(tracer, len(traced), overhead)
        report["computed"]["calls_per_step"] = spans.calls_per_step(tracer)
        report["computed"]["encoder_images_per_pair"] = \
            metrics["lrp.encoder_images_per_pair"]["value"]
        path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write_jsonl(path)
        report["spans"] = str(path.relative_to(OUT_DIR.parent))
    else:
        metrics = end_to_end(plain, setup_times, pace)
    result = {"correct": not failures and len(digests) == 1,
              "attempted": sum(r.attempted for r in rounds),
              "failed": len(failures), "metrics": metrics}
    return result, report
