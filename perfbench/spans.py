"""In-memory span recorder for the traced benchmark run.

The recorder wraps, from outside the package, the module attributes and
methods the package calls through (``tensor.conv2d``, ``heads.head_forward``,
``Tensor.backward``, ``SGD.step``, ...). Each call becomes a span with a
name, start, end and parent; a span's self time is its duration minus the
time its direct children cover. Wrappers are installed only inside
``Tracer.active()`` and removed on exit, so untraced code runs the
package's own functions.
"""
from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from protostudent import (checkpoint, datasets, encoder, heads, imagefiles, losses,
                          lrp, optim, outlier, replacement, tensor)

ROUND = "bench.round"
SETUP = "bench.setup"


class Span:
    __slots__ = ("name", "index", "parent", "start", "end", "child", "work", "nbytes")

    def __init__(self, name, index, parent):
        self.name = name
        self.index = index
        self.parent = parent
        self.start = self.end = 0.0
        self.child = 0.0      # seconds covered by direct children
        self.work = 0.0       # span-specific count: FLOPs, images, swaps, ...
        self.nbytes = 0.0     # computed or written bytes

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.end - self.start - self.child


def _shape(x):
    return np.shape(getattr(x, "data", x))


def conv_counts(n, c, h, w, f, kh, kw, h2, w2) -> dict:
    """Computed counts of one conv2d call: [n,c,h,w] input, [f,c,kh,kw]
    kernel, [h2,w2] output grid. FLOPs are multiply-adds times two, per
    pass. Bytes are float64 array sizes, cache misses ignored: the
    forward reads x and the kernel and writes the im2col buffer and the
    output; the kernel gradient reads the output gradient and the im2col
    buffer and writes dk; the input gradient writes the im2col gradient
    and dx."""
    macs = n * f * c * kh * kw * h2 * w2
    x, cols, out, k = n * c * h * w, n * c * kh * kw * h2 * w2, n * f * h2 * w2, f * c * kh * kw
    return {"flop": 2 * macs, "fwd_bytes": 8 * (x + cols + k + out),
            "dk_bytes": 8 * (out + cols + k), "dx_bytes": 8 * (cols + x)}


class Tracer:
    """Collects spans while active; nothing is recorded otherwise."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    # -- recording -------------------------------------------------------
    def open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, len(self.spans), parent)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span):
        span.end = perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start

    @contextmanager
    def span(self, name):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def current(self):
        return self._stack[-1].name if self._stack else None

    # -- patching --------------------------------------------------------
    def _wrap(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            s = tracer.open(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(s)
            if after is not None:
                after(s, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name, after=None):
        orig = getattr(owner, attr)
        wrapped = self._wrap(name, orig, after)
        if isinstance(owner, type):
            targets = [owner]
        else:
            # every package module that bound the same function object,
            # e.g. replacement's `from .heads import head_forward`
            targets = [m for key, m in sys.modules.items()
                       if key.startswith("protostudent") and getattr(m, attr, None) is orig]
        for target in targets:
            setattr(target, attr, wrapped)
            self._undo.append((target, attr, orig))

    @contextmanager
    def active(self):
        """Install every wrapper; restore the package's functions on exit."""
        try:
            self._install()
            yield self
        finally:
            for target, attr, orig in reversed(self._undo):
                setattr(target, attr, orig)
            self._undo.clear()

    def _install(self):
        tracer = self

        def conv_after(s, args, kwargs, out):
            x, kernel = args[0], args[1]
            xs = _shape(x)
            n = xs[0] if len(xs) == 4 else 1
            f, _, kh, kw = _shape(kernel)
            cc = conv_counts(n, *xs[-3:], f, kh, kw, *_shape(out)[-2:])
            s.work, s.nbytes = cc["flop"], cc["fwd_bytes"]
            bw = out._backward_fn
            if bw is None:
                return
            grads = [key for key, t in (("dk_bytes", kernel), ("dx_bytes", x))
                     if getattr(t, "requires_grad", False)]

            def traced_bw(g):
                b = tracer.open("tensor.conv2d.bwd")
                try:
                    bw(g)
                finally:
                    tracer.close(b)
                b.work = cc["flop"] * len(grads)
                b.nbytes = sum(cc[key] for key in grads)

            out._backward_fn = traced_bw

        def batch_after(s, args, kwargs, out):
            xs = _shape(args[1])
            s.work = xs[0] if len(xs) == 4 else 1

        def one_image(s, args, kwargs, out):
            s.work = 1

        def swaps_after(s, args, kwargs, out):
            s.work = len(out)

        def file_after(s, args, kwargs, out):
            s.nbytes = os.path.getsize(args[0])

        def samples_after(s, args, kwargs, out):
            s.work = len(out)

        def student_forward_name(args):
            return ("outlier.student_forward" if tracer.current() == "outlier.score_samples"
                    else "heads.student_forward")

        patches = [
            (tensor, "conv2d", "tensor.conv2d", conv_after),
            (tensor, "einsum", "tensor.einsum", None),
            (tensor, "take_flat", "tensor.take_flat", None),
            (tensor, "tmax", "tensor.tmax", None),
            (tensor, "matmul", "tensor.matmul", None),
            (tensor, "l2_normalize", "tensor.l2_normalize", None),
            (tensor.Tensor, "backward", "tensor.backward", None),
            (encoder.Encoder, "forward", "encoder.forward", batch_after),
            (encoder.Encoder, "forward_recorded", "encoder.forward_recorded", one_image),
            (encoder, "train_teacher", "encoder.train_teacher", None),
            (heads, "head_forward", lambda a: f"heads.head_forward.{a[2].kind}", None),
            (heads.StudentModel, "forward", student_forward_name, None),
            (losses, "j_from_record", "losses.j_from_record", None),
            (losses, "total_loss", "losses.total_loss", None),
            (optim.SGD, "step", "optim.step", None),
            (replacement, "_replace_lowest", "replacement.swap", swaps_after),
            (replacement, "train_student", "replacement.train_student", None),
            (lrp, "explain", "lrp.explain", None),
            (lrp, "heatmaps", "lrp.pair", None),
            (lrp, "encoder_lrp", "lrp.encoder_lrp", None),
            (lrp, "lrp_conv_alphabeta", "lrp.conv_alphabeta", None),
            (lrp, "export_pair", "lrp.export_pair", None),
            (imagefiles, "write_pgm16", "imagefiles.write_pgm16", file_after),
            (outlier, "score_samples", "outlier.score_samples", samples_after),
            (outlier, "maxprob_score", "outlier.maxprob", None),
            (outlier, "auc", "outlier.auc", None),
            (checkpoint, "save_student", "checkpoint.save_student", file_after),
            (checkpoint, "load_student", "checkpoint.load_student", None),
            (datasets, "gen_dataset", "datasets.gen_dataset", None),
            (datasets, "gen_strokes", "datasets.gen_strokes", None),
        ]
        for owner, attr, name, after in patches:
            self._patch(owner, attr, name, after)

    # -- output ----------------------------------------------------------
    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "id": s.index,
                                     "parent": None if s.parent is None else s.parent.index,
                                     "start": s.start, "end": s.end, "self": s.self_time,
                                     "work": s.work, "bytes": s.nbytes}) + "\n")


class _Acc:
    __slots__ = ("calls", "total", "self", "work", "nbytes", "round_calls",
                 "round_work", "round_bytes")

    def __init__(self):
        self.calls = 0
        self.total = self.self = self.work = self.nbytes = 0.0
        self.round_calls = 0
        self.round_work = self.round_bytes = 0.0


def _in_round(span, memo):
    """Whether the span lies under a traced measurement round."""
    chain = []
    node = span
    result = False
    while node is not None:
        if node.index in memo:
            result = memo[node.index]
            break
        if node.name == ROUND:
            result = True
            break
        chain.append(node.index)
        node = node.parent
    for idx in chain:
        memo[idx] = result
    return result


def _step_windows(tracer: Tracer) -> dict:
    """(start, end) of every training step, per train_student span. A step
    runs from its batched encoder forward to the end of its SGD step; the
    soft-label teacher pass and the final store refresh fall outside."""
    windows = {s.index: [] for s in tracer.spans if s.name == "replacement.train_student"}
    step_start: dict = {}
    for c in tracer.spans:
        p = c.parent
        if p is None or p.index not in windows:
            continue
        if c.name == "encoder.forward":
            step_start[p.index] = c.start
        elif c.name == "optim.step" and p.index in step_start:
            windows[p.index].append((step_start.pop(p.index), c.end))
    return windows


def layer_metrics(tracer: Tracer, rounds: int, overhead_pct: float) -> dict:
    """Per-layer figures from the recorded spans.

    Times are means per call over every span of the traced process (set-up
    included, so each layer is present on every workload). Counts are per
    traced measurement round, so they repeat exactly between runs.
    """
    acc: dict = {}
    memo: dict = {}
    for s in tracer.spans:
        a = acc.get(s.name)
        if a is None:
            a = acc[s.name] = _Acc()
        a.calls += 1
        a.total += s.dur
        a.self += s.self_time
        a.work += s.work
        a.nbytes += s.nbytes
        if _in_round(s, memo):
            a.round_calls += 1
            a.round_work += s.work
            a.round_bytes += s.nbytes

    def get(name):
        return acc.get(name) or _Acc()

    def self_ms(name):
        a = get(name)
        return 1e3 * a.self / a.calls if a.calls else 0.0

    def total_ms(name):
        a = get(name)
        return 1e3 * a.total / a.calls if a.calls else 0.0

    def per_round(value):
        return value / rounds if rounds else 0.0

    conv, conv_bw = get("tensor.conv2d"), get("tensor.conv2d.bwd")
    conv_time = conv.self + conv_bw.self
    m = {
        "tensor.conv2d.fwd_ms": (self_ms("tensor.conv2d"), "ms"),
        "tensor.conv2d.bwd_ms": (self_ms("tensor.conv2d.bwd"), "ms"),
        "tensor.conv2d.calls": (per_round(conv.round_calls), "count"),
        "tensor.conv2d.gflop": (per_round(conv.round_work + conv_bw.round_work) / 1e9, "GFLOP"),
        "tensor.conv2d.mbytes": (per_round(conv.round_bytes + conv_bw.round_bytes) / 1e6, "MB"),
        "tensor.conv2d.gflop_per_s": ((conv.work + conv_bw.work) / 1e9 / conv_time
                                      if conv_time else 0.0, "GFLOP/s"),
    }
    for op in ("einsum", "take_flat", "tmax", "matmul", "l2_normalize"):
        m[f"tensor.{op}.fwd_ms"] = (self_ms(f"tensor.{op}"), "ms")
    m["tensor.backward_ms"] = (total_ms("tensor.backward"), "ms")
    m["encoder.forward_ms"] = (self_ms("encoder.forward"), "ms")
    m["encoder.forward_recorded_ms"] = (self_ms("encoder.forward_recorded"), "ms")
    for kind in heads.HEAD_KINDS:
        m[f"heads.head_forward_ms.{kind}"] = (self_ms(f"heads.head_forward.{kind}"), "ms")
    m["losses.j_from_record_ms"] = (self_ms("losses.j_from_record"), "ms")
    m["losses.total_loss_ms"] = (self_ms("losses.total_loss"), "ms")
    m["optim.step_ms"] = (self_ms("optim.step"), "ms")
    m["replacement.swap_ms"] = (self_ms("replacement.swap"), "ms")
    m["replacement.swaps"] = (per_round(get("replacement.swap").round_work), "count")
    windows = _step_windows(tracer)
    overhead = [tracer.spans[i].dur - sum(hi - lo for lo, hi in w) for i, w in windows.items()]
    m["replacement.call_overhead_ms"] = (1e3 * sum(overhead) / len(overhead)
                                         if overhead else 0.0, "ms")

    m["lrp.pair_ms"] = (self_ms("lrp.pair"), "ms")
    m["lrp.encoder_lrp_ms"] = (self_ms("lrp.encoder_lrp"), "ms")
    m["lrp.conv_alphabeta_ms"] = (self_ms("lrp.conv_alphabeta"), "ms")
    m["lrp.export_pair_ms"] = (self_ms("lrp.export_pair"), "ms")
    m["lrp.encoder_images_per_pair"] = (_images_per_pair(tracer), "count")
    m["imagefiles.write_pgm16_ms"] = (self_ms("imagefiles.write_pgm16"), "ms")
    m["imagefiles.bytes_written"] = (per_round(get("imagefiles.write_pgm16").round_bytes), "bytes")

    m["outlier.student_forward_ms"] = (total_ms("outlier.student_forward"), "ms")
    m["outlier.maxprob_ms"] = (total_ms("outlier.maxprob"), "ms")
    ss = get("outlier.score_samples")
    m["outlier.per_sample_us"] = (1e6 * ss.self / ss.work if ss.work else 0.0, "us")
    m["outlier.auc_ms"] = (self_ms("outlier.auc"), "ms")

    m["checkpoint.save_student_ms"] = (self_ms("checkpoint.save_student"), "ms")
    m["checkpoint.load_student_ms"] = (self_ms("checkpoint.load_student"), "ms")
    cs = get("checkpoint.save_student")
    m["checkpoint.bytes"] = (cs.nbytes / cs.calls if cs.calls else 0.0, "bytes")
    m["datasets.gen_dataset_s"] = (self_ms("datasets.gen_dataset") / 1e3, "s")
    m["datasets.gen_strokes_ms"] = (self_ms("datasets.gen_strokes"), "ms")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def _images_per_pair(tracer: Tracer) -> float:
    """Images pushed through the encoder per heatmap pair inside explain
    calls (batched forwards count their batch size)."""
    images = 0.0
    pairs = 0.0
    for s in tracer.spans:
        if s.name not in ("encoder.forward", "encoder.forward_recorded", "lrp.pair"):
            continue
        node = s.parent
        while node is not None and node.name != "lrp.explain":
            node = node.parent
        if node is None:
            continue
        if s.name == "lrp.pair":
            pairs += 1
        else:
            images += s.work
    return images / pairs if pairs else 0.0


def calls_per_step(tracer: Tracer) -> dict:
    """Traced calls per training step inside train_student, by span name."""
    windows = _step_windows(tracer)
    steps = sum(len(w) for w in windows.values())
    counts: dict = {}
    for s in tracer.spans:
        node = s.parent
        while node is not None and node.index not in windows:
            node = node.parent
        if node is not None and any(lo <= s.start <= hi for lo, hi in windows[node.index]):
            counts[s.name] = counts.get(s.name, 0) + 1
    return {name: n / steps for name, n in sorted(counts.items())} if steps else {}
