"""Binary model checkpoints.

Layout: magic "PBSN1", format version (u32 LE), manifest length (u64 LE),
UTF-8 JSON manifest, payload of little-endian float64 arrays concatenated
in manifest order, CRC32 of every byte before it (u32 LE). The manifest
names every tensor with its shape plus the head kind, prototype
ids/labels, and encoder configuration, so a load rebuilds the exact model.

The CRC covers the header and the manifest as well as the payload, and is
checked before the manifest is parsed, so an edited prototype label or
tensor shape is rejected like a flipped payload bit. Version 1 files (CRC
over the payload only) and version 2 files (an importance vector
`store.m` where version 3 has birth stamps `store.born`) are rejected. A
save overwrites an existing file in place (`imagefiles.write_file`), so
one cut short mixes new and old bytes, which the CRC rejects.

A file with a valid CRC is also checked against itself: encoder tensor
shapes against the encoder configuration and, for students, the
prototype count and label range across the manifest and the tensors,
and the head tensors against those `heads.make_head` builds.
"""
from __future__ import annotations

import json
import struct
import zlib
from contextlib import contextmanager

import numpy as np

from .encoder import Encoder, EncoderConfig, TeacherModel
from .heads import ConfigurationError, HeadModel, StudentModel, make_head
from .imagefiles import write_file
from .replacement import PrototypeStore
from .tensor import Tensor

MAGIC = b"PBSN1"
VERSION = 3
# a student's head tensors, in `HeadModel.params` order
_HEAD_TENSORS = ("head.w", "head.b", "head.conv1d_w")


class CorruptCheckpointError(RuntimeError):
    """Magic, version, manifest, shape bookkeeping, or CRC verification
    failed."""


@contextmanager
def _manifest_errors():
    """Report a manifest that is not UTF-8 JSON, or lacks a field the
    loader reads, as a corrupt checkpoint (UnicodeDecodeError and
    JSONDecodeError are ValueErrors)."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as err:
        raise CorruptCheckpointError(f"bad manifest: {err!r}") from err


def _write(path, manifest: dict, tensors: dict):
    manifest = dict(manifest)
    manifest["format_version"] = VERSION
    manifest["tensors"] = [{"name": name, "shape": list(arr.shape)}
                           for name, arr in tensors.items()]
    payload = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                       for arr in tensors.values())
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    head = MAGIC + struct.pack("<IQ", VERSION, len(blob)) + blob
    write_file(path, head + payload + struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))))


def _read(path) -> tuple:
    with open(path, "rb") as fh:
        data = fh.read()
    pos = len(MAGIC) + 12
    if len(data) < pos + 4 or not data.startswith(MAGIC):
        raise CorruptCheckpointError("bad magic")
    version, blob_len = struct.unpack_from("<IQ", data, len(MAGIC))
    if version != VERSION:
        raise CorruptCheckpointError(f"unsupported format version {version} (this build reads {VERSION})")
    end = len(data) - 4
    crc, = struct.unpack_from("<I", data, end)
    if crc != zlib.crc32(memoryview(data)[:end]):
        raise CorruptCheckpointError("CRC mismatch: corrupt or truncated file")
    if pos + blob_len > end:
        raise CorruptCheckpointError("truncated manifest")
    with _manifest_errors():
        manifest = json.loads(data[pos:pos + blob_len].decode("utf-8"))
        specs = [(spec["name"], [int(d) for d in spec["shape"]]) for spec in manifest["tensors"]]
    pos += blob_len
    if pos + sum(int(np.prod(shape)) for _, shape in specs) * 8 != end:
        raise CorruptCheckpointError("payload size does not match the manifest")
    payload = data[pos:end]
    tensors = {}
    off = 0
    for name, shape in specs:
        count = int(np.prod(shape))
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=off)
        tensors[name] = arr.reshape(shape).astype(np.float64)
        off += count * 8
    return manifest, tensors


def _encoder_tensors(prefix: str, enc: Encoder, out: dict):
    for i, (k, b) in enumerate(zip(enc.kernels, enc.biases)):
        out[f"{prefix}.block{i}.kernel"] = k.data
        out[f"{prefix}.block{i}.bias"] = b.data


def _load_encoder(prefix: str, config: EncoderConfig, tensors: dict) -> Encoder:
    enc = Encoder(config)
    for i, (k, b) in enumerate(zip(enc.kernels, enc.biases)):
        for name, param in ((f"{prefix}.block{i}.kernel", k), (f"{prefix}.block{i}.bias", b)):
            arr = tensors[name]
            if arr.shape != param.shape:
                raise CorruptCheckpointError(f"{name} has shape {list(arr.shape)}, "
                                             f"the encoder config implies {list(param.shape)}")
            param.data = arr.copy()
    return enc


def save_teacher(path, teacher: TeacherModel):
    tensors = {}
    _encoder_tensors("encoder", teacher.encoder, tensors)
    tensors["classifier.w"] = teacher.w.data
    tensors["classifier.b"] = teacher.b.data
    _write(path, {"kind": "teacher",
                  "class_count": teacher.class_count,
                  "encoder": teacher.encoder.config.to_dict(),
                  "train_accuracy": teacher.train_accuracy,
                  "val_accuracy": teacher.val_accuracy}, tensors)


def load_teacher(path) -> TeacherModel:
    manifest, tensors = _read(path)
    if manifest.get("kind") != "teacher":
        raise CorruptCheckpointError("not a teacher checkpoint")
    with _manifest_errors():
        config = EncoderConfig.from_dict(manifest["encoder"])
        enc = _load_encoder("encoder", config, tensors)
        teacher = TeacherModel(encoder=enc,
                               w=Tensor(tensors["classifier.w"].copy(), requires_grad=True),
                               b=Tensor(tensors["classifier.b"].copy(), requires_grad=True),
                               class_count=int(manifest["class_count"]),
                               train_accuracy=float(manifest.get("train_accuracy", 0.0)),
                               val_accuracy=float(manifest.get("val_accuracy", 0.0)))
    return teacher


def save_student(path, student: StudentModel):
    store = student.store
    tensors = {}
    _encoder_tensors("encoder", student.encoder, tensors)
    tensors.update(zip(_HEAD_TENSORS, (p.data for p in student.head.params)))
    tensors["store.born"] = store.born
    tensors["store.images"] = store.images
    _write(path, {"kind": "student",
                  "head_kind": student.head.kind,
                  "k": len(store),
                  "class_count": student.class_count,
                  "encoder": student.encoder.config.to_dict(),
                  "prototype_ids": [int(i) for i in store.ids],
                  "prototype_labels": [int(c) for c in store.labels]}, tensors)


def _check_student(manifest: dict, tensors: dict, channels: int) -> HeadModel:
    """Reject a well-formed file whose parts disagree with each other:
    prototype counts, label range, and head tensors missing, present or
    shaped unlike `make_head`'s for the file; returns that made head."""
    kind = manifest["head_kind"]
    classes = int(manifest["class_count"])
    k = int(manifest["k"])
    labels = [int(c) for c in manifest["prototype_labels"]]
    counts = {"k": k, "prototype_ids": len(manifest["prototype_ids"]),
              "prototype_labels": len(labels), "store.images rows": len(tensors["store.images"]),
              "store.born": tensors["store.born"].size}
    if len(set(counts.values())) != 1:
        raise CorruptCheckpointError(f"prototype counts disagree: {counts}")
    bad = [c for c in labels if not 0 <= c < classes]
    if bad:
        raise CorruptCheckpointError(f"prototype labels {bad} outside [0, {classes})")
    try:
        head = make_head(kind, k, classes, channels)
    except ConfigurationError as err:
        raise CorruptCheckpointError(str(err)) from err
    for name, param in zip(_HEAD_TENSORS, (head.w, head.b, head.conv1d_w)):
        if (name in tensors) != (param is not None):
            state = "present" if name in tensors else "missing"
            raise CorruptCheckpointError(f"{name} {state} for head {kind}")
        if param is not None and tensors[name].shape != param.shape:
            raise CorruptCheckpointError(
                f"{name} has shape {list(tensors[name].shape)}, head {kind} with class_count "
                f"{classes}, k {k} and {channels} feature channels implies {list(param.shape)}")
    return head


def load_student(path) -> StudentModel:
    manifest, tensors = _read(path)
    if manifest.get("kind") != "student":
        raise CorruptCheckpointError("not a student checkpoint")
    with _manifest_errors():
        config = EncoderConfig.from_dict(manifest["encoder"])
        head = _check_student(manifest, tensors, config.feature_shape()[0])
        for name, param in zip(_HEAD_TENSORS, head.params):
            param.data = tensors[name].copy()
        enc = _load_encoder("encoder", config, tensors)
        store = PrototypeStore(ids=np.asarray(manifest["prototype_ids"], dtype=np.int64),
                               images=tensors["store.images"].copy(),
                               labels=np.asarray(manifest["prototype_labels"], dtype=np.int64),
                               born=tensors["store.born"].astype(np.int64))
        student = StudentModel(encoder=enc, head=head, store=store,
                               class_count=int(manifest["class_count"]))
    student.refresh_store_features()
    return student
