"""Binary model checkpoints.

Layout: magic "PBSN1", format version (u32 LE), manifest length (u64 LE),
UTF-8 JSON manifest, payload of little-endian float64 arrays concatenated
in manifest order, CRC32 of the payload (u32 LE). The manifest names
every tensor with its shape plus the head kind, prototype ids/labels, and
encoder configuration, so a load rebuilds the exact model.
"""
from __future__ import annotations

import json
import struct
import zlib
from contextlib import contextmanager

import numpy as np

from .encoder import Encoder, EncoderConfig, TeacherModel
from .heads import HeadModel, StudentModel
from .replacement import PrototypeStore
from .tensor import Tensor

MAGIC = b"PBSN1"
VERSION = 1


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
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def _read(path) -> tuple:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 12 or not data.startswith(MAGIC):
        raise CorruptCheckpointError("bad magic")
    pos = len(MAGIC)
    version, = struct.unpack_from("<I", data, pos)
    if version != VERSION:
        raise CorruptCheckpointError(f"unsupported format version {version}")
    pos += 4
    blob_len, = struct.unpack_from("<Q", data, pos)
    pos += 8
    if pos + blob_len > len(data):
        raise CorruptCheckpointError("truncated manifest")
    with _manifest_errors():
        manifest = json.loads(data[pos:pos + blob_len].decode("utf-8"))
        specs = [(spec["name"], [int(d) for d in spec["shape"]]) for spec in manifest["tensors"]]
    pos += blob_len
    need = sum(int(np.prod(shape)) for _, shape in specs) * 8
    if pos + need + 4 > len(data):
        raise CorruptCheckpointError("truncated payload")
    payload = data[pos:pos + need]
    crc, = struct.unpack_from("<I", data, pos + need)
    if crc != zlib.crc32(payload):
        raise CorruptCheckpointError("payload CRC mismatch")
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
        k.data = tensors[f"{prefix}.block{i}.kernel"].copy()
        b.data = tensors[f"{prefix}.block{i}.bias"].copy()
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
    tensors["head.w"] = student.head.w.data
    tensors["head.b"] = student.head.b.data
    if student.head.conv1d_w is not None:
        tensors["head.conv1d_w"] = student.head.conv1d_w.data
    tensors["store.m"] = store.m_weights.data
    tensors["store.images"] = store.images
    _write(path, {"kind": "student",
                  "head_kind": student.head.kind,
                  "k": len(store),
                  "class_count": student.class_count,
                  "encoder": student.encoder.config.to_dict(),
                  "prototype_ids": [int(i) for i in store.ids],
                  "prototype_labels": [int(c) for c in store.labels]}, tensors)


def load_student(path) -> StudentModel:
    manifest, tensors = _read(path)
    if manifest.get("kind") != "student":
        raise CorruptCheckpointError("not a student checkpoint")
    with _manifest_errors():
        config = EncoderConfig.from_dict(manifest["encoder"])
        enc = _load_encoder("encoder", config, tensors)
        store = PrototypeStore(ids=np.asarray(manifest["prototype_ids"], dtype=np.int64),
                               images=tensors["store.images"].copy(),
                               labels=np.asarray(manifest["prototype_labels"], dtype=np.int64),
                               m_weights=Tensor(tensors["store.m"].copy(), requires_grad=True))
        head = HeadModel(kind=manifest["head_kind"],
                         w=Tensor(tensors["head.w"].copy(), requires_grad=True),
                         b=Tensor(tensors["head.b"].copy(), requires_grad=True),
                         conv1d_w=Tensor(tensors["head.conv1d_w"].copy(), requires_grad=True)
                         if "head.conv1d_w" in tensors else None,
                         prototype_refs=store)
        student = StudentModel(encoder=enc, head=head, store=store,
                               class_count=int(manifest["class_count"]))
    student.refresh_store_features()
    return student
