"""Checkpoint container: bit-exact round trips, manifest completeness,
and corruption rejection."""
import json
import struct

import numpy as np
import pytest

from protostudent.checkpoint import (MAGIC, CorruptCheckpointError,
                                     load_student, load_teacher, save_student,
                                     save_teacher)
from protostudent.encoder import EncoderConfig, train_teacher

from conftest import micro_student


def tiny_teacher():
    rng = np.random.default_rng(0)
    imgs = rng.random((40, 3, 8, 8))
    labs = (np.arange(40) % 2).astype(np.int64)
    cfg = EncoderConfig(in_channels=3, blocks=((4, 3, 2), (8, 3, 2)), input_size=(8, 8))
    return train_teacher((imgs, labs), epochs=2, lr=0.05, seed=0, config=cfg)


class TestTeacherRoundTrip:
    def test_logits_identical_to_zero_ulp(self, tmp_path):
        teacher = tiny_teacher()
        save_teacher(tmp_path / "t.ckpt", teacher)
        back = load_teacher(tmp_path / "t.ckpt")
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.random((1, 3, 8, 8))
            np.testing.assert_array_equal(back.predict_logits(x), teacher.predict_logits(x))

    def test_wrong_kind_rejected(self, tmp_path):
        student = micro_student("I", seed=0)
        save_student(tmp_path / "s.ckpt", student)
        with pytest.raises(CorruptCheckpointError):
            load_teacher(tmp_path / "s.ckpt")


class TestStudentRoundTrip:
    def test_logits_identical_to_zero_ulp(self, tmp_path, head_kind):
        student = micro_student(head_kind, seed=1)
        save_student(tmp_path / "s.ckpt", student)
        back = load_student(tmp_path / "s.ckpt")
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.random((1, 2, 4, 4))
            np.testing.assert_array_equal(back.predict_logits(x), student.predict_logits(x))

    def test_manifest_lists_all_parameters(self, tmp_path):
        student = micro_student("III-B", seed=3)
        save_student(tmp_path / "s.ckpt", student)
        data = (tmp_path / "s.ckpt").read_bytes()
        blob_len, = struct.unpack_from("<Q", data, len(MAGIC) + 4)
        manifest = json.loads(data[len(MAGIC) + 12:len(MAGIC) + 12 + blob_len])
        names = {t["name"] for t in manifest["tensors"]}
        assert {"head.w", "head.b", "head.conv1d_w", "store.m", "store.images"} <= names
        assert any(n.startswith("encoder.block") for n in names)
        assert manifest["prototype_ids"] == [int(i) for i in student.store.ids]
        assert manifest["prototype_labels"] == [int(c) for c in student.store.labels]

    def test_store_contents_preserved(self, tmp_path):
        student = micro_student("II-B", seed=4)
        student.store.m_weights.data[:] = [0.5, 1.5, 0.25, 2.0]
        save_student(tmp_path / "s.ckpt", student)
        back = load_student(tmp_path / "s.ckpt")
        np.testing.assert_array_equal(back.store.m_weights.data, [0.5, 1.5, 0.25, 2.0])
        np.testing.assert_array_equal(back.store.images, student.store.images)


class TestCorruption:
    def _saved(self, tmp_path):
        student = micro_student("I", seed=5)
        path = tmp_path / "s.ckpt"
        save_student(path, student)
        return path

    def test_truncated_file_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(CorruptCheckpointError):
            load_student(path)

    def test_payload_bitflip_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[-40] ^= 0xFF  # inside the payload, ahead of the CRC
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptCheckpointError):
            load_student(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[:5] = b"XXXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptCheckpointError):
            load_student(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 5, 99)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptCheckpointError):
            load_student(path)

    def _rewrite_manifest(self, path, edit):
        """Replace the manifest by edit(manifest bytes), keeping the payload
        and its CRC, so only the manifest is wrong."""
        data = path.read_bytes()
        head = len(MAGIC) + 12
        blob_len, = struct.unpack_from("<Q", data, len(MAGIC) + 4)
        blob = edit(data[head:head + blob_len])
        path.write_bytes(data[:len(MAGIC) + 4] + struct.pack("<Q", len(blob)) + blob
                         + data[head + blob_len:])

    def _drop_key(self, key):
        def edit(blob):
            manifest = json.loads(blob)
            del manifest[key]
            return json.dumps(manifest).encode("utf-8")
        return edit

    def test_non_utf8_manifest_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[20] = 0xFF  # inside the manifest
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptCheckpointError):
            load_student(path)

    def test_non_json_manifest_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        self._rewrite_manifest(path, lambda blob: b"x" * len(blob))
        with pytest.raises(CorruptCheckpointError):
            load_student(path)

    def test_non_object_manifest_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        self._rewrite_manifest(path, lambda blob: b"[1, 2, 3]")
        with pytest.raises(CorruptCheckpointError):
            load_student(path)

    @pytest.mark.parametrize("key", ["tensors", "encoder", "prototype_ids", "head_kind",
                                     "class_count"])
    def test_manifest_missing_key_rejected(self, tmp_path, key):
        path = self._saved(tmp_path)
        self._rewrite_manifest(path, self._drop_key(key))
        with pytest.raises(CorruptCheckpointError):
            load_student(path)

    @pytest.mark.parametrize("key", ["encoder", "class_count"])
    def test_teacher_manifest_missing_key_rejected(self, tmp_path, key):
        path = tmp_path / "t.ckpt"
        save_teacher(path, tiny_teacher())
        self._rewrite_manifest(path, self._drop_key(key))
        with pytest.raises(CorruptCheckpointError):
            load_teacher(path)
