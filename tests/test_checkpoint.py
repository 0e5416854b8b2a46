"""Checkpoint container: bit-exact round trips, manifest completeness,
and corruption rejection."""
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from protostudent.checkpoint import (MAGIC, CorruptCheckpointError, _read, _write,
                                     load_student, load_teacher, save_student,
                                     save_teacher)
from protostudent.encoder import EncoderConfig, train_teacher

from conftest import micro_student

# the encoder of an 8x8 RGB run with `encoder_blocks` [[3, 3, 2]]
CLI_ENCODER = EncoderConfig(in_channels=3, blocks=((3, 3, 2),), input_size=(8, 8))


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
        assert {"head.w", "head.b", "head.conv1d_w", "store.born", "store.images"} <= names
        assert any(n.startswith("encoder.block") for n in names)
        assert manifest["prototype_ids"] == [int(i) for i in student.store.ids]
        assert manifest["prototype_labels"] == [int(c) for c in student.store.labels]

    def test_store_contents_preserved(self, tmp_path):
        student = micro_student("II-B", seed=4)
        student.store.born[:] = [0, 7, 3, 7]
        save_student(tmp_path / "s.ckpt", student)
        back = load_student(tmp_path / "s.ckpt")
        np.testing.assert_array_equal(back.store.born, [0, 7, 3, 7])
        assert back.store.born.dtype == np.int64
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

    @staticmethod
    def _reseal(path, body):
        """Write body with a valid CRC, so the CRC check passes and the
        loader's own parsing has to reject what is wrong in the body."""
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))

    def _rewrite_manifest(self, path, edit):
        """Replace the manifest by edit(manifest bytes), keeping the payload
        and sealing a fresh CRC, so only the manifest is wrong."""
        data = path.read_bytes()
        head = len(MAGIC) + 12
        blob_len, = struct.unpack_from("<Q", data, len(MAGIC) + 4)
        blob = edit(data[head:head + blob_len])
        self._reseal(path, data[:len(MAGIC) + 4] + struct.pack("<Q", len(blob)) + blob
                     + data[head + blob_len:-4])

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
        self._reseal(path, bytes(data[:-4]))
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

    def test_manifest_label_flip_rejected(self, tmp_path):
        """A prototype label edited inside the manifest, with the file
        length and the payload unchanged, fails the CRC."""
        path = self._saved(tmp_path)
        data = path.read_bytes()
        old = b'"prototype_labels": [0, 1, 0, 1]'
        assert data.count(old) == 1
        path.write_bytes(data.replace(old, b'"prototype_labels": [1, 1, 0, 1]'))
        with pytest.raises(CorruptCheckpointError, match="CRC"):
            load_student(path)

    def test_version_1_rejected_by_name(self, tmp_path):
        """A version 1 file (CRC over the payload only) is refused, and the
        error names the version."""
        path = self._saved(tmp_path)
        data = path.read_bytes()
        blob_len, = struct.unpack_from("<Q", data, len(MAGIC) + 4)
        payload = data[len(MAGIC) + 12 + blob_len:-4]
        v1 = bytearray(data[:-4] + struct.pack("<I", zlib.crc32(payload)))
        struct.pack_into("<I", v1, len(MAGIC), 1)
        path.write_bytes(bytes(v1))
        with pytest.raises(CorruptCheckpointError, match="version 1"):
            load_student(path)

    def test_version_2_rejected_by_name(self, tmp_path):
        """A version 2 file (an importance vector `store.m` where version 3
        keeps the birth stamps) is refused, and the error names the
        version."""
        path = self._saved(tmp_path)
        self._rewrite_manifest(path, lambda blob: blob.replace(b'"store.born"', b'"store.m"'))
        data = bytearray(path.read_bytes()[:-4])
        struct.pack_into("<I", data, len(MAGIC), 2)
        self._reseal(path, bytes(data))
        with pytest.raises(CorruptCheckpointError, match="version 2"):
            load_student(path)


class TestSelfConsistency:
    """Files with a valid CRC whose manifest disagrees with itself or with
    the tensors are refused with a named reason."""

    _rewrite_manifest = TestCorruption._rewrite_manifest
    _reseal = staticmethod(TestCorruption._reseal)

    def _edit(self, tmp_path, change, kind="I"):
        path = tmp_path / "s.ckpt"
        save_student(path, micro_student(kind, seed=5))

        def edit(blob):
            manifest = json.loads(blob)
            change(manifest)
            return json.dumps(manifest, sort_keys=True).encode("utf-8")
        self._rewrite_manifest(path, edit)
        return path

    def test_label_outside_class_range_rejected(self, tmp_path):
        path = self._edit(tmp_path, lambda m: m.update(prototype_labels=[7, 1, 0, 1]))
        with pytest.raises(CorruptCheckpointError, match=r"labels \[7\] outside \[0, 2\)"):
            load_student(path)

    @pytest.mark.parametrize("change", [
        lambda m: m.update(k=5),
        lambda m: m.update(prototype_ids=m["prototype_ids"][:3]),
        lambda m: m.update(prototype_labels=m["prototype_labels"][:3]),
    ], ids=["k", "ids", "labels"])
    def test_prototype_count_mismatch_rejected(self, tmp_path, change):
        path = self._edit(tmp_path, change)
        with pytest.raises(CorruptCheckpointError, match="prototype counts disagree"):
            load_student(path)

    def test_head_rows_against_class_count_rejected(self, tmp_path):
        path = self._edit(tmp_path, lambda m: m.update(class_count=3))
        with pytest.raises(CorruptCheckpointError, match="class_count"):
            load_student(path)

    def test_wrong_kernel_shape_rejected(self, tmp_path):
        """Same element count, so the payload size still matches."""
        def change(m):
            spec = next(t for t in m["tensors"] if t["name"] == "encoder.block0.kernel")
            assert spec["shape"] == [3, 2, 2, 2]
            spec["shape"] = [2, 3, 2, 2]
        path = self._edit(tmp_path, change)
        with pytest.raises(CorruptCheckpointError, match="encoder.block0.kernel"):
            load_student(path)

    @pytest.mark.parametrize("saved,claimed,state", [("I", "III-A", "missing"),
                                                     ("III-B", "II-A", "present")])
    def test_conv1d_weights_against_head_kind_rejected(self, tmp_path, saved, claimed, state):
        path = self._edit(tmp_path, lambda m: m.update(head_kind=claimed), kind=saved)
        with pytest.raises(CorruptCheckpointError, match=f"conv1d_w {state}"):
            load_student(path)

    def test_unknown_head_kind_rejected(self, tmp_path):
        path = self._edit(tmp_path, lambda m: m.update(head_kind="IV"))
        with pytest.raises(CorruptCheckpointError, match="unknown head kind 'IV'"):
            load_student(path)

    @staticmethod
    def _rewrite_tensor(path, name, change):
        """Rewrite the file with one tensor changed, through the writer
        itself, so the CRC and the manifest's shapes are valid."""
        manifest, tensors = _read(path)
        tensors[name] = change(tensors[name])
        _write(path, manifest, tensors)

    @pytest.mark.parametrize("kind,name,change", [
        ("II-B", "head.b", lambda b: b[:1]),
        ("III-A", "head.conv1d_w", lambda v: np.ones(7)),
        ("III-C", "head.w", lambda w: w[:, :3]),
    ], ids=["one-entry-bias", "conv1d_w-length", "head.w-columns"])
    def test_head_tensor_shape_against_make_head_rejected(self, tmp_path, kind, name, change):
        """A bias of one entry would broadcast over every class, and a
        channel kernel of the wrong length would only fail at the first
        forward, as a configuration error."""
        path = tmp_path / "s.ckpt"
        save_student(path, micro_student(kind, seed=5))
        self._rewrite_tensor(path, name, change)
        with pytest.raises(CorruptCheckpointError, match=f"^{name} has shape"):
            load_student(path)

    @pytest.mark.parametrize("name,change", [("head.b", lambda b: b[:1]),
                                             ("head.conv1d_w", lambda v: np.ones(7))],
                             ids=["head.b", "head.conv1d_w"])
    def test_cli_maps_bad_head_tensor_to_input_error(self, tmp_path, capsys, name, change):
        from protostudent.cli import main
        out = tmp_path / "out"
        out.mkdir()
        save_student(out / "student.ckpt", micro_student("III-B", seed=5, config=CLI_ENCODER))
        self._rewrite_tensor(out / "student.ckpt", name, change)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": str(out), "classes": 2, "n_per_class": 2,
                                   "n_test_per_class": 2, "image_size": 8,
                                   "encoder_blocks": [[3, 3, 2]]}))
        assert main(["explain", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and err.startswith(f"input error: {name} has shape")

    def test_cli_maps_inconsistent_checkpoint_to_exit_2(self, tmp_path, capsys):
        from protostudent.cli import main
        out = tmp_path / "out"
        out.mkdir()
        self._edit(out, lambda m: m.update(prototype_labels=[7, 1, 0, 1]))
        (out / "s.ckpt").rename(out / "student.ckpt")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out_dir": str(out), "classes": 2, "n_per_class": 2,
                                   "n_test_per_class": 2, "image_size": 8}))
        assert main(["explain", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "outside [0, 2)" in err


@pytest.fixture(scope="module")
def saved_student(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "s.ckpt"
    save_student(path, micro_student("III-B", seed=6))
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), flip=st.integers(1, 255))
def test_any_single_byte_flip_rejected(saved_student, data, flip):
    """Whatever byte of a checkpoint changes (magic, version, length,
    manifest, payload or the CRC itself), the load fails loudly."""
    path, good = saved_student
    pos = data.draw(st.integers(0, len(good) - 1), label="pos")
    bad = bytearray(good)
    bad[pos] ^= flip
    path.write_bytes(bytes(bad))
    with pytest.raises(CorruptCheckpointError):
        load_student(path)
