"""Generators: determinism, value ranges, corruption characteristics,
HSV conversion, the 16-bit PGM round trip and the in-place file writer."""
import errno
import os
import stat

import numpy as np
import pytest

from protostudent.datasets import (ALT_SHAPES, PRIMARY_SHAPES, DatasetError,
                                   gen_altered_color, gen_dataset, gen_strokes,
                                   hsv_to_rgb, rgb_to_hsv)
from protostudent.imagefiles import ImageFormatError, read_pgm16, write_file, write_pgm16


class TestGenDataset:
    def test_bit_identical_from_seed(self):
        a = gen_dataset(7, 5, 3)
        b = gen_dataset(7, 5, 3)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_empty_per_class(self):
        ds = gen_dataset(0, 0, 2)
        assert len(ds.labels) == 0

    def test_balanced_and_in_range(self):
        ds = gen_dataset(1, 10, 4)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        counts = np.bincount(ds.labels)
        np.testing.assert_array_equal(counts, 10)

    def test_families_are_disjoint(self):
        assert not set(PRIMARY_SHAPES) & set(ALT_SHAPES)
        a = gen_dataset(0, 3, 3, family="primary")
        b = gen_dataset(0, 3, 3, family="alt")
        assert not np.array_equal(a.images, b.images)

    def test_class_count_limits(self):
        with pytest.raises(DatasetError):
            gen_dataset(0, 2, 1)
        with pytest.raises(DatasetError):
            gen_dataset(0, 2, len(PRIMARY_SHAPES) + 1)

    def test_unknown_family_rejected(self):
        with pytest.raises(DatasetError, match="'foo'"):
            gen_dataset(0, 2, 2, family="foo")


class TestStrokes:
    def test_no_strokes_is_identity(self):
        ds = gen_dataset(2, 2, 2)
        out = gen_strokes(ds.images[0], 5, 0, seed=0)
        np.testing.assert_array_equal(out, ds.images[0])

    def test_thick_stroke_occludes_heavily(self):
        ds = gen_dataset(3, 2, 2)
        out = gen_strokes(ds.images[0], 32, 1, seed=0)
        changed = (np.abs(out - ds.images[0]).max(axis=0) > 1e-12).mean()
        assert changed > 0.30

    def test_default_coverage_band_100_seeds(self):
        """Thickness-5 strokes at the default count touch between 2% and
        25% of a 32x32 image."""
        ds = gen_dataset(4, 10, 4)
        for seed in range(100):
            img = ds.images[seed % len(ds.images)]
            out = gen_strokes(img, 5, 3, seed=seed)
            frac = (np.abs(out - img).max(axis=0) > 1e-12).mean()
            assert 0.02 <= frac <= 0.25, f"seed {seed}: coverage {frac:.3f}"

    def test_range_preserved(self):
        ds = gen_dataset(5, 2, 2)
        out = gen_strokes(ds.images[1], 5, 3, seed=9)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_bad_thickness_rejected(self):
        with pytest.raises(DatasetError):
            gen_strokes(np.zeros((3, 8, 8)), 0, 1, seed=0)


class TestAlteredColor:
    def test_grayscale_becomes_saturated(self):
        gray = np.full((3, 8, 8), 0.5)
        out = gen_altered_color(gray, seed=0)
        s = rgb_to_hsv(out)[1]
        assert (s >= 0.6 - 1e-9).all()

    def test_conversions_invert_each_other(self):
        """The RGB -> HSV -> RGB chain the generator runs returns the image
        when no floor or hue offset applies."""
        rng = np.random.default_rng(1)
        img = np.clip(rng.random((3, 8, 8)) * 0.5 + 0.4, 0, 1)
        np.testing.assert_allclose(hsv_to_rgb(rgb_to_hsv(img)), img, atol=1e-9)

    def test_range_preserved(self):
        ds = gen_dataset(6, 2, 2)
        out = gen_altered_color(ds.images[0], seed=3)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_hue_actually_rotates(self):
        ds = gen_dataset(7, 2, 2)
        out = gen_altered_color(ds.images[0], seed=4)
        assert np.abs(out - ds.images[0]).max() > 0.05


class TestHsvRoundTrip:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            img = rng.random((3, 6, 6))
            np.testing.assert_allclose(hsv_to_rgb(rgb_to_hsv(img)), img, atol=1e-6)

    def test_known_colors(self):
        red = np.array([1.0, 0.0, 0.0]).reshape(3, 1, 1)
        h, s, v = rgb_to_hsv(red)[:, 0, 0]
        assert (h, s, v) == pytest.approx((0.0, 1.0, 1.0))
        blue = hsv_to_rgb(np.array([2 / 3, 1.0, 1.0]).reshape(3, 1, 1))
        np.testing.assert_allclose(blue[:, 0, 0], [0.0, 0.0, 1.0], atol=1e-12)


class TestImageFiles:
    def test_pgm16_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        img = rng.random((4, 6))
        write_pgm16(tmp_path / "x.pgm", img)
        back = read_pgm16(tmp_path / "x.pgm")
        assert np.abs(back - img).max() <= 0.5 / 65535 + 1e-12

    def test_corrupt_pgm_rejected(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P5\n4 4\n65535\nshort")
        with pytest.raises(ImageFormatError):
            read_pgm16(tmp_path / "bad.pgm")

    @pytest.mark.parametrize("header", [b"P5 3 2 65535 ", b"P5\n3\n2\n65535\n",
                                        b"P5\t3  2\r\n65535\n"])
    def test_whitespace_separated_headers_parse(self, tmp_path, header):
        words = (np.arange(6) * 10000).astype(">u2")
        (tmp_path / "x.pgm").write_bytes(header + words.tobytes())
        np.testing.assert_array_equal(read_pgm16(tmp_path / "x.pgm"),
                                      words.reshape(2, 3) / 65535.0)

    @pytest.mark.parametrize("header", [b"P5\n# made by hand\n3 2\n65535\n",
                                        b"P5 3 2 # note\n65535\n", b"P6\n3 2\n65535\n",
                                        b"P5\n3 2\n65535", b"P5\n-3 2\n65535\n"])
    def test_header_outside_the_written_form_rejected(self, tmp_path, header):
        """A comment, another magic, a missing whitespace byte after maxval
        or a signed size is not the header `write_pgm16` writes."""
        (tmp_path / "x.pgm").write_bytes(header + bytes(12))
        with pytest.raises(ImageFormatError):
            read_pgm16(tmp_path / "x.pgm")


def _open_fds() -> set:
    return set(os.listdir("/proc/self/fd"))


class TestWriteFile:
    def test_long_short_long_leaves_exactly_the_new_bytes(self, tmp_path):
        path = tmp_path / "f.bin"
        for data in (b"L" * 10_000, b"short", bytes(range(256)) * 40):
            write_file(path, data)
            assert path.read_bytes() == data
            assert path.stat().st_size == len(data)

    def test_never_truncates_to_zero_first(self, tmp_path, monkeypatch):
        """The file is opened without O_TRUNC and cut once, to the new
        length, after the bytes are written."""
        path = tmp_path / "f.bin"
        path.write_bytes(b"x" * 4096)
        calls = []

        def spy(name):
            real = getattr(os, name)

            def call(*args):
                calls.append((name, args))
                return real(*args)
            return call

        for name in ("open", "write", "ftruncate"):
            monkeypatch.setattr(os, name, spy(name))
        write_file(path, b"new bytes")
        monkeypatch.undo()
        assert [name for name, _ in calls] == ["open", "write", "ftruncate"]
        assert not calls[0][1][1] & os.O_TRUNC
        assert calls[2][1][1] == len(b"new bytes")
        assert path.read_bytes() == b"new bytes"

    def test_existing_file_keeps_inode_and_mode(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"old contents, longer than the new ones")
        path.chmod(0o640)
        before = path.stat()
        write_file(path, b"new")
        after = path.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
        assert path.read_bytes() == b"new"

    def test_new_file_mode_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_file(tmp_path / "f.bin", b"x")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "f.bin").stat().st_mode) == 0o666 & ~0o027

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.bin"
        target.write_bytes(b"0123456789")
        link = tmp_path / "link.bin"
        link.symlink_to(target)
        write_file(link, b"abc")
        assert link.is_symlink()
        assert target.read_bytes() == b"abc"

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        real_write = os.write
        calls = []

        def one_byte(fd, buf):
            calls.append(len(buf))
            return real_write(fd, bytes(buf[:1]))

        monkeypatch.setattr(os, "write", one_byte)
        data = b"P5\n2 1\n65535\n\x00\x01\xff\xfe"
        write_file(tmp_path / "f.pgm", data)
        monkeypatch.undo()
        assert (tmp_path / "f.pgm").read_bytes() == data
        assert calls == list(range(len(data), 0, -1))

    def test_directory_path_raises_and_leaks_no_fd(self, tmp_path):
        before = _open_fds()
        with pytest.raises(IsADirectoryError):
            write_file(tmp_path, b"x")
        assert _open_fds() == before

    def test_failed_write_closes_the_fd(self, tmp_path, monkeypatch):
        real_close = os.close
        opened, closed = [], []

        def full_disk(fd, buf):
            opened.append(fd)
            raise OSError(errno.ENOSPC, "No space left on device")

        def record_close(fd):
            closed.append(fd)
            real_close(fd)

        before = _open_fds()
        monkeypatch.setattr(os, "write", full_disk)
        monkeypatch.setattr(os, "close", record_close)
        with pytest.raises(OSError) as err:
            write_file(tmp_path / "f.bin", b"data")
        monkeypatch.undo()
        assert err.value.errno == errno.ENOSPC
        assert closed == opened[:1] and len(opened) == 1
        assert _open_fds() == before
