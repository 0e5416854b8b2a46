"""Generators: pinned output, determinism, value ranges, corruption
characteristics, HSV conversion, the 16-bit PGM round trip and the
in-place file writer."""
import errno
import hashlib
import os
import stat

import numpy as np
import pytest

from protostudent import datasets
from protostudent.datasets import (ALT_SHAPES, PRIMARY_SHAPES, DatasetError, _solid,
                                   gen_altered_color, gen_dataset, gen_strokes,
                                   hsv_to_rgb, rgb_to_hsv)
from protostudent.imagefiles import ImageFormatError, read_pgm16, write_file, write_pgm16

from oracles import hsv_to_rgb_choose, rgb_to_hsv_branches


def _digest(*arrays) -> str:
    """SHA-256 over each array's dtype, shape and C-order bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _corruption_bases() -> list:
    """Ten primary 32x32 images and five alt 24x40 ones."""
    return [gen_dataset(21, 2, 5).images, gen_dataset(22, 1, 5, (24, 40), "alt").images]


class TestPinnedOutput:
    """The generators' bytes are part of the contract: every acceptance
    dataset is rebuilt from them, so a rewrite that drifts by one ulp, or
    draws a sample's random numbers in another order, fails here. These
    digests were taken before the generators were last rewritten; do not
    update them to make a change pass."""

    @pytest.mark.parametrize("family,size,n_per_class,seed,expected", [
        ("primary", (32, 32), 8, 11,
         "a0988e7c0e3f10ae0d17a604f90ad662a1608750e23b860aaf40c180f72e775b"),
        ("alt", (32, 32), 8, 11,
         "5184e904a8e7aa5f803a21e563c6a2aa6e030bfc93eaf4314706e4f203bc6437"),
        ("primary", (24, 40), 1, 12,
         "460242b0f32a17cd72d66cd2ea29464f993785679c4bc0d9d936960f7cf1f26a"),
        ("alt", (24, 40), 1, 12,
         "5bd06c6353fcd2cc60bd1c12557762c84b92d924fb238b369e3fbe943369f26e"),
        ("primary", (16, 16), 2, 13,
         "67d9f8ba24596000dcb495ade059c8bc0a83643b167acebd485e2f072f46b356"),
        ("alt", (16, 16), 2, 13,
         "3b5e5aefbaea60dca4e9eee44b0c14fbc2eafacba00fe993aeb3d2c8f1b4b5a1"),
    ])
    def test_gen_dataset(self, family, size, n_per_class, seed, expected):
        ds = gen_dataset(seed, n_per_class, 5, size, family)
        assert _digest(ds.images, ds.labels) == expected

    @pytest.mark.parametrize("thickness,count,expected", [
        (5, 3, "48e2782f9574d90fd5beb16b3c9f1b01dd12491e1d779ce49eb8a633dc6aa794"),
        (1, 3, "83777b207c0740d8262224632115345c4a3a9a2b4154b7dc91ed92549a60e4e4"),
        (5, 0, "d2c36d1bc4d39e4a975c9ba9c3837bafe0caaf687809f1cbabe0f59d83d30e74"),
    ])
    def test_gen_strokes(self, thickness, count, expected):
        outs = [np.stack([gen_strokes(img, thickness, count, seed=100 + i)
                          for i, img in enumerate(images)]) for images in _corruption_bases()]
        assert _digest(*outs) == expected

    def test_gen_strokes_200_images(self):
        """Default strokes over 200 images: a segment end drawn a pixel
        short changes few images, so the pin needs many."""
        images = gen_dataset(23, 40, 5).images
        outs = np.stack([gen_strokes(img, seed=300 + i) for i, img in enumerate(images)])
        assert _digest(outs) == "46b60c86991459d744bd51fdd9ba5d11abdbe4cfff7d7ffb208eba35c2b25e6f"

    def test_gen_altered_color(self):
        outs = [np.stack([gen_altered_color(img, seed=200 + i) for i, img in enumerate(images)])
                for images in _corruption_bases()]
        assert _digest(*outs) == \
            "6555849817d344c58649b77b0913e8a07dd54e839a6832cdce771358ba10c8ce"


class TestInvalidInput:
    """Out-of-range inputs raise DatasetError naming the problem, not
    numpy's errors from deeper down."""

    @pytest.mark.parametrize("call,match", [
        (lambda: gen_dataset(-1, 2, 2), "seed"),
        (lambda: gen_dataset(0, -1, 2), "n_per_class"),
        (lambda: gen_dataset(0, 2, 2, (0, 32)), "image size"),
        (lambda: gen_dataset(0, 2, 2, (32, 0)), "image size"),
        (lambda: gen_strokes(np.zeros((3, 8, 8)), seed=-3), "seed"),
        (lambda: gen_strokes(np.zeros((3, 0, 8))), "image size"),
        (lambda: gen_altered_color(np.zeros((3, 8, 8)), seed=-1), "seed"),
        (lambda: gen_altered_color(np.zeros((3, 8, 0))), "image size"),
    ], ids=["dataset-seed", "dataset-n_per_class", "dataset-height-0", "dataset-width-0",
            "strokes-seed", "strokes-empty", "altered-seed", "altered-empty"])
    def test_rejected_with_named_error(self, call, match):
        with pytest.raises(DatasetError, match=match):
            call()


class TestGenDataset:
    def test_bit_identical_from_seed(self):
        a = gen_dataset(7, 5, 3)
        b = gen_dataset(7, 5, 3)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("family", ["primary", "alt"])
    def test_paint_chunk_changes_no_byte(self, family, monkeypatch):
        """Samples are painted in chunks of PAINT_CHUNK; any chunk size,
        including one sample at a time, gives the same bytes."""
        want = gen_dataset(5, 40, 3, (12, 20), family).images
        for chunk in (1, 7, 64):
            monkeypatch.setattr(datasets, "PAINT_CHUNK", chunk)
            assert gen_dataset(5, 40, 3, (12, 20), family).images.tobytes() == want.tobytes()

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pixel", [(np.inf, np.inf, 0.5), (np.nan, 0.2, 0.5),
                                       (0.1, -np.inf, 0.5)], ids=["inf-inf", "nan", "minus-inf"])
    def test_non_finite_pixel_rejected(self, pixel):
        """A 2x2 image with one non-finite pixel raises DatasetError before
        any numpy warning: its HSV round trip would cast NaN to an integer
        hue sector, whose value the platform defines."""
        img = np.full((3, 2, 2), 0.5)
        img[:, 0, 1] = pixel
        with pytest.raises(DatasetError, match="non-finite"):
            gen_altered_color(img, seed=0)


class TestHsvRoundTrip:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            img = rng.random((3, 6, 6))
            np.testing.assert_allclose(hsv_to_rgb(rgb_to_hsv(img)), img, atol=1e-6)

    def test_scalar_color_equals_array_conversion(self):
        """The generators' one-pixel colors, in scalar arithmetic, carry the
        bits `hsv_to_rgb` gives for the same pixel."""
        rng = np.random.default_rng(11)
        for row in rng.random((2000, 3)) * [3.0, 1.0, 1.0] - [1.0, 0.0, 0.0]:
            hue, sat, val = map(float, row)   # the generators pass Python floats
            pixel = hsv_to_rgb(np.array([hue, sat, val]).reshape(3, 1, 1))[:, 0, 0]
            assert np.array(_solid(hue, sat, val)).tobytes() == pixel.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bit_equal_to_branch_oracles(self, dtype):
        """Both conversions give the bits of the per-branch formulas, on
        ties, signed zeros, out-of-range hues and non-finite values too."""
        rng = np.random.default_rng(13)
        grid = np.array([0.0, -0.0, 0.25, 0.5, 1.0, 1.5, -0.5, 1e-20, -1e-20, 5e-324,
                         np.inf, -np.inf, np.nan])
        batches = [rng.random((3, 16, 16)), np.round(rng.random((3, 16, 16)) * 4) / 4,
                   rng.choice(grid, size=(3, 16, 16)), rng.normal(0.0, 3.0, (3, 16, 16))]
        with np.errstate(all="ignore"):
            for batch in (b.astype(dtype) for b in batches):
                assert rgb_to_hsv(batch).tobytes() == rgb_to_hsv_branches(batch).tobytes()
                assert hsv_to_rgb(batch).tobytes() == hsv_to_rgb_choose(batch).tobytes()

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected_before_writing(self, tmp_path, bad):
        img = np.full((2, 3), 0.5)
        img[1, 2] = bad
        with pytest.raises(ImageFormatError, match="non-finite"):
            write_pgm16(tmp_path / "x.pgm", img)
        assert list(tmp_path.iterdir()) == []

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
