"""Binary 16-bit gray PGM (P5) writer and reader, and `write_file`, the
one writer every artifact of the package goes through. The full 16-bit
range keeps small relevance magnitudes through quantization."""
from __future__ import annotations

import os
import re

import numpy as np


class ImageFormatError(ValueError):
    """File is not a well-formed 16-bit PGM."""


# write_pgm16's header: P5, width, height, maxval, one whitespace byte
_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def write_file(path, data: bytes):
    """Write `data` as the whole content of `path`, following symlinks. A
    missing file is created with mode 0o666 less the umask; an existing one
    is overwritten in place, then cut to len(data), never truncated to zero
    first: on ext4 that truncation makes close() start writeback, most of
    a small file's write time. No fsync, as with open(path, "wb")."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_pgm16(path, image: np.ndarray) -> bytes:
    """Write a [H,W] float image in [0,1] as binary big-endian 16-bit P5;
    returns the bytes written."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ImageFormatError(f"expected [H,W], got {img.shape}")
    words = np.clip(np.rint(img * 65535.0), 0, 65535).astype(">u2")
    h, w = img.shape
    data = f"P5\n{w} {h}\n65535\n".encode() + words.tobytes()
    write_file(path, data)
    return data


def read_pgm16(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    header = _HEADER.match(data)
    if header is None:
        raise ImageFormatError("expected a P5 header: width, height and maxval")
    w, h, maxval = map(int, header.groups())
    off = header.end()
    if maxval != 65535:
        raise ImageFormatError(f"unsupported P5 maxval {maxval}")
    if len(data) - off < w * h * 2:
        raise ImageFormatError("truncated pixel payload")
    raw = np.frombuffer(data, dtype=">u2", count=w * h, offset=off)
    return raw.reshape(h, w).astype(np.float64) / 65535.0
