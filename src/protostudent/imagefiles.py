"""Binary PPM (P6, 8-bit color) and PGM (P5, 16-bit gray) readers and
writers. PGM uses the full 16-bit range so small relevance magnitudes
survive quantization."""
from __future__ import annotations

import numpy as np


class ImageFormatError(ValueError):
    """File is not a well-formed PPM/PGM of the expected flavor."""


def _read_header(data: bytes, magic: bytes) -> tuple:
    if not data.startswith(magic):
        raise ImageFormatError(f"expected {magic.decode()} header")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageFormatError("truncated header")
        fields.append(int(data[start:pos]))
    return fields[0], fields[1], fields[2], pos + 1


def write_ppm(path, image: np.ndarray):
    """Write a [3,H,W] float image in [0,1] as binary P6."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ImageFormatError(f"expected [3,H,W], got {img.shape}")
    bytes_ = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = img.shape[1:]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(bytes_.transpose(1, 2, 0).tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    w, h, maxval, off = _read_header(data, b"P6")
    if maxval != 255:
        raise ImageFormatError(f"unsupported P6 maxval {maxval}")
    need = w * h * 3
    if len(data) - off < need:
        raise ImageFormatError("truncated pixel payload")
    raw = np.frombuffer(data, dtype=np.uint8, count=need, offset=off)
    return raw.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0


def write_pgm16(path, image: np.ndarray) -> bytes:
    """Write a [H,W] float image in [0,1] as binary big-endian 16-bit P5;
    returns the bytes written."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ImageFormatError(f"expected [H,W], got {img.shape}")
    words = np.clip(np.rint(img * 65535.0), 0, 65535).astype(">u2")
    h, w = img.shape
    data = f"P5\n{w} {h}\n65535\n".encode() + words.tobytes()
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def read_pgm16(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    w, h, maxval, off = _read_header(data, b"P5")
    if maxval != 65535:
        raise ImageFormatError(f"unsupported P5 maxval {maxval}")
    if len(data) - off < w * h * 2:
        raise ImageFormatError("truncated pixel payload")
    raw = np.frombuffer(data, dtype=">u2", count=w * h, offset=off)
    return raw.reshape(h, w).astype(np.float64) / 65535.0
