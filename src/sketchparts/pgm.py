"""Binary PGM (P5, maxval 255) reading and writing.

Rasters and label maps both travel as P5: for label maps the pixel value
is the part id (0 = background).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation


def write_pgm(path, array):
    a = np.asarray(array)
    if a.ndim != 2 or a.dtype != np.uint8:
        raise ContractViolation(f"PGM payload must be 2-d uint8, got {a.dtype} {a.shape}")
    h, w = a.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(a.tobytes())


def read_pgm(path):
    with open(path, "rb") as fh:
        data = fh.read()

    pos = 0

    def token():
        nonlocal pos
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch == b"#":
                nl = data.find(b"\n", pos)
                pos = len(data) if nl < 0 else nl + 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ContractViolation(f"{path}: truncated PGM header")
        return data[start:pos]

    def positive_int(name):
        tok = token()
        # ASCII digits alone: int() would also take a sign or underscores
        value = int(tok) if tok.isdigit() else 0
        if value <= 0:
            raise ContractViolation(f"{path}: PGM {name} must be a positive integer, got {tok!r}")
        return value

    magic = token()
    if magic != b"P5":
        raise ContractViolation(f"{path}: not a binary PGM (magic {magic!r})")
    width, height, maxval = positive_int("width"), positive_int("height"), positive_int("maxval")
    if maxval != 255:
        raise ContractViolation(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    if len(data) - pos < width * height:
        raise ContractViolation(f"{path}: payload shorter than {width}x{height}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return pixels.reshape(height, width).copy()
