"""Binary checkpoints.

Layout: 4-byte magic, u32 LE version, 32-byte taxonomy digest, u32 tensor
count, then per tensor: u16 name length + UTF-8 name, u8 rank, u32 dims,
float32 LE payload in C order. Saving the same tensors twice produces
identical bytes. A save goes to a temporary file beside the target and is
renamed over it only once complete, so a failed save leaves the previous
checkpoint intact.
"""

from __future__ import annotations

import math
import os
import struct
import uuid

import numpy as np

from .errors import CheckpointError

VERSION = 1
COUNT_AT = 40  # byte offset of the tensor count, after magic, version and digest
# magics of formats no loader reads any more, each with why it is refused
RETIRED = {
    b"SKRC": "router checkpoint predates routing on grey views; retrain it with train-router",
}


def write_checkpoint(path, magic, digest, named_tensors):
    if len(magic) != 4 or len(digest) != 32:
        raise CheckpointError(0, f"bad magic/digest lengths {len(magic)}/{len(digest)}")
    path = os.fspath(path)
    directory, base = os.path.split(path)
    tmp = os.path.join(directory, f".{base}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(magic)
            fh.write(struct.pack("<I", VERSION))
            fh.write(digest)
            fh.write(struct.pack("<I", len(named_tensors)))
            for name, tensor in named_tensors:
                encoded = name.encode("utf-8")
                data = np.ascontiguousarray(tensor.data, dtype="<f4")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<B", data.ndim))
                fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
                fh.write(data)  # the array's own buffer, not a tobytes() copy
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_checkpoint(path, magic):
    """Returns (digest, ordered dict name -> float32 array, dict name -> byte
    offset of the tensor's record). A RETIRED magic is refused with its
    reason. The file is read record by record, each length checked against
    the file's size before anything is allocated, and each payload straight
    into its own array, so loading holds one copy of the weights."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        pos = 0

        def take(n, what):
            nonlocal pos
            chunk = fh.read(n) if pos + n <= size else b""
            if len(chunk) != n:
                raise CheckpointError(pos, f"truncated while reading {what}")
            pos += n
            return chunk

        got_magic = take(4, "magic")
        if got_magic in RETIRED:
            raise CheckpointError(0, RETIRED[got_magic])
        if got_magic != magic:
            raise CheckpointError(0, f"bad magic {got_magic!r}, expected {magic!r}")
        (version,) = struct.unpack("<I", take(4, "version"))
        if version != VERSION:
            raise CheckpointError(4, f"unsupported version {version}")
        digest = take(32, "taxonomy digest")
        (count,) = struct.unpack("<I", take(4, "tensor count"))
        tensors, offsets = {}, {}
        for _ in range(count):
            record_at = pos
            (name_len,) = struct.unpack("<H", take(2, "name length"))
            name_at = pos
            try:
                name = take(name_len, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(name_at, "tensor name is not valid UTF-8") from None
            (rank,) = struct.unpack("<B", take(1, "rank"))
            dims_at = pos
            dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
            n = math.prod(dims)  # exact, unlike np.prod, which wraps at 2**63
            payload = f"payload of {name}"
            if pos + 4 * n > size:
                raise CheckpointError(pos, f"truncated while reading {payload}")
            try:
                tensor = np.empty(dims, dtype="<f4")
            except ValueError:  # an empty tensor whose other dims overflow numpy's size
                raise CheckpointError(dims_at, f"{name}: dims {dims} too large") from None
            if fh.readinto(tensor.reshape(-1).view(np.uint8)) != 4 * n:  # shrank since fstat
                raise CheckpointError(pos, f"truncated while reading {payload}")
            pos += 4 * n
            tensors[name] = tensor
            offsets[name] = record_at
    if pos != size:
        raise CheckpointError(pos, f"{size - pos} trailing bytes")
    return digest, tensors, offsets


def check_layout(tensors, offsets, shapes, what):
    """Refuse checkpoint tensors that differ from `shapes`, the ordered
    name -> shape layout of `what`. The error names the byte offset of the
    first tensor that differs, or of the tensor count when only the count
    does."""
    for i, (got, want) in enumerate(zip(tensors, shapes)):
        if got != want:
            raise CheckpointError(offsets[got], f"tensor {i} is {got!r}, {what} expects {want!r}")
    if len(tensors) != len(shapes):
        raise CheckpointError(COUNT_AT, f"{len(tensors)} tensors, {what} expects {len(shapes)}")
    for name, want in shapes.items():
        if tensors[name].shape != want:
            raise CheckpointError(
                offsets[name], f"{name}: shape {tensors[name].shape}, {what} expects {want}"
            )
