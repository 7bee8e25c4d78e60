"""Binary checkpoints.

Layout: 4-byte magic, u32 LE version, 32-byte taxonomy digest, u32 tensor
count, then per tensor: u16 name length + UTF-8 name, u8 rank, u32 dims,
float32 LE payload in C order. Saving the same tensors twice produces
identical bytes. A save goes to a temporary file beside the target and is
renamed over it only once complete, so a failed save leaves the previous
checkpoint intact. A load reads the file once, in order, against the
layout it expects, so a file is refused at its first fault in file order.
"""

from __future__ import annotations

import math
import os
import struct
import uuid

import numpy as np

from .errors import CheckpointError, TaxonomyMismatch

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


def read_checkpoint(path, magic, digest, shapes, what):
    """The tensors of the checkpoint at `path`, an ordered dict name ->
    float32 array, refused unless the file holds `magic`, taxonomy `digest`
    and the tensors of `shapes`, the ordered name -> shape layout of `what`,
    with every value finite. A RETIRED magic is refused with its reason.

    One pass reads the file in order and checks each field where its bytes
    are read: magic, version, digest (a TaxonomyMismatch), tensor count,
    then per record its name and dims against the layout's next entry, its
    payload's length and its values, and last that nothing trails. So a
    file is refused at its first fault in file order, at that fault's byte
    offset, and every CheckpointError names `path`. Each length is checked
    against the file's size, and each dims against the layout, before
    anything is allocated, and each payload is read straight into its own
    array, so loading holds one copy of the weights."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        pos = 0

        def take(n, field):
            nonlocal pos
            chunk = fh.read(n) if pos + n <= size else b""
            if len(chunk) != n:
                raise CheckpointError(pos, f"truncated while reading {field}", path)
            pos += n
            return chunk

        got_magic = take(4, "magic")
        if got_magic in RETIRED:
            raise CheckpointError(0, RETIRED[got_magic], path)
        if got_magic != magic:
            raise CheckpointError(0, f"bad magic {got_magic!r}, expected {magic!r}", path)
        (version,) = struct.unpack("<I", take(4, "version"))
        if version != VERSION:
            raise CheckpointError(4, f"unsupported version {version}", path)
        if take(32, "taxonomy digest") != digest:
            raise TaxonomyMismatch(
                8, "checkpoint was written for a different taxonomy (digest mismatch)", path
            )
        (count,) = struct.unpack("<I", take(4, "tensor count"))
        if count != len(shapes):
            raise CheckpointError(COUNT_AT, f"{count} tensors, {what} expects {len(shapes)}", path)
        tensors = {}
        for i, (want_name, want) in enumerate(shapes.items()):
            record_at = pos
            (name_len,) = struct.unpack("<H", take(2, "name length"))
            name_at = pos
            try:
                name = take(name_len, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(name_at, "tensor name is not valid UTF-8", path) from None
            if name != want_name:
                raise CheckpointError(
                    record_at, f"tensor {i} is {name!r}, {what} expects {want_name!r}", path
                )
            (rank,) = struct.unpack("<B", take(1, "rank"))
            dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
            if dims != want:
                raise CheckpointError(
                    record_at, f"{name}: shape {dims}, {what} expects {want}", path
                )
            n = math.prod(dims)  # exact, unlike np.prod, which wraps at 2**63
            payload = f"payload of {name}"
            if pos + 4 * n > size:
                raise CheckpointError(pos, f"truncated while reading {payload}", path)
            tensor = np.empty(dims, dtype="<f4")
            if fh.readinto(tensor.reshape(-1).view(np.uint8)) != 4 * n:  # shrank since fstat
                raise CheckpointError(pos, f"truncated while reading {payload}", path)
            pos += 4 * n
            # min and max carry any NaN or infinity, and allocate nothing
            if n and not (np.isfinite(tensor.min()) and np.isfinite(tensor.max())):
                raise CheckpointError(record_at, f"{name} holds a NaN or infinite value", path)
            tensors[name] = tensor
    if pos != size:
        raise CheckpointError(pos, f"{size - pos} trailing bytes", path)
    return tensors
