import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchparts.autograd import Tensor
from sketchparts.checkpoint import VERSION, read_checkpoint, write_checkpoint
from sketchparts.errors import CheckpointError

MAGIC = b"TEST"
DIGEST = bytes(range(32))
HEADER = MAGIC + struct.pack("<I", VERSION) + DIGEST
NAME_AT = len(HEADER) + 4 + 2  # tensor count, then the first name's length


def record(name, dims, payload=b""):
    return (
        struct.pack("<H", len(name)) + name + struct.pack("<B", len(dims))
        + struct.pack(f"<{len(dims)}I", *dims) + payload
    )


TENSORS = [
    ("w", Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))),
    ("b", Tensor(np.array([1.5], dtype=np.float32))),
]


def test_save_writes_the_documented_layout(tmp_path):
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, MAGIC, DIGEST, TENSORS)
    assert path.read_bytes() == (
        HEADER + struct.pack("<I", 2)
        + record(b"w", (2, 3), np.arange(6, dtype="<f4").tobytes())
        + record(b"b", (1,), np.array([1.5], dtype="<f4").tobytes())
    )
    assert os.listdir(tmp_path) == ["m.ckpt"]


def test_failed_overwrite_keeps_the_old_checkpoint(tmp_path):
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, MAGIC, DIGEST, TENSORS[:1])
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        write_checkpoint(path, MAGIC, DIGEST, TENSORS + [("\ud800", TENSORS[1][1])])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.ckpt"]
    assert list(read_checkpoint(path, MAGIC)[1]) == ["w"]


def test_failed_first_save_leaves_no_file(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        write_checkpoint(tmp_path / "m.ckpt", MAGIC, DIGEST, [("\ud800", TENSORS[1][1])])
    assert os.listdir(tmp_path) == []


def test_non_utf8_name_names_its_offset(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(HEADER + struct.pack("<I", 1) + record(b"\xff\xfe", (1,), bytes(4)))
    with pytest.raises(CheckpointError, match="UTF-8") as info:
        read_checkpoint(path, MAGIC)
    assert info.value.offset == NAME_AT


@pytest.mark.parametrize(
    "dims,message",
    [
        ((65536,) * 4, "truncated"),  # 2**64 elements, which np.prod wraps to 0
        ((0, 2**32 - 1, 2**32 - 1), "too large"),  # empty, but beyond numpy's size limit
    ],
)
def test_oversized_dims(tmp_path, dims, message):
    path = tmp_path / "huge.ckpt"
    path.write_bytes(HEADER + struct.pack("<I", 1) + record(b"w", dims))
    with pytest.raises(CheckpointError, match=message):
        read_checkpoint(path, MAGIC)


dim = st.one_of(st.integers(0, 4), st.sampled_from([65536, 2**32 - 1]))
tensor_record = st.builds(
    record,
    st.binary(max_size=6),
    st.lists(dim, max_size=4).map(tuple),
    st.binary(max_size=32),
)
checkpoint_like = st.builds(
    lambda head, count, records, tail: head + struct.pack("<I", count) + b"".join(records) + tail,
    st.sampled_from([HEADER, MAGIC + struct.pack("<I", VERSION + 1) + DIGEST, HEADER[:-3]]),
    st.integers(0, 3),
    st.lists(tensor_record, max_size=3),
    st.binary(max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=96), checkpoint_like))
def test_fuzz_only_checkpoint_errors_escape(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "f.ckpt"
    path.write_bytes(blob)
    try:
        digest, tensors = read_checkpoint(path, MAGIC)
    except CheckpointError:
        return
    assert len(digest) == 32
    assert all(a.dtype == np.float32 for a in tensors.values())
