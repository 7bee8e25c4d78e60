import math
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchparts import autograd, nets
from sketchparts import model as model_module
from sketchparts import router as router_module
from sketchparts.autograd import Tensor
from sketchparts.checkpoint import COUNT_AT, RETIRED, VERSION, read_checkpoint, write_checkpoint
from sketchparts.corpus import DEFAULT_TAXONOMY_TEXT
from sketchparts.errors import CheckpointError, TaxonomyMismatch
from sketchparts.model import MODEL_MAGIC, ModelConfig, build_model, load_checkpoint
from sketchparts.model import save_checkpoint
from sketchparts.router import ROUTER_MAGIC, build_router, load_router, save_router
from sketchparts.taxonomy import load_taxonomy

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


def read_as_saved(path, named, magic=MAGIC):
    """read_checkpoint of `path` against the layout `named` spells."""
    shapes = {name: np.shape(t.data) for name, t in named}
    return read_checkpoint(path, magic, DIGEST, shapes, "the test layout")


def test_save_writes_the_documented_layout(tmp_path):
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, MAGIC, DIGEST, TENSORS)
    assert path.read_bytes() == (
        HEADER + struct.pack("<I", 2)
        + record(b"w", (2, 3), np.arange(6, dtype="<f4").tobytes())
        + record(b"b", (1,), np.array([1.5], dtype="<f4").tobytes())
    )
    assert os.listdir(tmp_path) == ["m.ckpt"]


def test_save_writes_any_array_as_c_order_little_endian_float32(tmp_path):
    path = tmp_path / "m.ckpt"
    odd = [
        ("t", Tensor(np.arange(6, dtype=np.float64).reshape(2, 3).T)),
        ("s", Tensor(np.float32(2.5))),
        ("e", Tensor(np.zeros((0, 3), dtype=np.float32))),
    ]
    write_checkpoint(path, MAGIC, DIGEST, odd)
    want = HEADER + struct.pack("<I", len(odd))
    for name, t in odd:
        data = np.ascontiguousarray(t.data, dtype="<f4")
        want += record(name.encode(), data.shape, data.tobytes())
    assert path.read_bytes() == want
    tensors = read_as_saved(path, odd)
    for name, t in odd:
        assert np.array_equal(tensors[name], t.data) and tensors[name].dtype == np.float32


def test_failed_overwrite_keeps_the_old_checkpoint(tmp_path):
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, MAGIC, DIGEST, TENSORS[:1])
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        write_checkpoint(path, MAGIC, DIGEST, TENSORS + [("\ud800", TENSORS[1][1])])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.ckpt"]
    assert list(read_as_saved(path, TENSORS[:1])) == ["w"]


def test_failed_first_save_leaves_no_file(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        write_checkpoint(tmp_path / "m.ckpt", MAGIC, DIGEST, [("\ud800", TENSORS[1][1])])
    assert os.listdir(tmp_path) == []


def test_non_utf8_name_names_its_offset(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(HEADER + struct.pack("<I", 1) + record(b"\xff\xfe", (1,), bytes(4)))
    with pytest.raises(CheckpointError, match="UTF-8") as info:
        read_as_saved(path, TENSORS[1:])
    assert info.value.offset == NAME_AT


@pytest.mark.parametrize("retired", sorted(RETIRED))
def test_retired_magic_refused_with_its_reason(tmp_path, retired):
    path = tmp_path / "old.ckpt"
    write_checkpoint(path, retired, DIGEST, TENSORS)
    for magic in (MAGIC, MODEL_MAGIC, ROUTER_MAGIC):
        with pytest.raises(CheckpointError) as info:
            read_as_saved(path, TENSORS, magic)
        assert info.value.offset == 0 and RETIRED[retired] in str(info.value)


@pytest.mark.parametrize(
    "dims,layout,message,offset",
    [
        # 2**64 elements, which np.prod wraps to 0, in a layout of the same
        # dims: refused at the payload
        ((65536,) * 4, (65536,) * 4, "truncated", NAME_AT + 1 + 1 + 4 * 4),
        # empty, but beyond numpy's size limit: refused at the record, before
        # anything is allocated
        ((0, 2**32 - 1, 2**32 - 1), (0, 3), "expects (0, 3)", NAME_AT - 2),
    ],
)
def test_oversized_dims(tmp_path, dims, layout, message, offset):
    path = tmp_path / "huge.ckpt"
    path.write_bytes(HEADER + struct.pack("<I", 1) + record(b"w", dims))
    with pytest.raises(CheckpointError, match=re.escape(message)) as info:
        read_checkpoint(path, MAGIC, DIGEST, {"w": layout}, "the test layout")
    assert info.value.offset == offset


dim = st.one_of(st.integers(0, 4), st.sampled_from([65536, 2**32 - 1]))
tensor_fields = st.tuples(
    st.binary(max_size=6),
    st.lists(dim, max_size=4).map(tuple),
    st.binary(max_size=32),
)
any_layout = st.dictionaries(
    st.text(max_size=3), st.lists(st.integers(0, 4), max_size=3).map(tuple), max_size=3
)


def declarable(dims):
    """Whether a net's layout can hold a tensor of `dims`: numpy refuses a
    shape whose nonzero dims' bytes pass its size limit, empty or not."""
    return 4 * math.prod(d for d in dims if d) < 2**63


@st.composite
def checkpoint_like(draw):
    """A blob in the checkpoint's form, and a layout: the one its count and
    records spell, so the read goes on through every record the count
    names, when a net could declare it; or any other."""
    head = draw(st.sampled_from(
        [HEADER, MAGIC + struct.pack("<I", VERSION + 1) + DIGEST, HEADER[:-3]]))
    count = draw(st.integers(0, 3))
    fields = draw(st.lists(tensor_fields, max_size=3))
    tail = draw(st.binary(max_size=8))
    blob = head + struct.pack("<I", count) + b"".join(record(*f) for f in fields) + tail
    spelled = [(name.decode("utf-8", "replace"), dims) for name, dims, _ in fields[:count]]
    spelled = dict(spelled + [(f"t{i}", ()) for i in range(len(spelled), count)])
    layouts = any_layout
    if all(declarable(dims) for dims in spelled.values()):
        layouts = st.one_of(st.just(spelled), any_layout)
    return blob, draw(layouts)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.binary(max_size=96), any_layout), checkpoint_like()))
def test_fuzz_only_checkpoint_errors_escape(tmp_path_factory, blob_and_layout):
    blob, layout = blob_and_layout
    path = tmp_path_factory.mktemp("fuzz") / "f.ckpt"
    path.write_bytes(blob)
    try:
        tensors = read_checkpoint(path, MAGIC, DIGEST, layout, "the drawn layout")
    except CheckpointError:
        return
    assert list(tensors) == list(layout)
    for name, a in tensors.items():
        assert a.dtype == np.float32 and a.shape == layout[name] and np.isfinite(a).all()


def record_at(named, index):
    """Byte offset of tensor `index`'s record, from the documented layout."""
    at = len(HEADER) + 4
    for name, t in named[:index]:
        at += 2 + len(name.encode("utf-8")) + 1 + 4 * t.data.ndim + 4 * t.data.size
    return at


def saved_net(which):
    """(ordered named tensors, magic, digest, loader) of a seeded parser or router."""
    if which == "router":
        net = build_router(3, seed=1)
        return net.parameters(), ROUTER_MAGIC, net.digest, lambda p: load_router(p, 3, net.digest)
    tax = load_taxonomy(DEFAULT_TAXONOMY_TEXT)
    config = ModelConfig()
    model = build_model(config, tax, seed=1)
    return model.parameters(), MODEL_MAGIC, tax.digest(), lambda p: load_checkpoint(p, config, tax)


def refused_at(tmp_path, named, magic, digest, load):
    path = tmp_path / "net.ckpt"
    write_checkpoint(path, magic, digest, named)
    with pytest.raises(CheckpointError) as info:
        load(path)
    assert str(info.value) == f"{path} at byte {info.value.offset}: {info.value.message}"
    return info.value


@pytest.mark.parametrize("net", ["parser", "router"])
def test_save_load_save_is_byte_identical(tmp_path, net):
    named, magic, digest, load = saved_net(net)
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    write_checkpoint(first, magic, digest, named)  # what each net's save writes
    save = save_checkpoint if net == "parser" else save_router
    save(load(first), second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("net", ["parser", "router"])
def test_truncation_names_the_payloads_offset(tmp_path, net):
    named, magic, digest, load = saved_net(net)
    path = tmp_path / "net.ckpt"
    write_checkpoint(path, magic, digest, named)
    path.write_bytes(path.read_bytes()[:100])  # inside the first tensor's payload
    with pytest.raises(CheckpointError) as info:
        load(path)
    name, t = named[0]
    assert info.value.offset == record_at(named, 0) + 2 + len(name) + 1 + 4 * t.data.ndim
    assert f"truncated while reading payload of {name}" in str(info.value)


@pytest.mark.parametrize("net", ["parser", "router"])
def test_wrong_shape_names_the_tensors_real_offset(tmp_path, net):
    named, *rest = saved_net(net)
    name, t = named[2]
    named[2] = (name, Tensor(np.zeros(t.shape[:-1] + (t.shape[-1] + 1,), dtype=np.float32)))
    err = refused_at(tmp_path, named, *rest)
    assert err.offset == record_at(named, 2) > COUNT_AT
    assert name in str(err) and f"byte {err.offset}:" in str(err)


@pytest.mark.parametrize("net", ["parser", "router"])
def test_wrong_name_names_the_tensors_real_offset(tmp_path, net):
    named, *rest = saved_net(net)
    named[2] = ("renamed", named[2][1])
    err = refused_at(tmp_path, named, *rest)
    assert err.offset == record_at(named, 2)
    assert "renamed" in str(err)


@pytest.mark.parametrize("net", ["parser", "router"])
def test_missing_tensor_names_the_count(tmp_path, net):
    named, *rest = saved_net(net)
    err = refused_at(tmp_path, named[:-1], *rest)
    assert err.offset == COUNT_AT


@pytest.mark.parametrize("net", ["parser", "router"])
def test_extra_tensor_names_the_count(tmp_path, net):
    named, *rest = saved_net(net)
    err = refused_at(tmp_path, named + [("extra", named[0][1])], *rest)
    assert err.offset == COUNT_AT


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("net", ["parser", "router"])
def test_non_finite_value_names_the_first_tensor_holding_one(tmp_path, net, value):
    named, *rest = saved_net(net)
    for index in (len(named) - 1, 2):  # a later tensor spoilt too
        name, t = named[index]
        spoilt = t.data.copy()
        spoilt.flat[-1] = value
        named[index] = (name, Tensor(spoilt))
    err = refused_at(tmp_path, named, *rest)
    assert err.offset == record_at(named, 2)
    assert err.message == f"{named[2][0]} holds a NaN or infinite value"


@pytest.mark.parametrize("net", ["parser", "router"])
def test_a_file_with_several_faults_is_refused_at_its_first_in_file_order(tmp_path, net):
    named, magic, digest, load = saved_net(net)
    path = tmp_path / "net.ckpt"
    # another taxonomy's checkpoint, truncated inside its first payload
    write_checkpoint(path, magic, bytes(b ^ 0xFF for b in digest), named)
    path.write_bytes(path.read_bytes()[:100])
    with pytest.raises(TaxonomyMismatch) as info:
        load(path)
    assert info.value.offset == 8
    # a NaN in tensor 1, then tensor 2 renamed
    name, t = named[1]
    spoilt = t.data.copy()
    spoilt.flat[0] = np.nan
    named[1] = (name, Tensor(spoilt))
    named[2] = ("renamed", named[2][1])
    err = refused_at(tmp_path, named, magic, digest, load)
    assert type(err) is CheckpointError and err.offset == record_at(named, 1)
    assert err.message == f"{name} holds a NaN or infinite value"


@pytest.mark.parametrize("net", ["parser", "router"])
def test_another_taxonomy_refused_at_its_digest(tmp_path, net):
    named, magic, digest, load = saved_net(net)
    err = refused_at(tmp_path, named, magic, bytes(b ^ 0xFF for b in digest), load)
    assert err.offset == 8 and "different taxonomy" in str(err)


@pytest.mark.parametrize("net", ["parser", "router"])
def test_the_other_nets_checkpoint_refused_at_its_magic(tmp_path, net):
    named, magic, digest, load = saved_net(net)
    other = ROUTER_MAGIC if magic == MODEL_MAGIC else MODEL_MAGIC
    err = refused_at(tmp_path, named, other, digest, load)
    assert err.offset == 0 and "bad magic" in str(err)


@pytest.mark.parametrize("retired", sorted(RETIRED))
@pytest.mark.parametrize("net", ["parser", "router"])
def test_loaders_refuse_a_retired_magic_with_its_reason(tmp_path, net, retired):
    named, _, digest, load = saved_net(net)
    err = refused_at(tmp_path, named, retired, digest, load)
    assert err.offset == 0 and err.message == RETIRED[retired]


@pytest.mark.parametrize("net", ["parser", "router"])
def test_load_builds_no_throwaway_net(tmp_path, monkeypatch, net):
    named, magic, digest, load = saved_net(net)
    path = tmp_path / "net.ckpt"
    write_checkpoint(path, magic, digest, named)

    def no_draws(*args, **kwargs):
        raise AssertionError("loading drew random numbers")

    for module in (autograd, nets, model_module, router_module):
        for name in ("he_normal", "make_rng"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_draws)
    loaded = load(path).parameters()
    assert [name for name, _ in loaded] == [name for name, _ in named]
    for (_, got), (_, want) in zip(loaded, named):
        assert got.data.dtype == want.data.dtype and got.data.tobytes() == want.data.tobytes()


def test_router_load_holds_one_copy_of_its_weights(tmp_path):
    """Loading reads each payload straight into its own array: no copy of
    the file's bytes is held beside the loaded tensors."""
    named, magic, digest, load = saved_net("router")
    path = tmp_path / "net.ckpt"
    write_checkpoint(path, magic, digest, named)
    tracemalloc.start()
    try:
        loaded = load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(t.data.nbytes for _, t in loaded.parameters())
    assert peak <= 1.2 * kept, (peak, kept)
