import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchparts.errors import ContractViolation, SketchpartsError
from sketchparts.pgm import read_pgm, write_pgm


def test_roundtrip_non_square(tmp_path):
    a = (np.arange(3 * 5) * 17 % 256).astype(np.uint8).reshape(3, 5)
    write_pgm(tmp_path / "a.pgm", a)
    assert np.array_equal(read_pgm(tmp_path / "a.pgm"), a)


def test_comment_header(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 1, 2, 3]))
    assert np.array_equal(read_pgm(p), [[0, 1], [2, 3]])


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 1 2 3")
    with pytest.raises(ContractViolation):
        read_pgm(p)


def test_truncated_payload_rejected(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(ContractViolation):
        read_pgm(p)


@pytest.mark.parametrize(
    "header",
    [b"P5\nabc 4\n255\n", b"P5\n4 x4\n255\n", b"P5\n4 4\nfull\n", b"P5\n0 0\n255\n",
     b"P5\n-3 4\n255\n", b"P5\n4 0\n255\n", b"P5\n1_0 1\n255\n", b"P5\n+10 1\n255\n",
     b"P5\n10 1\n2_55\n"],
)
def test_bad_header_is_typed_and_names_file(tmp_path, header):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + bytes(64))
    with pytest.raises(ContractViolation, match="bad.pgm"):
        read_pgm(path)


header_token = st.one_of(
    st.integers(-3, 40).map(lambda n: str(n).encode()),
    st.binary(min_size=1, max_size=4),
)
pgm_like = st.builds(
    lambda magic, tokens, payload: magic + b" ".join(tokens) + b"\n" + payload,
    st.sampled_from([b"P5\n", b"P5 ", b"P2\n", b""]),
    st.lists(header_token, max_size=4),
    st.binary(max_size=48),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), pgm_like))
def test_fuzz_only_package_errors_escape(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "f.pgm"
    path.write_bytes(data)
    try:
        pixels = read_pgm(path)
    except SketchpartsError:
        return
    assert pixels.dtype == np.uint8 and pixels.ndim == 2 and pixels.size > 0
