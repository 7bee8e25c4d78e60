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
