"""Binary snapshot formats: array and named-container round-trips."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdscreen.errors import FormatError
from sdscreen.numerics import dump_array, dump_container, load_array, load_container


@pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 3), (2, 3, 4), (1, 2, 1, 2)])
def test_array_roundtrip_bitexact(shape):
    r = np.random.default_rng(sum(shape) + len(shape))
    x = r.normal(size=shape)
    back = load_array(dump_array(x))
    assert back.shape == x.shape
    assert back.dtype == np.float64
    assert np.array_equal(back, x)


def test_array_serialization_is_deterministic():
    x = np.random.default_rng(5).normal(size=(4, 7))
    assert dump_array(x) == dump_array(x.copy())


def test_array_blob_layout():
    blob = dump_array(np.array([1.0, 2.0]))
    assert blob[:4] == b"RAST"
    version, rank = struct.unpack_from("<HH", blob, 4)
    assert (version, rank) == (1, 1)
    (extent,) = struct.unpack_from("<Q", blob, 8)
    assert extent == 2
    assert np.frombuffer(blob[16:], dtype="<f8").tolist() == [1.0, 2.0]


def test_array_bad_magic():
    blob = bytearray(dump_array(np.zeros(2)))
    blob[:4] = b"XXXX"
    with pytest.raises(FormatError, match="magic"):
        load_array(bytes(blob))


def test_array_truncated_payload():
    blob = dump_array(np.zeros(4))
    with pytest.raises(FormatError):
        load_array(blob[:-8])


def test_array_trailing_bytes_rejected():
    with pytest.raises(FormatError, match="trailing"):
        load_array(dump_array(np.zeros(2)) + b"\x00")


def test_array_unsupported_version():
    blob = bytearray(dump_array(np.zeros(2)))
    struct.pack_into("<H", blob, 4, 9)
    with pytest.raises(FormatError, match="version"):
        load_array(bytes(blob))


def test_container_roundtrip_preserves_order_and_values():
    r = np.random.default_rng(9)
    entries = {
        "alpha": r.normal(size=(2, 2)),
        "beta/ùñí": r.normal(size=3),
        "gamma": np.array(4.25),
    }
    back = load_container(dump_container(entries))
    assert list(back) == list(entries)
    for name, want in entries.items():
        assert np.array_equal(back[name], want)


def test_container_duplicate_names_rejected():
    # Dicts cannot hold duplicates, so splice a second copy of the single
    # entry into the blob by hand.
    blob = dump_container({"w": np.zeros(1)})
    entry = blob[10:]  # header is magic + u16 version + u32 count
    doubled = blob[:6] + struct.pack("<I", 2) + entry + entry
    with pytest.raises(FormatError, match="duplicate"):
        load_container(doubled)


def test_container_bad_magic():
    with pytest.raises(FormatError, match="magic"):
        load_container(b"ZZZZ" + dump_container({"a": np.zeros(1)})[4:])


def test_container_truncated():
    blob = dump_container({"a": np.zeros(3)})
    with pytest.raises(FormatError):
        load_container(blob[:-4])


def test_empty_container_roundtrip():
    assert load_container(dump_container({})) == {}


def test_container_non_utf8_name_rejected():
    blob = bytearray(dump_container({"w": np.zeros(2)}))
    blob[12] ^= 0xFF  # the name byte: 0x88 is no UTF-8 start byte
    with pytest.raises(FormatError, match="UTF-8"):
        load_container(bytes(blob))


@pytest.mark.parametrize("shape", [(2**62, 8), (2**64 - 1, 2**64 - 1), (0, 2**63), (1,) * 65])
def test_array_hostile_extents_rejected(shape):
    blob = b"RAST" + struct.pack("<HH", 1, len(shape)) + struct.pack(f"<{len(shape)}Q", *shape)
    with pytest.raises(FormatError):
        load_array(blob + bytes(64))


SAMPLE_CONTAINER = dump_container({
    "enc.conv0.kernel": np.arange(6.0).reshape(1, 2, 3),
    "bias": np.array([0.5, -1.0]),
    "step": np.array(3.0),
})


@given(st.lists(st.tuples(st.integers(0, len(SAMPLE_CONTAINER) - 1), st.integers(0, 255)),
                min_size=1, max_size=4),
       st.integers(0, len(SAMPLE_CONTAINER)))
@settings(max_examples=300, deadline=None)
def test_container_byte_mutations_raise_only_format_error(edits, keep):
    blob = bytearray(SAMPLE_CONTAINER)
    for pos, value in edits:
        blob[pos] = value
    try:
        load_container(bytes(blob[:keep]))
    except FormatError:
        pass
