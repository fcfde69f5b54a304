"""Binary snapshot formats: array and named-container round-trips.

A snapshot is only ever written as one entry of a container, so the array
checks write one-entry containers and read them back. Every read goes through
``load_both``: from memory and from a file on disk, which must agree.
"""

import io
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdscreen.errors import FormatError
from sdscreen.numerics import load_container, write_container

# A one-entry container named "x" holds its snapshot from this offset:
# magic + u16 version + u32 count, then u16 name length + the name.
SNAPSHOT_AT = 4 + 2 + 4 + 2 + 1


def container_bytes(entries):
    buf = io.BytesIO()
    write_container(buf, entries)
    return buf.getvalue()


def load_both(blob):
    """``load_container`` of ``blob`` from an in-memory file and from a file on
    disk: both give the same entries, bit for bit, or the same FormatError,
    which is raised."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        path.write_bytes(blob)
        for opened in (lambda: io.BytesIO(blob), lambda: open(path, "rb")):
            with opened() as f:
                try:
                    outcomes.append(load_container(f))
                except FormatError as e:
                    outcomes.append(e)
    memory, disk = outcomes
    if isinstance(memory, FormatError):
        assert isinstance(disk, FormatError) and str(disk) == str(memory)
        raise memory
    assert list(memory) == list(disk)
    for name, arr in memory.items():
        assert arr.shape == disk[name].shape and arr.tobytes() == disk[name].tobytes()
    return memory


def snapshot_bytes(arr):
    """A one-entry container around ``arr``: its snapshot starts at SNAPSHOT_AT."""
    return container_bytes({"x": arr})


@pytest.mark.parametrize("shape", [(), (1,), (3,), (2, 3), (2, 3, 4), (1, 2, 1, 2)])
def test_array_roundtrip_bitexact(shape):
    r = np.random.default_rng(sum(shape) + len(shape))
    x = r.normal(size=shape)
    back = load_both(snapshot_bytes(x))["x"]
    assert back.shape == x.shape
    assert back.dtype == np.float64
    assert np.array_equal(back, x)


def test_array_serialization_is_deterministic():
    x = np.random.default_rng(5).normal(size=(4, 7))
    assert snapshot_bytes(x) == snapshot_bytes(x.copy())


def test_array_blob_layout():
    blob = snapshot_bytes(np.array([1.0, 2.0]))[SNAPSHOT_AT:]
    assert blob[:4] == b"RAST"
    version, rank = struct.unpack_from("<HH", blob, 4)
    assert (version, rank) == (1, 1)
    (extent,) = struct.unpack_from("<Q", blob, 8)
    assert extent == 2
    assert np.frombuffer(blob[16:], dtype="<f8").tolist() == [1.0, 2.0]


def test_array_bad_magic():
    blob = bytearray(snapshot_bytes(np.zeros(2)))
    blob[SNAPSHOT_AT:SNAPSHOT_AT + 4] = b"XXXX"
    with pytest.raises(FormatError, match="snapshot magic"):
        load_both(bytes(blob))


def test_array_truncated_payload():
    blob = snapshot_bytes(np.zeros(4))
    with pytest.raises(FormatError, match="truncated"):
        load_both(blob[:-8])


def test_array_trailing_bytes_rejected():
    with pytest.raises(FormatError, match="trailing"):
        load_both(snapshot_bytes(np.zeros(2)) + b"\x00")


def test_array_unsupported_version():
    blob = bytearray(snapshot_bytes(np.zeros(2)))
    struct.pack_into("<H", blob, SNAPSHOT_AT + 4, 9)
    with pytest.raises(FormatError, match="snapshot version"):
        load_both(bytes(blob))
    blob = bytearray(snapshot_bytes(np.zeros(2)))
    struct.pack_into("<H", blob, 4, 9)
    with pytest.raises(FormatError, match="container version"):
        load_both(bytes(blob))


def test_container_roundtrip_preserves_order_and_values():
    r = np.random.default_rng(9)
    entries = {
        "alpha": r.normal(size=(2, 2)),
        "beta/ùñí": r.normal(size=3),
        "gamma": np.array(4.25),
    }
    back = load_both(container_bytes(entries))
    assert list(back) == list(entries)
    for name, want in entries.items():
        assert np.array_equal(back[name], want)


def dump_container_joined(entries):
    """The container built in memory from copied parts, as it was before streaming."""
    parts = [b"RASC", struct.pack("<HI", 1, len(entries))]
    for name, arr in entries.items():
        encoded = name.encode("utf-8")
        arr = np.asarray(arr, dtype=np.float64)
        parts += [struct.pack("<H", len(encoded)), encoded, b"RAST",
                  struct.pack("<HH", 1, arr.ndim), *(struct.pack("<Q", e) for e in arr.shape),
                  arr.astype("<f8").tobytes(order="C")]
    return b"".join(parts)


def test_streamed_container_equals_joined_bytes(tmp_path):
    r = np.random.default_rng(11)
    entries = {
        "w": r.normal(size=(3, 4)),
        "transposed": r.normal(size=(4, 3)).T,
        "strided": r.normal(size=(6, 5))[::2, 1:],
        "step": np.array(3.0),
        "ints": np.arange(5),
        "empty": np.zeros((0, 2)),
    }
    path = tmp_path / "c.bin"
    with open(path, "wb") as f:
        write_container(f, entries)
    blob = path.read_bytes()
    assert blob == container_bytes(entries) == dump_container_joined(entries)
    assert load_both(blob)["step"].shape == ()


def test_container_duplicate_names_rejected():
    # Dicts cannot hold duplicates, so splice a second copy of the single
    # entry into the blob by hand.
    blob = container_bytes({"w": np.zeros(1)})
    entry = blob[10:]  # header is magic + u16 version + u32 count
    doubled = blob[:6] + struct.pack("<I", 2) + entry + entry
    with pytest.raises(FormatError, match="duplicate"):
        load_both(doubled)


def test_container_bad_magic():
    with pytest.raises(FormatError, match="magic"):
        load_both(b"ZZZZ" + container_bytes({"a": np.zeros(1)})[4:])


def test_container_truncated():
    blob = container_bytes({"a": np.zeros(3)})
    with pytest.raises(FormatError):
        load_both(blob[:-4])


def test_empty_container_roundtrip():
    assert load_both(container_bytes({})) == {}


def test_container_non_utf8_name_rejected():
    blob = bytearray(container_bytes({"w": np.zeros(2)}))
    blob[12] ^= 0xFF  # the name byte: 0x88 is no UTF-8 start byte
    with pytest.raises(FormatError, match="UTF-8"):
        load_both(bytes(blob))


@pytest.mark.parametrize("shape", [(2**62, 8), (2**64 - 1, 2**64 - 1), (0, 2**63), (1,) * 65])
def test_array_hostile_extents_rejected(shape):
    snapshot = b"RAST" + struct.pack("<HH", 1, len(shape)) + struct.pack(f"<{len(shape)}Q", *shape)
    blob = snapshot_bytes(np.zeros(0))[:SNAPSHOT_AT] + snapshot
    with pytest.raises(FormatError):
        load_both(blob + bytes(64))


SAMPLE_CONTAINER = container_bytes({
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
        load_both(bytes(blob[:keep]))
    except FormatError:
        pass


@pytest.mark.parametrize("shape", [(0, 4), (0,), (3, 0), (2, 0, 5)])
def test_zero_size_entries_roundtrip(shape):
    # An empty meta.history is a (0, 4) entry: no payload bytes to read.
    blob = container_bytes({"empty": np.zeros(shape), "after": np.array([1.5, -2.0])})
    back = load_both(blob)
    assert back["empty"].shape == shape and back["empty"].dtype == np.float64
    assert back["after"].tolist() == [1.5, -2.0]
    with pytest.raises(FormatError, match="truncated"):
        load_both(blob[:-1])


def test_reader_starts_at_the_file_position_and_reads_payloads_in_place():
    blob = container_bytes({"w": np.arange(6.0).reshape(2, 3)})
    f = io.BytesIO(b"junk" + blob)
    f.seek(4)
    back = load_container(f)["w"]
    assert back.flags["OWNDATA"] and back.flags["WRITEABLE"]
    assert back.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
