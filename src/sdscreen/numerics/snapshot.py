"""Binary array snapshots and named-array containers.

Snapshot layout (little-endian throughout):
    magic "RAST" | u16 version | u16 rank | rank x u64 extents | f64 payload

Container layout:
    magic "RASC" | u16 version | u32 count | count x entry
    entry: u16 name length | utf-8 name | one snapshot blob

Round-tripping is exact: float64 payloads are written bit for bit.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..errors import FormatError

__all__ = [
    "dump_array",
    "load_array",
    "dump_container",
    "load_container",
    "SNAPSHOT_VERSION",
]

SNAPSHOT_MAGIC = b"RAST"
CONTAINER_MAGIC = b"RASC"
SNAPSHOT_VERSION = 1


def dump_array(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)  # keeps 0-d inputs 0-d
    parts = [SNAPSHOT_MAGIC, struct.pack("<HH", SNAPSHOT_VERSION, arr.ndim)]
    for extent in arr.shape:
        parts.append(struct.pack("<Q", extent))
    parts.append(arr.astype("<f8").tobytes(order="C"))
    return b"".join(parts)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError("snapshot truncated")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _read_array(r: _Reader) -> np.ndarray:
    if r.take(4) != SNAPSHOT_MAGIC:
        raise FormatError("bad snapshot magic")
    version, rank = r.unpack("<HH")
    if version != SNAPSHOT_VERSION:
        raise FormatError(f"unsupported snapshot version {version}")
    shape = tuple(r.unpack("<Q")[0] for _ in range(rank))
    payload = r.take(8 * math.prod(shape))  # Python ints: hostile extents cannot overflow
    try:
        arr = np.frombuffer(payload, dtype="<f8").reshape(shape)
    except ValueError:  # too many axes, or a zero-size shape numpy cannot represent
        raise FormatError(f"unsupported snapshot shape {shape}") from None
    return arr.astype(np.float64)


def load_array(blob: bytes) -> np.ndarray:
    r = _Reader(blob)
    arr = _read_array(r)
    if r.pos != len(blob):
        raise FormatError(f"{len(blob) - r.pos} trailing bytes after snapshot")
    return arr


def dump_container(entries: dict[str, np.ndarray]) -> bytes:
    parts = [CONTAINER_MAGIC, struct.pack("<HI", SNAPSHOT_VERSION, len(entries))]
    for name, arr in entries.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise FormatError(f"entry name too long: {name!r}")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(dump_array(arr))
    return b"".join(parts)


def load_container(blob: bytes) -> dict[str, np.ndarray]:
    r = _Reader(blob)
    if r.take(4) != CONTAINER_MAGIC:
        raise FormatError("bad container magic")
    version, count = r.unpack("<HI")
    if version != SNAPSHOT_VERSION:
        raise FormatError(f"unsupported container version {version}")
    entries: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("container entry name is not valid UTF-8") from None
        if name in entries:
            raise FormatError(f"duplicate container entry {name!r}")
        entries[name] = _read_array(r)
    if r.pos != len(blob):
        raise FormatError(f"{len(blob) - r.pos} trailing bytes after container")
    return entries
