"""Binary array snapshots and named-array containers.

Snapshot layout (little-endian throughout):
    magic "RAST" | u16 version | u16 rank | rank x u64 extents | f64 payload

Container layout:
    magic "RASC" | u16 version | u32 count | count x entry
    entry: u16 name length | utf-8 name | one snapshot blob

Round-tripping is exact: float64 payloads are written bit for bit.
"""

from __future__ import annotations

import io
import math
import struct
from typing import BinaryIO

import numpy as np

from ..errors import FormatError

__all__ = [
    "write_container",
    "load_container",
    "SNAPSHOT_VERSION",
]

SNAPSHOT_MAGIC = b"RAST"
CONTAINER_MAGIC = b"RASC"
SNAPSHOT_VERSION = 1


def _write_array(f: BinaryIO, arr: np.ndarray) -> None:
    """Write one snapshot: its header, then the array's own buffer, uncopied
    when it is already C-contiguous little-endian float64."""
    arr = np.asarray(arr, dtype="<f8")
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)  # keeps 0-d inputs 0-d
    f.write(SNAPSHOT_MAGIC + struct.pack(f"<HH{arr.ndim}Q", SNAPSHOT_VERSION, arr.ndim, *arr.shape))
    f.write(arr.data)


class _Reader:
    """Reads a container from a binary file, checking every length against
    the bytes the file has left before it reads or allocates."""

    def __init__(self, f: BinaryIO):
        self.f = f
        start = f.tell()
        self.left = f.seek(0, io.SEEK_END) - start
        f.seek(start)

    def claim(self, n: int) -> None:
        """Count ``n`` more bytes as read; FormatError if the file lacks them."""
        if n > self.left:
            raise FormatError("snapshot truncated")
        self.left -= n

    def take(self, n: int) -> bytes:
        self.claim(n)
        chunk = self.f.read(n)
        if len(chunk) != n:  # the file shrank while it was read
            raise FormatError("snapshot truncated")
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def fill(self, arr: np.ndarray) -> None:
        """Read ``arr.nbytes`` bytes, claimed beforehand, straight into ``arr``."""
        if self.f.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
            raise FormatError("snapshot truncated")


def _read_array(r: _Reader) -> np.ndarray:
    if r.take(4) != SNAPSHOT_MAGIC:
        raise FormatError("bad snapshot magic")
    version, rank = r.unpack("<HH")
    if version != SNAPSHOT_VERSION:
        raise FormatError(f"unsupported snapshot version {version}")
    shape = r.unpack(f"<{rank}Q")
    r.claim(8 * math.prod(shape))  # before allocating; Python ints cannot overflow
    try:
        arr = np.empty(shape, dtype="<f8")
    except ValueError:  # too many axes, or a zero-size shape numpy cannot represent
        raise FormatError(f"unsupported snapshot shape {shape}") from None
    r.fill(arr)
    return arr.astype(np.float64, copy=False)


def write_container(f: BinaryIO, entries: dict[str, np.ndarray]) -> None:
    """Stream a container to ``f`` entry by entry, with no copy of the whole."""
    f.write(CONTAINER_MAGIC + struct.pack("<HI", SNAPSHOT_VERSION, len(entries)))
    for name, arr in entries.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise FormatError(f"entry name too long: {name!r}")
        f.write(struct.pack("<H", len(encoded)) + encoded)
        _write_array(f, arr)


def load_container(f: BinaryIO) -> dict[str, np.ndarray]:
    """Read a container from ``f``, from its position to its end, each entry
    straight into its own array."""
    r = _Reader(f)
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
    if r.left:
        raise FormatError(f"{r.left} trailing bytes after container")
    return entries
