"""Screening dataset model and on-disk formats.

A dataset is a directory holding one ``manifest.txt`` plus one frames file per
(subject, question). The manifest is ``key = value`` text, read and written by
``settings`` (the grammar config files use too); floats are written with
``repr`` so save -> load -> save is byte-identical. Frames files hold
face-cropped frames at the model's input size as raw 8-bit grayscale:

    magic "RASF" | u32 frame count | u32 height | u32 width | pixels row-major

One check, run by ``load_dataset`` and again by each read, covers a frames
file: the magic, extents >= 1 and a size of 16 + N*H*W; its errors name the file.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError
from .settings import pairs_text, parse_pairs

__all__ = [
    "QUESTION_COUNT",
    "Subject",
    "Dataset",
    "sds_raw_sum",
    "sds_sum_classify",
    "save_frames",
    "read_frames",
    "save_manifest",
    "load_manifest",
    "load_dataset",
    "load_question_frames",
]

QUESTION_COUNT = 20
FRAMES_MAGIC = b"RASF"
SDS_SUM_THRESHOLD = 50


@dataclass(frozen=True)
class Subject:
    """One participant: a filled questionnaire plus per-question video refs."""

    subject_id: str
    label: int
    choices: tuple[int, ...]
    times: tuple[float, ...]
    frame_files: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.subject_id or any(c in self.subject_id for c in " ,=\n"):
            raise DataError(f"invalid subject id {self.subject_id!r}")
        if self.label not in (0, 1):
            raise DataError(f"subject {self.subject_id}: label must be 0 or 1, got {self.label}")
        for field_name, values in (("choices", self.choices), ("times", self.times),
                                   ("frames", self.frame_files)):
            if len(values) != QUESTION_COUNT:
                raise DataError(
                    f"subject {self.subject_id}: expected {QUESTION_COUNT} {field_name}, got {len(values)}"
                )
        for c in self.choices:
            if c not in (1, 2, 3, 4):
                raise DataError(f"subject {self.subject_id}: choice {c} outside 1..4")
        for t in self.times:
            if not (np.isfinite(t) and t > 0):
                raise DataError(f"subject {self.subject_id}: response time {t} must be positive")
        for name in self.frame_files:
            bad = not name or any(ch in name for ch in ",=\n")
            # Names must stay inside the dataset directory.
            if bad or Path(name).name != name:
                raise DataError(f"subject {self.subject_id}: invalid frames file name {name!r}")


@dataclass
class Dataset:
    fps: int
    height: int
    width: int
    subjects: list[Subject]
    root: Path  # the directory the frames files are in
    # The fewest frames of any question video; None until the headers are read.
    min_frames: int | None = None
    # The SHA-256 hex digest of manifest.txt's bytes; None unless loaded from one.
    manifest_sha256: str | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.fps, int) and self.fps > 0):
            raise DataError(f"fps must be a positive integer, got {self.fps!r}")
        if self.height < 1 or self.width < 1:
            raise DataError(f"frame extents must be positive, got {self.height}x{self.width}")
        if not self.subjects:
            raise DataError("dataset has no subjects")
        seen: set[str] = set()
        for s in self.subjects:
            if s.subject_id in seen:
                raise DataError(f"duplicate subject id {s.subject_id!r}")
            seen.add(s.subject_id)

    @property
    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.subjects], dtype=np.int64)


def sds_raw_sum(choices: tuple[int, ...]) -> int:
    """Raw questionnaire score: the sum of the 20 chosen option values."""
    if len(choices) != QUESTION_COUNT:
        raise DataError(f"expected {QUESTION_COUNT} choices, got {len(choices)}")
    for c in choices:
        if c not in (1, 2, 3, 4):
            raise DataError(f"choice {c} outside 1..4")
    return int(sum(choices))


def sds_sum_classify(choices: tuple[int, ...], threshold: int = SDS_SUM_THRESHOLD) -> int:
    """Questionnaire-only baseline: positive iff the raw sum reaches threshold."""
    return 1 if sds_raw_sum(choices) >= threshold else 0


# ---------------------------------------------------------------------------
# frames files


def save_frames(path: Path | str, frames: np.ndarray) -> None:
    if frames.ndim != 3:
        raise DataError(f"frames array must be (N, H, W), got shape {frames.shape}")
    if frames.dtype != np.uint8:
        raise DataError(f"frames array must be uint8, got {frames.dtype}")
    n, h, w = frames.shape
    if n < 1 or h < 1 or w < 1:
        raise DataError(f"frames array extents must be positive, got {frames.shape}")
    header = FRAMES_MAGIC + struct.pack("<III", n, h, w)
    Path(path).write_bytes(header + np.ascontiguousarray(frames).tobytes(order="C"))


def _frames_header(path: Path, head: bytes, size: int) -> tuple[int, int, int]:
    """(frame count, height, width) of the ``size``-byte frames file at ``path``
    from its first 16 bytes ``head``; every error names ``path``."""
    if head[:4] != FRAMES_MAGIC:
        raise FormatError(f"{path}: bad frames file magic at offset 0")
    if len(head) < 16:
        raise FormatError(f"{path}: frames header truncated at offset {len(head)}")
    n, h, w = struct.unpack("<III", head[4:16])
    if n < 1 or h < 1 or w < 1:
        raise FormatError(f"{path}: frames header declares empty extents at offset 4")
    expected = 16 + n * h * w
    if size != expected:
        raise FormatError(f"{path}: frames payload ends at offset {size}, expected "
                          f"{expected} for {n} frames of {h}x{w}")
    return n, h, w


def read_frames(path: Path | str) -> np.ndarray:
    """(N, H, W) uint8 frames: a read-only view of the file's bytes, read in one call."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"frames file missing: {path}")
    blob = path.read_bytes()
    n, h, w = _frames_header(path, blob[:16], len(blob))
    return np.frombuffer(blob, np.uint8, count=n * h * w, offset=16).reshape(n, h, w)


def load_question_frames(dataset: Dataset, subject: Subject, question_index: int) -> np.ndarray:
    """Read the recorded frames for one question of one subject; frames of
    another size than the dataset's (a file rewritten after loading) are
    refused, naming the file."""
    if not 0 <= question_index < QUESTION_COUNT:
        raise DataError(f"question index {question_index} outside 0..{QUESTION_COUNT - 1}")
    path = dataset.root / subject.frame_files[question_index]
    frames = read_frames(path)
    if frames.shape[1:] != (dataset.height, dataset.width):
        raise DataError(f"{path}: holds {frames.shape[1]}x{frames.shape[2]} frames, "
                        f"manifest declares {dataset.height}x{dataset.width}")
    return frames


# ---------------------------------------------------------------------------
# manifest


def save_manifest(dataset: Dataset, path: Path | str) -> None:
    pairs: list[tuple[str, object]] = [
        ("format", "sds-manifest"),
        ("version", 1),
        ("fps", dataset.fps),
        ("height", dataset.height),
        ("width", dataset.width),
        ("subject_count", len(dataset.subjects)),
        ("question_count", QUESTION_COUNT),
    ]
    for i, s in enumerate(dataset.subjects):
        pairs += [(f"subject.{i}.id", s.subject_id),
                  (f"subject.{i}.label", s.label),
                  (f"subject.{i}.choices", ",".join(str(c) for c in s.choices)),
                  (f"subject.{i}.times", ",".join(repr(float(t)) for t in s.times)),
                  (f"subject.{i}.frames", ",".join(s.frame_files))]
    Path(path).write_text(pairs_text(pairs), encoding="utf-8")


def _pop(pairs: dict[str, str], key: str) -> str:
    if key not in pairs:
        raise FormatError(f"manifest missing key {key!r}")
    return pairs.pop(key)


def load_manifest(path: Path | str) -> Dataset:
    """The dataset a manifest describes, with the digest of the bytes parsed
    as ``manifest_sha256``; errors past the ``key = value`` grammar start
    with the manifest's path."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"manifest missing: {path}")
    blob = path.read_bytes()
    pairs = {key: value for _, key, value in parse_pairs(path, blob, FormatError)}
    try:
        dataset = _parse_manifest(pairs, path.parent)
    except (FormatError, DataError) as e:
        raise type(e)(f"{path}: {e}") from None
    dataset.manifest_sha256 = hashlib.sha256(blob).hexdigest()
    return dataset


def _parse_manifest(pairs: dict[str, str], root: Path) -> Dataset:
    if _pop(pairs, "format") != "sds-manifest":
        raise FormatError("not a dataset manifest")
    if _pop(pairs, "version") != "1":
        raise FormatError("unsupported manifest version")
    try:
        fps = int(_pop(pairs, "fps"))
        height = int(_pop(pairs, "height"))
        width = int(_pop(pairs, "width"))
        count = int(_pop(pairs, "subject_count"))
        qcount = int(_pop(pairs, "question_count"))
    except ValueError as e:
        raise FormatError(f"manifest header: {e}") from None
    if qcount != QUESTION_COUNT:
        raise FormatError(f"manifest declares {qcount} questions, expected {QUESTION_COUNT}")
    if count < 1:
        raise FormatError("manifest declares no subjects")

    subjects: list[Subject] = []
    for i in range(count):
        prefix = f"subject.{i}."
        try:
            sid = _pop(pairs, prefix + "id")
            label = int(_pop(pairs, prefix + "label"))
            choices = tuple(int(v) for v in _pop(pairs, prefix + "choices").split(","))
            times = tuple(float(v) for v in _pop(pairs, prefix + "times").split(","))
            frames = tuple(_pop(pairs, prefix + "frames").split(","))
        except ValueError as e:
            raise FormatError(f"manifest subject {i}: {e}") from None
        subjects.append(Subject(sid, label, choices, times, frames))
    if pairs:
        raise FormatError(f"manifest has unknown keys: {sorted(pairs)}")

    return Dataset(fps=fps, height=height, width=width, subjects=subjects, root=root)


def load_dataset(root: Path | str) -> Dataset:
    """Load a dataset directory and check every frames reference is usable.

    Each referenced file must exist, pass the frames check on its header and
    size, and declare the manifest's frame extents. The fewest frames any
    header declares is kept as ``min_frames``. No pixels are read here.
    """
    root = Path(root)
    dataset = load_manifest(root / "manifest.txt")
    counts = []
    for s in dataset.subjects:
        for name in s.frame_files:
            path = root / name
            if not path.is_file():
                raise DataError(f"subject {s.subject_id}: frames file missing: {name}")
            with open(path, "rb") as fh:
                n, h, w = _frames_header(path, fh.read(16), os.fstat(fh.fileno()).st_size)
            if (h, w) != (dataset.height, dataset.width):
                raise DataError(
                    f"subject {s.subject_id}: {name} holds {h}x{w} frames, "
                    f"manifest declares {dataset.height}x{dataset.width}"
                )
            counts.append(n)
    dataset.min_frames = min(counts)
    return dataset
