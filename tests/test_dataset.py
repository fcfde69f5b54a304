"""Dataset model: manifest text format, frame files, validation, sum rule."""

import builtins
import dataclasses
import hashlib
import io
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdscreen.cli import main
from sdscreen.dataset import (
    Dataset,
    Subject,
    load_dataset,
    load_manifest,
    load_question_frames,
    read_frames,
    save_frames,
    save_manifest,
    sds_raw_sum,
    sds_sum_classify,
)
from sdscreen.errors import DataError, FormatError


def make_subject(i=0, label=0, total=None):
    choices = [1] * 20
    if total is not None:
        choices = balanced_choices(total)
    return Subject(
        subject_id=f"s{i:04d}",
        label=label,
        choices=choices,
        times=[2.0] * 20,
        frame_files=[f"s{i:04d}_q{q + 1:02d}.rasf" for q in range(20)],
    )


def balanced_choices(total):
    choices = [1] * 20
    extra = total - 20
    q = 0
    while extra > 0:
        if choices[q] < 4:
            choices[q] += 1
            extra -= 1
        q = (q + 1) % 20
    return choices


def make_dataset(n=2, root=Path("unused")):
    subjects = [make_subject(i, label=i % 2) for i in range(n)]
    return Dataset(fps=5, height=8, width=8, subjects=subjects, root=root)


def test_sum_threshold_boundaries():
    assert sds_raw_sum(balanced_choices(49)) == 49
    assert sds_sum_classify(balanced_choices(49)) == 0
    assert sds_sum_classify(balanced_choices(50)) == 1
    assert sds_sum_classify(balanced_choices(80)) == 1
    assert sds_sum_classify(balanced_choices(20)) == 0


def test_sum_classify_rejects_bad_choices():
    with pytest.raises(DataError):
        sds_sum_classify([1] * 19)
    with pytest.raises(DataError):
        sds_sum_classify([0] + [1] * 19)
    with pytest.raises(DataError):
        sds_sum_classify([5] + [1] * 19)


def test_subject_validation():
    s = make_subject()
    with pytest.raises(DataError):
        Subject(subject_id="s0", label=2, choices=s.choices, times=s.times,
                frame_files=s.frame_files)
    with pytest.raises(DataError):
        Subject(subject_id="s0", label=0, choices=s.choices,
                times=[0.0] + [2.0] * 19, frame_files=s.frame_files)
    with pytest.raises(DataError):
        Subject(subject_id="s0", label=0, choices=s.choices, times=s.times,
                frame_files=["../evil.rasf"] + s.frame_files[1:])


NAMES = tuple(make_subject().frame_files)


@pytest.mark.parametrize("edit", [
    {"subject_id": "a\t"}, {"subject_id": "\x0bb"}, {"subject_id": "c\xa0"},
    {"subject_id": "d\r"}, {"frame_files": (" lead.rasf",) + NAMES[1:]},
    {"frame_files": NAMES[:-1] + ("trail.rasf ",)},
], ids=["id-tab", "id-vertical-tab", "id-no-break-space", "id-carriage-return",
        "first-frames-name", "last-frames-name"])
def test_subject_refuses_whitespace_the_manifest_would_strip(edit):
    # The manifest strips each value's ends: save_manifest would write these,
    # and load_manifest would read them back as another id or another file.
    with pytest.raises(DataError, match="invalid"):
        dataclasses.replace(make_subject(), **edit)


def test_dataset_validation_catches_duplicate_ids():
    d = make_dataset(2)
    with pytest.raises(DataError):
        Dataset(fps=5, height=8, width=8, subjects=[d.subjects[0], d.subjects[0]],
                root=d.root)


def frames_file(tmp_path, frames, edit=lambda blob: blob):
    """The path of a frames file holding ``frames``, its bytes passed through ``edit``."""
    path = tmp_path / "clip.rasf"
    save_frames(path, frames)
    path.write_bytes(edit(path.read_bytes()))
    return path


def test_frames_roundtrip_bitexact(tmp_path):
    r = np.random.default_rng(3)
    frames = r.integers(0, 256, size=(12, 6, 7)).astype(np.uint8)
    path = frames_file(tmp_path, frames)
    back = read_frames(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, frames)
    # A read-only view of the file's bytes: reading makes no copy of its own.
    assert not back.flags.writeable
    owner = back
    while isinstance(owner, np.ndarray):
        owner = owner.base
    assert isinstance(owner, bytes) and len(owner) == path.stat().st_size


def test_frames_bad_magic_names_offset(tmp_path):
    path = frames_file(tmp_path, np.zeros((1, 2, 2), np.uint8), lambda b: b"BAD!" + b[4:])
    with pytest.raises(FormatError, match=re.escape(f"{path}: bad frames file magic at offset 0")):
        read_frames(path)


def test_frames_truncation_names_offsets(tmp_path):
    path = frames_file(tmp_path, np.zeros((2, 3, 3), np.uint8), lambda b: b[:-1])
    says = f"{path}: frames payload ends at offset 33, expected 34 for 2 frames of 3x3"
    with pytest.raises(FormatError, match=re.escape(says)):
        read_frames(path)


def test_frames_trailing_bytes_rejected(tmp_path):
    path = frames_file(tmp_path, np.zeros((1, 2, 2), np.uint8), lambda b: b + b"x")
    with pytest.raises(FormatError, match=re.escape(str(path))):
        read_frames(path)


def test_frames_file_roundtrip(tmp_path):
    frames = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    path = frames_file(tmp_path, frames)
    assert path.read_bytes() == b"RASF" + struct.pack("<III", 2, 3, 4) + bytes(range(24))
    assert np.array_equal(read_frames(path), frames)


def test_manifest_roundtrip_byte_identical(tmp_path):
    d = make_dataset(3)
    path = tmp_path / "manifest.txt"
    save_manifest(d, path)
    first = path.read_bytes()
    back = load_manifest(path)
    save_manifest(back, path)
    assert path.read_bytes() == first
    assert back.fps == d.fps
    assert [s.subject_id for s in back.subjects] == [s.subject_id for s in d.subjects]
    assert all(tuple(a.choices) == tuple(b.choices)
               for a, b in zip(back.subjects, d.subjects))
    assert all(tuple(a.times) == tuple(b.times)
               for a, b in zip(back.subjects, d.subjects))


@pytest.mark.parametrize("subject_id", ["s\x85x", "s\x0cx", "s\x1ex", "s\u2028x"],
                         ids=["nel", "form-feed", "record-separator", "line-separator"])
def test_manifest_roundtrips_an_id_holding_a_line_break_other_than_newline(subject_id,
                                                                          tmp_path):
    # A manifest's lines end at "\n" only: str.splitlines would also break
    # these ids, and the manifest save_manifest wrote would not load.
    subject = make_subject()
    d = Dataset(fps=5, height=8, width=8, root=Path("unused"), subjects=[Subject(
        subject_id=subject_id, label=0, choices=subject.choices, times=subject.times,
        frame_files=subject.frame_files)])
    path = tmp_path / "manifest.txt"
    save_manifest(d, path)
    assert [s.subject_id for s in load_manifest(path).subjects] == [subject_id]


def test_manifest_comments_and_blanks_ignored(tmp_path):
    d = make_dataset(1)
    path = tmp_path / "manifest.txt"
    save_manifest(d, path)
    text = path.read_text()
    path.write_text("# header comment\n\n" + text)
    assert load_manifest(path).subjects[0].subject_id == "s0000"


def test_manifest_duplicate_key_rejected(tmp_path):
    path = tmp_path / "manifest.txt"
    save_manifest(make_dataset(1), path)
    with path.open("a") as fh:
        fh.write("fps=9\n")
    # The message itself, not the test's directory name, must say it.
    with pytest.raises(FormatError, match="manifest.txt:13: key 'fps' given twice"):
        load_manifest(path)


def test_manifest_unknown_key_rejected(tmp_path):
    path = tmp_path / "manifest.txt"
    save_manifest(make_dataset(1), path)
    with path.open("a") as fh:
        fh.write("mystery=1\n")
    with pytest.raises(FormatError, match="mystery"):
        load_manifest(path)


def test_manifest_missing_key_rejected(tmp_path):
    path = tmp_path / "manifest.txt"
    save_manifest(make_dataset(1), path)
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("subject.0.times")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        load_manifest(path)


def test_manifest_non_utf8_is_format_error(tmp_path):
    path = tmp_path / "manifest.txt"
    save_manifest(make_dataset(1), path)
    path.write_bytes(b"\xff" + path.read_bytes()[1:])  # the 'f' of "format"
    with pytest.raises(FormatError, match="manifest.txt:1: not UTF-8 text at byte 0"):
        load_manifest(path)


def byte_edits(blob):
    """Up to four single-byte overwrites, then a truncation point."""
    return (st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)),
                     min_size=1, max_size=4),
            st.integers(0, len(blob)))


def mutate(blob, edits, keep):
    out = bytearray(blob)
    for pos, value in edits:
        out[pos] = value
    return bytes(out[:keep])


@pytest.fixture(scope="module")
def frames_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("frames") / "clip.rasf"
    save_frames(path, np.arange(3 * 4 * 5, dtype=np.uint8).reshape(3, 4, 5))
    return path, path.read_bytes()


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_frames_byte_mutations_raise_only_format_or_data_error(frames_blob, data):
    path, blob = frames_blob
    edits, keep = (data.draw(strategy) for strategy in byte_edits(blob))
    path.write_bytes(mutate(blob, edits, keep))
    try:
        read_frames(path)
    except (FormatError, DataError):
        pass


@pytest.fixture(scope="module")
def manifest_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("manifest") / "manifest.txt"
    save_manifest(make_dataset(2), path)
    return path, path.read_bytes()


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_manifest_byte_mutations_raise_only_format_or_data_error(manifest_blob, data):
    path, blob = manifest_blob
    edits, keep = (data.draw(strategy) for strategy in byte_edits(blob))
    path.write_bytes(mutate(blob, edits, keep))
    try:
        load_manifest(path)
    except (FormatError, DataError):
        pass


def test_load_dataset_checks_frame_files(tmp_path):
    d = make_dataset(1, root=tmp_path)
    frames = np.zeros((5, 8, 8), np.uint8)
    for name in d.subjects[0].frame_files:
        save_frames(tmp_path / name, frames)
    save_manifest(d, tmp_path / "manifest.txt")
    loaded = load_dataset(tmp_path)
    assert loaded.root == tmp_path
    got = load_question_frames(loaded, loaded.subjects[0], 0)
    assert got.shape == (5, 8, 8)

    (tmp_path / d.subjects[0].frame_files[3]).unlink()
    with pytest.raises(DataError, match="missing"):
        load_dataset(tmp_path)


def test_load_dataset_rejects_zero_frame_header(tmp_path, capsys):
    d = make_dataset(1, root=tmp_path)
    for name in d.subjects[0].frame_files:
        save_frames(tmp_path / name, np.zeros((5, 8, 8), np.uint8))
    empty = d.subjects[0].frame_files[2]
    (tmp_path / empty).write_bytes(b"RASF" + struct.pack("<III", 0, 8, 8))
    save_manifest(d, tmp_path / "manifest.txt")
    with pytest.raises(FormatError, match=f"{empty}: .*empty extents"):
        load_dataset(tmp_path)
    assert main(["eval", "--data", str(tmp_path), "--baseline", "sds-sum"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and empty in err[0]


def test_load_dataset_rejects_wrong_frame_geometry(tmp_path):
    d = make_dataset(1, root=tmp_path)
    for name in d.subjects[0].frame_files:
        save_frames(tmp_path / name, np.zeros((5, 8, 8), np.uint8))
    # One file with mismatched height/width.
    save_frames(tmp_path / d.subjects[0].frame_files[0],
                np.zeros((5, 9, 8), np.uint8))
    save_manifest(d, tmp_path / "manifest.txt")
    with pytest.raises(DataError):
        load_dataset(tmp_path)


def test_load_dataset_reads_the_manifest_once(tmp_path, monkeypatch):
    # The digest must be of the bytes parsed: a second read could see a
    # manifest rewritten in between.
    d = make_dataset(1, root=tmp_path)
    for name in d.subjects[0].frame_files:
        save_frames(tmp_path / name, np.zeros((5, 8, 8), np.uint8))
    save_manifest(d, tmp_path / "manifest.txt")
    blob = (tmp_path / "manifest.txt").read_bytes()
    opened = []

    def counting(real):
        def open_(file, *args, **kwargs):
            if isinstance(file, (str, Path)) and Path(file).name == "manifest.txt":
                opened.append(file)
            return real(file, *args, **kwargs)
        return open_

    monkeypatch.setattr(io, "open", counting(io.open))
    monkeypatch.setattr(builtins, "open", counting(builtins.open))
    loaded = load_dataset(tmp_path)
    monkeypatch.undo()
    assert len(opened) == 1
    assert loaded.manifest_sha256 == hashlib.sha256(blob).hexdigest()
