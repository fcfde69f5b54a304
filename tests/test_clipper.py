"""Half-overlapping clip segmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdscreen.clipper import clip_count, segment
from sdscreen.errors import ConfigError, ContractError, DataError


def test_clip_count_reference_values():
    assert clip_count(10) == 1
    assert clip_count(50) == 9
    assert clip_count(400) == 79
    assert clip_count(55) == 10
    assert clip_count(59) == 10  # trailing partial window dropped


@given(st.integers(10, 530))
@settings(max_examples=200, deadline=None)
def test_clip_count_half_overlap_formula(n):
    # With stride clip_len/2, count = floor((n - clip_len)/stride) + 1.
    assert clip_count(n) == (n - 10) // 5 + 1


def test_clip_count_rejects_short_and_bad_len():
    with pytest.raises(DataError):
        clip_count(9)
    with pytest.raises(ConfigError):
        clip_count(20, clip_len=7)
    with pytest.raises(ConfigError):
        clip_count(20, clip_len=0)


def test_segment_positions_and_window_content():
    frames = np.arange(50, dtype=np.uint8).reshape(50, 1, 1)
    clips = segment(frames)
    assert clips.shape == (9, 1, 1, 10) and clips.dtype == np.uint8
    assert not clips.flags.writeable
    assert np.shares_memory(clips, frames)  # a view: no scaled copy of the question
    # Clip k (position k + 1) covers frames 5k .. 5k + 9 after the half-length hop.
    for k in range(9):
        assert np.array_equal(clips[k, 0, 0, :], np.arange(5 * k, 5 * k + 10))


@pytest.mark.parametrize("n", [10, 14, 15, 37])
def test_segment_matches_per_window_copies(n):
    frames = np.random.default_rng(n).integers(0, 256, (n, 3, 4)).astype(np.uint8)
    clips = segment(frames)
    assert clips.shape == (clip_count(n), 3, 4, 10)
    for k, clip in enumerate(clips):
        want = np.ascontiguousarray(frames[5 * k:5 * k + 10].transpose(1, 2, 0))
        assert np.ascontiguousarray(clip).tobytes() == want.tobytes()


def test_segment_refuses_float_frames():
    # Frames files hold uint8 by format; unit floats in [0, 1] are refused too.
    with pytest.raises(ContractError, match="uint8"):
        segment(np.full((10, 2, 2), 0.5))
