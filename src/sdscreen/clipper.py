"""Fixed-length clip segmentation of one question's frames.

Frames files hold face-cropped grayscale frames already at the model's input
size; cropping, resizing and grayscale conversion happen before sdscreen.

This module owns the clip rule, which the encoder and the generator follow:
clip_len is an even integer >= 2, and a question video of N frames becomes
M = floor((N - clip_len)/stride) + 1 half-overlapping clips (stride =
clip_len/2); trailing frames that do not fill a window are dropped.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ContractError, DataError

__all__ = ["clip_stride", "clip_count", "segment"]


def clip_stride(clip_len: int) -> int:
    """The hop between clip starts, clip_len/2; refuses an odd clip_len or one below 2."""
    if clip_len < 2 or clip_len % 2:
        raise ConfigError(f"clip_len must be an even integer >= 2, got {clip_len}")
    return clip_len // 2


def clip_count(n_frames: int, clip_len: int = 10) -> int:
    """Number of half-overlapping clips in an n_frames video."""
    stride = clip_stride(clip_len)
    if n_frames < clip_len:
        raise DataError(f"video of {n_frames} frames is shorter than one clip ({clip_len})")
    return (n_frames - clip_len) // stride + 1


def segment(frames: np.ndarray, clip_len: int = 10) -> np.ndarray:
    """Cut (N, H, W) uint8 frames into a read-only (M, H, W, clip_len) uint8
    view; clip k starts at frame k * clip_len/2."""
    stride = clip_stride(clip_len)
    if frames.ndim != 3 or frames.dtype != np.uint8:
        raise ContractError(f"segment expects (N, H, W) uint8 frames, "
                            f"got {frames.dtype} of shape {frames.shape}")
    clip_count(frames.shape[0], clip_len)  # DataError when shorter than one clip
    return sliding_window_view(frames, clip_len, axis=0)[::stride]
