"""3D CNN mapping one (H, W, T) clip to a fixed-length clip feature.

The layer pattern is conv(3x3x3, spatial-valid, temporal-same) + ReLU +
maxpool, repeated while the spatial extent supports it, with channels
doubling each stage; every pool halves H and W, and the last one also halves
T. A final valid conv collapses whatever remains to 1x1x1, and a linear layer
(no activation) produces the feature.

Each stage runs in the order conv + maxpool + ReLU, which gives the same
values and gradients as conv + ReLU + maxpool while the ReLU touches only
the pooled elements. ReLU is monotone, so when a window's max is positive
both orders output that max and route the gradient to its first occurrence;
when the max is <= 0 both output 0 and pass a zero gradient to the conv.

At input 110x110x10 with base 16 channels and feature dim 128, the plan is
the reference configuration:
    108x108x10x16 -> 54x54x10x16 -> 52x52x10x32 -> 26x26x10x32 ->
    24x24x10x64 -> 12x12x10x64 -> 10x10x10x128 -> 5x5x5x128 ->
    1x1x1x256 -> 256 -> 128
Smaller square inputs (22, 20, 12, ...) reuse the same pattern with fewer
stages, for desk-scale training and gradient checks.

A taped clip at the reference plan keeps about 32 MB of activations, so
``encode_question_clips`` records each clip of such a plan as one
``recomputed`` tape entry that holds only the clip's uint8 frames and
re-encodes it in backward. Clips of small plans (a 22x22 clip keeps about
0.1 MB) stay on the tape, where re-encoding would cost time and save nothing.

``encode_question_clips`` takes all of a subject's questions at once and
hands a recomputed plan's clips to ``recomputed`` in one call, which encodes
them on a thread pool. In backward two lanes, the calling thread and one
worker, each take every other clip, last first, re-encode it under a local
tape and replay that tape; each replay step of a clip waits until the clip
before it has finished that step (see ``numerics.recomputed``). Every
parameter is an input of exactly one op of ``encode_clip``, the contract
that rule needs, so features and gradients are the same bits as a plain
tape's on any number of cores. The second local tape alive costs about
32 MB, which the blocked conv backward (``numerics.conv``) pays for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .clipper import clip_stride
from .errors import ConfigError, ContractError, ShapeError
from .numerics import (
    Tensor,
    add,
    conv3d,
    glorot_uniform,
    matmul,
    maxpool3d,
    recomputed,
    relu,
    reshape,
)

__all__ = [
    "EncoderPlan",
    "EncoderParams",
    "build_plan",
    "shape_chain",
    "init_encoder",
    "encode_clip",
    "encode_question_clips",
]

CONV_KERNEL = 3
# A clip whose taped activations exceed this many bytes is encoded on the
# thread pool and re-encoded in backward instead of kept on the tape.
RECOMPUTE_BYTES = 1 << 20


@dataclass(frozen=True)
class EncoderPlan:
    input_hw: int
    clip_len: int
    stage_channels: tuple[int, ...]
    final_kernel: tuple[int, int, int]
    final_channels: int
    feature_dim: int

    @cached_property
    def taped_bytes(self) -> int:
        """Float64 bytes of one clip's intermediates, every shape of ``shape_chain``."""
        return 8 * sum(math.prod(shape) for shape in shape_chain(self))


def build_plan(input_hw: int, clip_len: int = 10, base_channels: int = 16,
               feature_dim: int = 128) -> EncoderPlan:
    """Derive the stage structure for a square input of the given extent."""
    if base_channels < 1 or feature_dim < 1:
        raise ConfigError("base_channels and feature_dim must be positive")
    clip_stride(clip_len)  # refuses an odd clip_len or one below 2
    if input_hw < 4 or (input_hw - 2) % 2:
        raise ConfigError(
            f"input extent {input_hw} unsupported: extent - 2 must be even and >= 2 "
            "so at least one conv+pool stage fits"
        )
    channels = []
    s, c = input_hw, base_channels
    while s >= 4 and (s - 2) % 2 == 0:
        channels.append(c)
        s = (s - 2) // 2
        c *= 2
    t_final = clip_len // 2
    return EncoderPlan(
        input_hw=input_hw,
        clip_len=clip_len,
        stage_channels=tuple(channels),
        final_kernel=(s, s, t_final),
        final_channels=2 * channels[-1],
        feature_dim=feature_dim,
    )


def shape_chain(plan: EncoderPlan) -> list[tuple[int, ...]]:
    """Every intermediate shape: post-conv and post-pool per stage, then
    final conv output, flattened vector, and feature vector."""
    chain: list[tuple[int, ...]] = []
    s, t = plan.input_hw, plan.clip_len
    n_stages = len(plan.stage_channels)
    for i, c in enumerate(plan.stage_channels):
        s -= 2
        chain.append((s, s, t, c))
        s //= 2
        if i == n_stages - 1:
            t //= 2
        chain.append((s, s, t, c))
    chain.append((1, 1, 1, plan.final_channels))
    chain.append((plan.final_channels,))
    chain.append((plan.feature_dim,))
    return chain


@dataclass
class EncoderParams:
    plan: EncoderPlan
    stage_kernels: list[Tensor]
    stage_biases: list[Tensor]
    final_kernel: Tensor
    final_bias: Tensor
    fc_weight: Tensor
    fc_bias: Tensor

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        named: list[tuple[str, Tensor]] = []
        for i, (k, b) in enumerate(zip(self.stage_kernels, self.stage_biases)):
            named.append((f"enc.conv{i}.kernel", k))
            named.append((f"enc.conv{i}.bias", b))
        named.append(("enc.final.kernel", self.final_kernel))
        named.append(("enc.final.bias", self.final_bias))
        named.append(("enc.fc.weight", self.fc_weight))
        named.append(("enc.fc.bias", self.fc_bias))
        return named


def init_encoder(plan: EncoderPlan, rng: np.random.Generator) -> EncoderParams:
    k = CONV_KERNEL
    stage_kernels, stage_biases = [], []
    cin = 1
    for cout in plan.stage_channels:
        stage_kernels.append(glorot_uniform(
            (cout, k, k, k, cin), fan_in=cin * k * k * k, fan_out=cout * k * k * k, rng=rng))
        stage_biases.append(Tensor(np.zeros(cout), requires_grad=True))
        cin = cout
    fh, fw, ft = plan.final_kernel
    final_kernel = glorot_uniform(
        (plan.final_channels, fh, fw, ft, cin),
        fan_in=cin * fh * fw * ft, fan_out=plan.final_channels * fh * fw * ft, rng=rng)
    final_bias = Tensor(np.zeros(plan.final_channels), requires_grad=True)
    fc_weight = glorot_uniform((plan.feature_dim, plan.final_channels),
                               fan_in=plan.final_channels, fan_out=plan.feature_dim, rng=rng)
    fc_bias = Tensor(np.zeros(plan.feature_dim), requires_grad=True)
    return EncoderParams(plan, stage_kernels, stage_biases, final_kernel, final_bias,
                         fc_weight, fc_bias)


def encode_clip(values: Tensor, params: EncoderParams,
                shapes: list[tuple[int, ...]] | None = None) -> Tensor:
    """Encode one (H, W, T, 1) clip tensor into a feature vector.

    When ``shapes`` is a list, every intermediate shape is appended to it in
    the same order as ``shape_chain``.
    """
    plan = params.plan
    expected = (plan.input_hw, plan.input_hw, plan.clip_len, 1)
    if values.shape != expected:
        raise ShapeError(f"clip shape {values.shape} does not match plan input {expected}")

    def note(t: Tensor) -> Tensor:
        if shapes is not None:
            shapes.append(t.shape)
        return t

    x = values
    n_stages = len(plan.stage_channels)
    for i, (kern, bias) in enumerate(zip(params.stage_kernels, params.stage_biases)):
        x = note(conv3d(x, kern, bias, spatial_pad=0, temporal_pad=1))
        pool_t = 2 if i == n_stages - 1 else 1
        x = note(relu(maxpool3d(x, (2, 2, pool_t))))
    x = note(relu(conv3d(x, params.final_kernel, params.final_bias,
                         spatial_pad=0, temporal_pad=0)))
    x = note(reshape(x, (plan.final_channels,)))
    return note(add(matmul(params.fc_weight, x), params.fc_bias))


def _encode_frames(clip: np.ndarray, params: EncoderParams) -> Tensor:
    """Encode one (H, W, T) uint8 clip, scaled by 1/255 into [0, 1] as it is
    copied into its tensor."""
    return encode_clip(Tensor(np.divide(clip[..., None], 255.0, order="C")), params)


def encode_question_clips(questions: Sequence[np.ndarray], params: EncoderParams
                          ) -> list[tuple[list[Tensor], list[int]]]:
    """Encode every clip of a subject's questions, each an (M, H, W, T) uint8
    array from ``segment``; returns (features, positions 1..M) per question.

    A plan whose clips keep more than RECOMPUTE_BYTES encodes them through
    one ``recomputed`` call, on a pool of threads and as one tape entry a
    clip. Smaller plans encode their clips one after another on the calling
    thread's tape."""
    if not questions or any(len(clips) == 0 for clips in questions):
        raise ContractError("every question must have at least one clip")
    flat = [clip for clips in questions for clip in clips]
    if params.plan.taped_bytes > RECOMPUTE_BYTES:
        features = recomputed(_encode_frames, flat, params)
    else:
        features = [_encode_frames(clip, params) for clip in flat]
    encoded, start = [], 0
    for clips in questions:
        encoded.append((features[start:start + len(clips)], list(range(1, len(clips) + 1))))
        start += len(clips)
    return encoded
