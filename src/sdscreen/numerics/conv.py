"""3-D convolution and max pooling over (H, W, T, C) volumes.

Forward uses an im2col layout: a read-only strided window view of the
zero-padded input (the input itself when there is no padding), copied into a
patch matrix for one GEMM. Forwards compute only their values. Backward
recomputes what it needs from the stored inputs instead of keeping it on the
tape: the convolution rebuilds the patch matrix from the padded input, and the
pooling recomputes each window's first-max position from its input. That
trades a little recompute in backward for a smaller tape and cheaper untaped
passes.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor, _active_tape, _finish

__all__ = ["conv3d", "maxpool3d"]


def _conv_out_extent(extent: int, kernel: int, pad: int) -> int:
    return extent + 2 * pad - kernel + 1


def _patches(padded: np.ndarray, kh: int, kw: int, kt: int) -> np.ndarray:
    """Return (OH, OW, OT, kh*kw*kt*Cin) patch matrix from a padded volume."""
    ph, pw, pt, cin = padded.shape
    oh, ow, ot = ph - kh + 1, pw - kw + 1, pt - kt + 1
    sh, sw, st, sc = padded.strides
    # windows: (OH, OW, OT, kh, kw, kt, Cin), Cin last to match the kernel layout
    windows = np.lib.stride_tricks.as_strided(
        padded, shape=(oh, ow, ot, kh, kw, kt, cin),
        strides=(sh, sw, st, sh, sw, st, sc), writeable=False)
    return windows.reshape(oh, ow, ot, kh * kw * kt * cin)


def _pad(x: np.ndarray, spatial_pad: int, temporal_pad: int) -> np.ndarray:
    """Zero-pad H, W by ``spatial_pad`` and T by ``temporal_pad``; no copy without pads."""
    if spatial_pad == 0 and temporal_pad == 0:
        return x
    sp, tp = spatial_pad, temporal_pad
    h, w, t, c = x.shape
    padded = np.zeros((h + 2 * sp, w + 2 * sp, t + 2 * tp, c), dtype=np.float64)
    padded[sp:sp + h, sp:sp + w, tp:tp + t, :] = x
    return padded


def conv3d(x: Tensor, kernels: Tensor, bias: Tensor,
           spatial_pad: int, temporal_pad: int) -> Tensor:
    """Valid/zero-padded 3-D convolution.

    x: (H, W, T, Cin); kernels: (Cout, kh, kw, kt, Cin); bias: (Cout,).
    Padding is symmetric: ``spatial_pad`` on H and W, ``temporal_pad`` on T.
    Output: (OH, OW, OT, Cout) with O = extent + 2*pad - kernel + 1.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv3d input must be (H, W, T, C), got {x.shape}")
    if kernels.data.ndim != 5:
        raise ShapeError(f"conv3d kernels must be (Cout, kh, kw, kt, Cin), got {kernels.shape}")
    cout, kh, kw, kt, cin = kernels.shape
    if x.shape[3] != cin:
        raise ShapeError(f"conv3d: input has {x.shape[3]} channels, kernels expect {cin}")
    if bias.shape != (cout,):
        raise ShapeError(f"conv3d: bias shape {bias.shape} != ({cout},)")
    if spatial_pad < 0 or temporal_pad < 0:
        raise ShapeError("conv3d: padding must be non-negative")
    h, w, t = x.shape[:3]
    oh = _conv_out_extent(h, kh, spatial_pad)
    ow = _conv_out_extent(w, kw, spatial_pad)
    ot = _conv_out_extent(t, kt, temporal_pad)
    if oh <= 0 or ow <= 0 or ot <= 0:
        raise ShapeError(
            f"conv3d: kernel ({kh},{kw},{kt}) with pads ({spatial_pad},{temporal_pad}) "
            f"does not fit input {x.shape}"
        )

    padded = _pad(x.data, spatial_pad, temporal_pad)
    cols = _patches(padded, kh, kw, kt)              # (OH, OW, OT, K)
    kmat = kernels.data.reshape(cout, -1)            # (Cout, K), same patch order
    data = cols @ kmat.T
    data += bias.data

    x_req, k_req, b_req = x.requires_grad, kernels.requires_grad, bias.requires_grad

    def bwd(g: np.ndarray) -> None:
        gmat = g.reshape(-1, cout)                   # (OH*OW*OT, Cout)
        if k_req or x_req:
            if k_req:
                cols_again = _patches(padded, kh, kw, kt).reshape(-1, kh * kw * kt * cin)
                kernels.accumulate_grad((gmat.T @ cols_again).reshape(kernels.shape))
            if x_req:
                # Scatter each kernel offset's contribution back onto the padded grid.
                gpad = np.zeros_like(padded)
                gfull = g @ kmat                      # (OH, OW, OT, K)
                gfull = gfull.reshape(oh, ow, ot, kh, kw, kt, cin)
                for dh in range(kh):
                    for dw in range(kw):
                        for dt in range(kt):
                            gpad[dh:dh + oh, dw:dw + ow, dt:dt + ot, :] += gfull[:, :, :, dh, dw, dt, :]
                sp, tp = spatial_pad, temporal_pad
                x.accumulate_grad(gpad[sp:sp + h, sp:sp + w, tp:tp + t, :])
        if b_req:
            bias.accumulate_grad(gmat.sum(axis=0))

    return _finish("conv3d", data, (x, kernels, bias), bwd)


def maxpool3d(x: Tensor, window: tuple[int, int, int]) -> Tensor:
    """Non-overlapping max pooling; each extent must divide evenly.

    Forward takes each window's max directly. Backward recomputes the first
    max of each window in (H, W, T) scan order from the input and routes the
    gradient there, so ties are deterministic.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool3d input must be (H, W, T, C), got {x.shape}")
    ph, pw, pt = window
    if ph < 1 or pw < 1 or pt < 1:
        raise ShapeError(f"maxpool3d: window {window} must be positive")
    h, w, t, c = x.shape
    if h % ph or w % pw or t % pt:
        raise ShapeError(f"maxpool3d: window {window} does not divide input {x.shape[:3]}")
    oh, ow, ot = h // ph, w // pw, t // pt

    data = x.data.reshape(oh, ph, ow, pw, ot, pt, c).max(axis=(1, 3, 5))

    def bwd(g: np.ndarray) -> None:
        if x.requires_grad:
            blocks = x.data.reshape(oh, ph, ow, pw, ot, pt, c)
            blocks = blocks.transpose(0, 2, 4, 6, 1, 3, 5).reshape(oh, ow, ot, c, ph * pw * pt)
            flat_idx = blocks.argmax(axis=-1)       # first max wins on ties
            gblocks = np.zeros((oh, ow, ot, c, ph * pw * pt), dtype=np.float64)
            np.put_along_axis(gblocks, flat_idx[..., None], g[..., None], axis=-1)
            gx = gblocks.reshape(oh, ow, ot, c, ph, pw, pt)
            gx = gx.transpose(0, 4, 1, 5, 2, 6, 3).reshape(h, w, t, c)
            x.accumulate_grad(gx)

    return _finish("maxpool3d", data, (x,), bwd)
