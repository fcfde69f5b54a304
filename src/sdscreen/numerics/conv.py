"""3-D convolution and max pooling over (H, W, T, C) volumes.

The convolution unfolds the zero-padded input (the input itself when there is
no padding) over the W and T kernel axes only, into a row matrix of shape
(PH*OW*OT, kw*kt*Cin): row (h, ow, ot) holds the kw x kt x Cin window at
padded row h. Output row block ``dh`` reads padded rows dh .. dh+OH-1, which
are the contiguous row slice [dh*n, (dh+OH)*n) with n = OW*OT, so forward is
a sum of ``kh`` 2-D GEMMs over views of one matrix about a kh-th the size of
a full im2col patch matrix (Cho & Brand, *Memory-efficient Convolution for
Deep Neural Network*, ICML 2017).

Forward builds that matrix a block of output rows at a time: a block of b
output rows unfolds its b + kh - 1 padded rows, at most about
``ROW_BLOCK_BYTES`` (a cache's size) when one output row allows, and
its ``kh`` GEMMs write into the block's slice of one preallocated output.
Each output row is the same GEMM row as with one block, so the values do
not depend on the block size. At the reference stage 1 (54x54x10x16 in) the
whole matrix would be 32 MB; a block's is under 4 MiB.

Forwards compute only their values. Backward recomputes what it needs from the
stored inputs instead of keeping it on the tape, over the same blocks: the
kernel gradient rebuilds each forward block's row matrix and adds the block's
term of each ``dh`` slab straight into the kernel's ``grad``; the input
gradient gathers each block of b padded rows' terms into a matrix of the row
layout, in the order one block gives, and folds it back onto the padded grid
with kw*kt slice-adds; the pooling finds each window's first max again from
its input and output. That trades a little recompute in backward for a
smaller tape and cheaper untaped passes. A conv with one block gives the
gradients of one whole row matrix bit for bit; with several, the kernel
gradient sums the blocks' terms one by one, so it may differ in the last
bits, and so may the input gradient where the BLAS computes a row of a
shorter GEMM in another order.
At the reference stage 1 the backward allocates about 10 MiB on top of its
inputs, where one whole matrix took 61 MiB.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor, _finish

__all__ = ["conv3d", "maxpool3d"]

# A block's row matrix holds at most about this many bytes, so that it
# stays in cache while the block's kh GEMMs read it. On a Xeon with 2 MiB
# of L2 a core, 4 MiB ran the reference stages fastest, on one thread or two,
# of the sizes from 1 to 8 MiB tried.
ROW_BLOCK_BYTES = 4 << 20


def _conv_out_extent(extent: int, kernel: int, pad: int) -> int:
    return extent + 2 * pad - kernel + 1


def _rows(padded: np.ndarray, kw: int, kt: int) -> np.ndarray:
    """Return the (PH*OW*OT, kw*kt*Cin) row matrix of a padded volume."""
    ph, pw, pt, cin = padded.shape
    ow, ot = pw - kw + 1, pt - kt + 1
    sh, sw, st, sc = padded.strides
    # windows: (PH, OW, OT, kw, kt, Cin), Cin last to match the kernel layout
    windows = np.lib.stride_tricks.as_strided(
        padded, shape=(ph, ow, ot, kw, kt, cin),
        strides=(sh, sw, st, sw, st, sc), writeable=False)
    return windows.reshape(ph * ow * ot, kw * kt * cin)


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
    n = ow * ot
    m = oh * n
    kmats = kernels.data.reshape(cout, kh, -1).transpose(1, 2, 0)  # (kh, kw*kt*Cin, Cout) view
    # Output rows per block: a block of b output rows reads b + kh - 1 padded rows.
    block = max(1, ROW_BLOCK_BYTES // (8 * n * kw * kt * cin) - (kh - 1))
    data = np.empty((m, cout))                       # (OH*OW*OT, Cout)
    part = np.empty((min(block, oh) * n, cout))
    for h0 in range(0, oh, block):
        h1 = min(h0 + block, oh)
        rows = _rows(padded[h0:h1 + kh - 1], kw, kt)
        mb = (h1 - h0) * n
        out = data[h0 * n:h1 * n]
        np.matmul(rows[:mb], kmats[0], out=out)
        for dh in range(1, kh):
            out += np.matmul(rows[dh * n:dh * n + mb], kmats[dh], out=part[:mb])
        out += bias.data
    data = data.reshape(oh, ow, ot, cout)

    x_req = x.requires_grad  # False for a clip, the stage-0 input: a whole pass skipped

    # Each del in backward frees a block's arrays before the next block makes its own.
    def bwd(g: np.ndarray) -> None:
        gmat = g.reshape(m, cout)
        # Each forward block's term of every dh slab goes straight into grad.
        for h0 in range(0, oh, block):
            h1 = min(h0 + block, oh)
            rows = _rows(padded[h0:h1 + kh - 1], kw, kt)
            for dh in range(kh):
                slab = gmat[h0 * n:h1 * n].T @ rows[dh * n:(dh + h1 - h0) * n]
                kernels.accumulate_grad(slab.reshape(cout, kw, kt, cin), at=(slice(None), dh))
                del slab
            del rows
        if x_req:
            # Padded rows p0 .. p1 - 1 gather their dh terms in the row layout,
            # in the order one block gives them, then fold every (dw, dt)
            # window offset back onto the padded grid.
            ph = padded.shape[0]
            gpad = np.zeros_like(padded)
            part = np.empty((min(block, ph) * n, kw * kt * cin))
            for p0 in range(0, ph, block):
                p1 = min(p0 + block, ph)
                grows = np.empty(((p1 - p0) * n, kw * kt * cin))
                mb = max(min(p1, oh) - p0, 0) * n  # rows with a dh = 0 term
                np.matmul(gmat[p0 * n:p0 * n + mb], kmats[0].T, out=grows[:mb])
                grows[mb:] = 0.0
                for dh in range(1, kh):
                    o0, o1 = max(p0 - dh, 0), min(p1 - dh, oh)  # output rows at offset dh
                    if o0 < o1:
                        grows[(o0 + dh - p0) * n:(o1 + dh - p0) * n] += np.matmul(
                            gmat[o0 * n:o1 * n], kmats[dh].T, out=part[:(o1 - o0) * n])
                grows = grows.reshape(p1 - p0, ow, ot, kw, kt, cin)
                gpad_rows = gpad[p0:p1]
                for dw in range(kw):
                    for dt in range(kt):
                        gpad_rows[:, dw:dw + ow, dt:dt + ot, :] += grows[:, :, :, dw, dt, :]
                del grows
            del part
            sp, tp = spatial_pad, temporal_pad
            x.accumulate_grad(gpad[sp:sp + h, sp:sp + w, tp:tp + t, :])
        bias.accumulate_grad(gmat.sum(axis=0))

    return _finish("conv3d", data, (x, kernels, bias), bwd)


def maxpool3d(x: Tensor, window: tuple[int, int, int]) -> Tensor:
    """Non-overlapping max pooling; each extent must divide evenly.

    Forward takes each window's max directly. Backward routes each window's
    gradient to the first element equal to its max in (H, W, T) scan order,
    so ties are deterministic: it visits the window offsets in that order,
    each as a strided view of the input, and masks the windows not yet routed.
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
        blocks = x.data.reshape(oh, ph, ow, pw, ot, pt, c)
        gx = np.empty_like(x.data)
        gblocks = gx.reshape(blocks.shape)
        hit = np.empty(data.shape, dtype=bool)
        routed = np.zeros(data.shape, dtype=bool)
        for i, j, k in np.ndindex(ph, pw, pt):
            np.equal(blocks[:, i, :, j, :, k, :], data, out=hit)
            np.greater(hit, routed, out=hit)  # a max, and the window's first
            routed |= hit
            # -0.0 where a negative g is not routed; accumulate_grad's
            # first add of 0.0 turns it into the 0.0 argmax routing wrote.
            np.multiply(g, hit, out=gblocks[:, i, :, j, :, k, :])
        x.accumulate_grad(gx)

    return _finish("maxpool3d", data, (x,), bwd)
