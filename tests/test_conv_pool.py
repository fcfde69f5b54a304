"""3-D convolution and max-pooling checked against plain loop references,
the convolution checked against the earlier full-im2col convolution at
rounding level, its single-block backward checked bit for bit against the
earlier one-matrix backward and its backward's memory bounded, and the
encoder's conv + maxpool + ReLU stages checked bit for bit against an oracle
of the conv + ReLU + argmax-pool stages they replace."""

import itertools
import tracemalloc

import numpy as np
import pytest

from sdscreen.encoder3d import build_plan, encode_clip, init_encoder
from sdscreen.errors import ShapeError
from sdscreen.numerics import (
    Tape,
    Tensor,
    add,
    conv3d,
    dot,
    matmul,
    maxpool3d,
    relu,
    reshape,
)
from sdscreen.numerics import conv
from sdscreen.numerics.gradcheck import gradcheck
from sdscreen.numerics.tensor import _finish


def conv3d_loops(x, k, b, sp, tp):
    """Reference convolution: nested loops, no vectorization."""
    h, w, t, cin = x.shape
    cout, kh, kw, kt, _ = k.shape
    xp = np.pad(x, ((sp, sp), (sp, sp), (tp, tp), (0, 0)))
    oh = h + 2 * sp - kh + 1
    ow = w + 2 * sp - kw + 1
    ot = t + 2 * tp - kt + 1
    out = np.zeros((oh, ow, ot, cout))
    for i in range(oh):
        for j in range(ow):
            for u in range(ot):
                patch = xp[i:i + kh, j:j + kw, u:u + kt, :]
                for c in range(cout):
                    out[i, j, u, c] = np.sum(patch * k[c]) + b[c]
    return out


def maxpool_loops(x, win):
    h, w, t, c = x.shape
    ph, pw, pt = win
    out = np.zeros((h // ph, w // pw, t // pt, c))
    for i in range(h // ph):
        for j in range(w // pw):
            for u in range(t // pt):
                block = x[i * ph:(i + 1) * ph, j * pw:(j + 1) * pw,
                          u * pt:(u + 1) * pt, :]
                out[i, j, u] = block.reshape(-1, c).max(axis=0)
    return out


@pytest.mark.parametrize("seed", range(8))
def test_conv3d_matches_loop_reference(seed):
    r = np.random.default_rng(seed)
    h, w, t = r.integers(4, 8), r.integers(4, 8), r.integers(3, 6)
    cin, cout = r.integers(1, 3), r.integers(1, 4)
    sp, tp = int(r.integers(0, 2)), int(r.integers(0, 2))
    x = r.normal(size=(h, w, t, cin))
    k = r.normal(size=(cout, 3, 3, 3, cin))
    b = r.normal(size=cout)
    got = conv3d(Tensor(x), Tensor(k), Tensor(b),
                 spatial_pad=sp, temporal_pad=tp).data
    want = conv3d_loops(x, k, b, sp, tp)
    assert np.allclose(got, want, atol=1e-12)


KERNEL_EXTENTS = [(1, 1, 5), (5, 5, 3), (2, 3, 1)]
PADS = [(0, 0), (1, 1)]


def extent_case(extents, pads):
    r = np.random.default_rng(sum(extents) + 10 * sum(pads))
    x = r.normal(size=(6, 7, 5, 2))
    k = r.normal(size=(3, *extents, 2)) * 0.2
    b = r.normal(size=3) * 0.2
    return r, x, k, b


@pytest.mark.parametrize("pads", PADS)
@pytest.mark.parametrize("extents", KERNEL_EXTENTS)
def test_conv3d_kernel_extents_match_loop_reference(extents, pads):
    _, x, k, b = extent_case(extents, pads)
    got = conv3d(Tensor(x), Tensor(k), Tensor(b), *pads).data
    assert np.allclose(got, conv3d_loops(x, k, b, *pads), atol=1e-12)


@pytest.mark.parametrize("pads", PADS)
@pytest.mark.parametrize("extents", KERNEL_EXTENTS)
def test_conv3d_kernel_extents_gradcheck(extents, pads):
    r, x, k, b = extent_case(extents, pads)
    x, k, b = (Tensor(a, requires_grad=True) for a in (x, k, b))
    out_size = conv3d(x, k, b, *pads).size
    probe = Tensor(r.normal(size=out_size))

    def fn():
        out = conv3d(x, k, b, *pads)
        return dot(reshape(out, (out.size,)), probe)

    assert gradcheck(fn, [x, k, b]) < 1e-4


def test_conv3d_output_shape_padding_same_time():
    x = Tensor(np.zeros((10, 10, 6, 2)))
    k = Tensor(np.zeros((4, 3, 3, 3, 2)))
    b = Tensor(np.zeros(4))
    out = conv3d(x, k, b, spatial_pad=0, temporal_pad=1)
    assert out.shape == (8, 8, 6, 4)


def test_conv3d_shape_errors():
    x = Tensor(np.zeros((4, 4, 4, 2)))
    b = Tensor(np.zeros(3))
    with pytest.raises(ShapeError):
        conv3d(x, Tensor(np.zeros((3, 3, 3, 3, 1))), b, 0, 0)  # channel mismatch
    with pytest.raises(ShapeError):
        conv3d(x, Tensor(np.zeros((3, 9, 9, 3, 2))), b, 0, 0)  # kernel too large
    with pytest.raises(ShapeError):
        conv3d(x, Tensor(np.zeros((3, 3, 3, 3, 2))), Tensor(np.zeros(2)), 0, 0)


@pytest.mark.parametrize("seed", range(4))
def test_maxpool3d_matches_loop_reference(seed):
    r = np.random.default_rng(100 + seed)
    x = r.normal(size=(6, 4, 4, 3))
    win = (2, 2, 2) if seed % 2 else (2, 2, 1)
    got = maxpool3d(Tensor(x), win).data
    assert np.allclose(got, maxpool_loops(x, win), atol=0)


def test_maxpool3d_requires_divisible_extents():
    with pytest.raises(ShapeError):
        maxpool3d(Tensor(np.zeros((5, 4, 4, 1))), (2, 2, 2))


def test_maxpool_gradient_routes_to_first_max():
    x = np.zeros((2, 2, 2, 1))
    x[0, 0, 0, 0] = 5.0
    x[1, 1, 1, 0] = 5.0  # tie: first in scan order wins
    t = Tensor(x, requires_grad=True)
    with Tape() as tape:
        loss = reshape(maxpool3d(t, (2, 2, 2)), ())
    tape.backward(loss)
    assert t.grad[0, 0, 0, 0] == 1.0
    assert t.grad[1, 1, 1, 0] == 0.0
    assert t.grad.sum() == 1.0


def test_conv3d_gradcheck():
    r = np.random.default_rng(7)
    x = Tensor(r.normal(size=(5, 5, 4, 2)), requires_grad=True)
    k = Tensor(r.normal(size=(3, 3, 3, 3, 2)) * 0.2, requires_grad=True)
    b = Tensor(r.normal(size=3) * 0.2, requires_grad=True)
    probe = Tensor(r.normal(size=3 * 3 * 4 * 3))

    def fn():
        out = conv3d(x, k, b, spatial_pad=0, temporal_pad=1)
        return dot(reshape(out, (out.size,)), probe)

    assert gradcheck(fn, [x, k, b]) < 1e-4


def test_maxpool3d_gradcheck():
    r = np.random.default_rng(8)
    # Spread values so the max location is stable under the probe step.
    x = Tensor(np.linspace(-1.0, 1.0, 4 * 4 * 4 * 2).reshape(4, 4, 4, 2)
               + r.normal(size=(4, 4, 4, 2)) * 0.01, requires_grad=True)
    probe = Tensor(r.normal(size=2 * 2 * 2 * 2))

    def fn():
        out = maxpool3d(x, (2, 2, 2))
        return dot(reshape(out, (out.size,)), probe)

    assert gradcheck(fn, [x]) < 1e-4


# ---------------------------------------------------------------------------
# Oracles of the earlier code: conv3d as one GEMM over a full im2col patch
# matrix built through np.pad and sliding_window_view, a ReLU that stores its
# mask, and a max pool that takes its values through the first-max argmax.


def conv3d_padded(x, kernels, bias, sp, tp):
    cout, kh, kw, kt, cin = kernels.shape
    h, w, t = x.shape[:3]
    padded = np.pad(x.data, ((sp, sp), (sp, sp), (tp, tp), (0, 0)))

    def patches():
        windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw, kt), axis=(0, 1, 2))
        windows = windows.transpose(0, 1, 2, 4, 5, 6, 3)
        return windows.reshape(*windows.shape[:3], kh * kw * kt * cin)

    cols = patches()
    oh, ow, ot = cols.shape[:3]
    kmat = kernels.data.reshape(cout, -1)
    data = cols @ kmat.T + bias.data

    def bwd(g):
        gmat = g.reshape(-1, cout)
        if kernels.requires_grad:
            cols_again = patches().reshape(-1, kh * kw * kt * cin)
            kernels.accumulate_grad((gmat.T @ cols_again).reshape(kernels.shape))
        if x.requires_grad:
            gpad = np.zeros_like(padded)
            gfull = (g @ kmat).reshape(oh, ow, ot, kh, kw, kt, cin)
            for dh, dw, dt in itertools.product(range(kh), range(kw), range(kt)):
                gpad[dh:dh + oh, dw:dw + ow, dt:dt + ot, :] += gfull[:, :, :, dh, dw, dt, :]
            x.accumulate_grad(gpad[sp:sp + h, sp:sp + w, tp:tp + t, :])
        if bias.requires_grad:
            bias.accumulate_grad(gmat.sum(axis=0))

    return _finish("conv3d", data, (x, kernels, bias), bwd)


def relu_masked(a):
    data = np.maximum(a.data, 0.0)
    mask = a.data > 0.0

    def bwd(g):
        a.accumulate_grad(g * mask)

    return _finish("relu", data, (a,), bwd)


def maxpool_argmax(x, window):
    ph, pw, pt = window
    h, w, t, c = x.shape
    oh, ow, ot = h // ph, w // pw, t // pt
    blocks = x.data.reshape(oh, ph, ow, pw, ot, pt, c)
    blocks = blocks.transpose(0, 2, 4, 6, 1, 3, 5).reshape(oh, ow, ot, c, ph * pw * pt)
    flat_idx = blocks.argmax(axis=-1)
    data = np.take_along_axis(blocks, flat_idx[..., None], axis=-1)[..., 0]

    def bwd(g):
        gblocks = np.zeros((oh, ow, ot, c, ph * pw * pt))
        np.put_along_axis(gblocks, flat_idx[..., None], g[..., None], axis=-1)
        gx = gblocks.reshape(oh, ow, ot, c, ph, pw, pt)
        x.accumulate_grad(gx.transpose(0, 4, 1, 5, 2, 6, 3).reshape(h, w, t, c))

    return _finish("maxpool3d", data, (x,), bwd)


def new_stage(x, k, b, window):
    return relu(maxpool3d(conv3d(x, k, b, spatial_pad=0, temporal_pad=1), window))


def old_stage(x, k, b, window):
    return maxpool_argmax(relu_masked(conv3d(x, k, b, 0, 1)), window)


def assert_bits_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def run_taped(fn, arrays, probe):
    """Forward ``fn`` on fresh leaves of ``arrays``; return output and grads."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = fn(*leaves)
        loss = dot(reshape(out, (out.size,)), Tensor(probe[:out.size]))
    tape.backward(loss)
    return out.data, [leaf.grad for leaf in leaves]


STAGE_CASES = ["random", "ties", "nonpositive", "zero_clip", "zero_clip_zero_bias"]


def stage_case(case, window):
    r = np.random.default_rng(10 * STAGE_CASES.index(case) + sum(window))
    x = r.normal(size=(8, 6, 4, 2))
    k = r.normal(size=(3, 3, 3, 3, 2))
    b = r.normal(size=3)
    if case == "ties":  # small integers: many windows hold their max twice
        x, k, b = r.integers(-1, 2, x.shape) * 1.0, r.integers(-1, 2, k.shape) * 1.0, 0 * b
    elif case == "nonpositive":  # every window's max is <= 0
        b = -np.abs(k).sum(axis=(1, 2, 3, 4)) * np.abs(x).max() - 1.0
    elif case == "zero_clip":  # constant windows: a tie of the bias everywhere
        x = np.zeros_like(x)
    elif case == "zero_clip_zero_bias":
        x, b = np.zeros_like(x), np.zeros_like(b)
    return x, k, b, r.normal(size=x.size * 3)


@pytest.mark.parametrize("window", [(2, 2, 1), (2, 2, 2)])
@pytest.mark.parametrize("case", STAGE_CASES)
def test_pool_then_relu_stage_bit_equal_to_relu_then_argmax_pool(case, window):
    x, k, b, probe = stage_case(case, window)
    got, got_grads = run_taped(lambda *t: new_stage(*t, window), [x, k, b], probe)
    want, want_grads = run_taped(lambda *t: old_stage(*t, window), [x, k, b], probe)
    assert_bits_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        assert_bits_equal(g, w)
    # Untaped, the same values.
    assert_bits_equal(new_stage(Tensor(x), Tensor(k), Tensor(b), window).data, want)
    if case == "nonpositive":
        assert not got.any() and not got_grads[0].any()


def conv_case(x_shape, k_shape, pads, seed):
    r = np.random.default_rng(seed)
    x, k, b = r.normal(size=x_shape), r.normal(size=k_shape), r.normal(size=k_shape[0])
    sp, tp = pads
    out = [e + 2 * p - kk + 1 for e, p, kk in zip(x_shape[:3], (sp, sp, tp), k_shape[1:4])]
    return x, k, b, r.normal(size=int(np.prod(out)) * k_shape[0])


@pytest.mark.parametrize("pads", [(0, 0), (0, 1), (1, 1)])
def test_conv3d_bit_equal_to_np_pad_reference(pads):
    sp, tp = pads
    x, k, b, probe = conv_case((7, 6, 4, 3), (4, 3, 3, 3, 3), pads, sum(pads) + 20)
    padded = np.pad(x, ((sp, sp), (sp, sp), (tp, tp), (0, 0)))
    got, got_grads = run_taped(lambda *t: conv3d(*t, *pads), [x, k, b], probe)
    want, want_grads = run_taped(lambda *t: conv3d(*t, 0, 0), [padded, k, b], probe)
    assert_bits_equal(got, want)
    assert_bits_equal(got_grads[0], want_grads[0][sp:sp + 7, sp:sp + 6, tp:tp + 4])
    for g, w in zip(got_grads[1:], want_grads[1:]):
        assert_bits_equal(g, w)


# The row-slice conv splits each output's K-sum into kh partial GEMMs, so it
# may differ from the one-GEMM im2col conv in the last bits only.
@pytest.mark.parametrize("x_shape, k_shape, pads", [
    ((7, 6, 4, 3), (4, 3, 3, 3, 3), (0, 0)),
    ((7, 6, 4, 3), (4, 3, 3, 3, 3), (0, 1)),
    ((7, 6, 4, 3), (4, 3, 3, 3, 3), (1, 1)),
    ((54, 54, 10, 16), (32, 3, 3, 3, 16), (0, 1)),  # reference stage 1
])
def test_conv3d_within_rounding_of_im2col_conv(x_shape, k_shape, pads):
    x, k, b, probe = conv_case(x_shape, k_shape, pads, 40)
    got, got_grads = run_taped(lambda *t: conv3d(*t, *pads), [x, k, b], probe)
    want, want_grads = run_taped(lambda *t: conv3d_padded(*t, *pads), [x, k, b], probe)
    for g, w in zip([got, *got_grads], [want, *want_grads]):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()


# Forward and backward work over blocks of output rows. Blocks of three rows
# split every OH here unevenly: the output and the bias gradient keep the
# one-block bits, while the kernel gradient sums its blocks' terms, and the
# input gradient may take other GEMM rows, so they agree to rounding.
@pytest.mark.parametrize("x_shape, k_shape, pads", [
    ((7, 6, 4, 3), (4, 3, 3, 3, 3), (0, 0)),
    ((7, 6, 4, 3), (4, 3, 3, 3, 3), (0, 1)),
    ((7, 6, 4, 3), (4, 3, 3, 3, 3), (1, 1)),
    ((54, 54, 10, 16), (32, 3, 3, 3, 16), (0, 1)),  # reference stage 1
])
def test_conv3d_row_blocks_bit_equal_to_one_block(x_shape, k_shape, pads, monkeypatch):
    x, k, b, probe = conv_case(x_shape, k_shape, pads, 50)
    sp, tp = pads
    _, kh, kw, kt, cin = k_shape
    oh, ow, ot = (e + 2 * p - kk + 1 for e, p, kk in zip(x_shape[:3], (sp, sp, tp), k_shape[1:4]))
    assert oh > 3 and oh % 3
    run = lambda *t: conv3d(*t, *pads)
    monkeypatch.setattr(conv, "ROW_BLOCK_BYTES", 1 << 62)
    want, want_grads = run_taped(run, [x, k, b], probe)
    monkeypatch.setattr(conv, "ROW_BLOCK_BYTES", (3 + kh - 1) * 8 * ow * ot * kw * kt * cin)
    heights, rows = [], conv._rows
    monkeypatch.setattr(conv, "_rows", lambda padded, *a: heights.append(len(padded))
                        or rows(padded, *a))
    got, got_grads = run_taped(run, [x, k, b], probe)
    assert_bits_equal(got, want)
    assert_bits_equal(got_grads[2], want_grads[2])
    for g, w in zip(got_grads[:2], want_grads[:2]):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-13 * np.abs(w).max()
    # The forward's blocks, then the kernel gradient's, the same rows.
    assert heights == 2 * ([3 + kh - 1] * (oh // 3) + [oh % 3 + kh - 1])


def conv3d_one_matrix(x, kernels, bias, sp, tp):
    """conv3d whose backward builds the whole row matrix for the kernel
    gradient and the whole row-layout input gradient: the earlier backward,
    which single-block convs still match bit for bit."""
    cout, kh, kw, kt, cin = kernels.shape
    h, w, t = x.shape[:3]
    padded = np.pad(x.data, ((sp, sp), (sp, sp), (tp, tp), (0, 0)))
    ph, pw, pt = padded.shape[:3]
    oh, ow, ot = ph - kh + 1, pw - kw + 1, pt - kt + 1
    n = ow * ot
    m = oh * n
    kmats = kernels.data.reshape(cout, kh, -1).transpose(1, 2, 0)
    data = conv3d(Tensor(x.data), Tensor(kernels.data), Tensor(bias.data), sp, tp).data

    def bwd(g):
        gmat = g.reshape(m, cout)
        if kernels.requires_grad:
            rows_again = conv._rows(padded, kw, kt)
            gk = np.empty((cout, kh, kw * kt * cin))
            for dh in range(kh):
                gk[:, dh] = gmat.T @ rows_again[dh * n:dh * n + m]
            kernels.accumulate_grad(gk.reshape(kernels.shape))
        if x.requires_grad:
            grows = np.empty((ph * n, kw * kt * cin))
            np.matmul(gmat, kmats[0].T, out=grows[:m])
            grows[m:] = 0.0
            for dh in range(1, kh):
                grows[dh * n:dh * n + m] += gmat @ kmats[dh].T
            grows = grows.reshape(ph, ow, ot, kw, kt, cin)
            gpad = np.zeros_like(padded)
            for dw in range(kw):
                for dt in range(kt):
                    gpad[:, dw:dw + ow, dt:dt + ot, :] += grows[:, :, :, dw, dt, :]
            x.accumulate_grad(gpad[sp:sp + h, sp:sp + w, tp:tp + t, :])
        if bias.requires_grad:
            bias.accumulate_grad(gmat.sum(axis=0))

    return _finish("conv3d", data, (x, kernels, bias), bwd)


SINGLE_BLOCK_CONVS = {
    "desk-stage0": ((22, 22, 10, 1), (2, 3, 3, 3, 1), (0, 1)),
    "desk-stage1": ((10, 10, 10, 2), (4, 3, 3, 3, 2), (0, 1)),
    "desk-stage2": ((4, 4, 10, 4), (8, 3, 3, 3, 4), (0, 1)),
    "desk-final": ((1, 1, 5, 8), (16, 1, 1, 5, 8), (0, 0)),
    "reference-final": ((5, 5, 5, 128), (256, 5, 5, 5, 128), (0, 0)),
}


@pytest.mark.parametrize("held", ["fresh", "held"])
@pytest.mark.parametrize("name", SINGLE_BLOCK_CONVS)
def test_single_block_conv3d_backward_bit_equal_to_one_matrix_oracle(name, held, monkeypatch):
    x_shape, k_shape, pads = SINGLE_BLOCK_CONVS[name]
    x, k, b, probe = conv_case(x_shape, k_shape, pads, len(name))
    held_grads = [np.random.default_rng(1).normal(size=a.shape) for a in (x, k, b)]

    def taped(fn):
        leaves = [Tensor(a, requires_grad=True) for a in (x, k, b)]
        if held == "held":  # a gradient already there, as a batch's later clips find it
            for leaf, g in zip(leaves, held_grads):
                leaf.grad = g.copy()
        with Tape() as tape:
            out = fn(*leaves, *pads)
            loss = dot(reshape(out, (out.size,)), Tensor(probe))
        tape.backward(loss)
        return [out.data] + [leaf.grad for leaf in leaves]

    heights, rows = [], conv._rows
    monkeypatch.setattr(conv, "_rows", lambda padded, *a: heights.append(len(padded))
                        or rows(padded, *a))
    got = taped(conv3d)
    padded_h = x_shape[0] + 2 * pads[0]
    assert heights == [padded_h, padded_h]  # one block, forward and backward
    for g, w in zip(got, taped(conv3d_one_matrix)):
        assert_bits_equal(g, w)


@pytest.mark.parametrize("x_shape, k_shape, pads", [
    ((54, 54, 10, 16), (32, 3, 3, 3, 16), (0, 1)),   # reference stage 1
    ((5, 5, 5, 128), (256, 5, 5, 5, 128), (0, 0)),   # reference final conv
])
def test_conv3d_backward_allocates_under_16_mb(x_shape, k_shape, pads):
    x, k, b, probe = conv_case(x_shape, k_shape, pads, 60)
    leaves = [Tensor(a, requires_grad=True) for a in (x, k, b)]
    leaves[1].grad = np.zeros(k_shape)  # the parameter's accumulator, there from earlier clips
    with Tape() as tape:
        out = conv3d(*leaves, *pads)
    out.grad = probe.reshape(out.shape)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tape.backward(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(leaf.grad is not None for leaf in leaves)
    assert peak - start < 16 << 20


def encode_clip_oracle(x, params):
    """The encoder in the earlier conv + ReLU + argmax-pool order."""
    n_stages = len(params.plan.stage_channels)
    for i, (k, b) in enumerate(zip(params.stage_kernels, params.stage_biases)):
        x = maxpool_argmax(relu_masked(conv3d(x, k, b, 0, 1)),
                           (2, 2, 2 if i == n_stages - 1 else 1))
    x = relu_masked(conv3d(x, params.final_kernel, params.final_bias, 0, 0))
    x = reshape(x, (params.plan.final_channels,))
    return add(matmul(params.fc_weight, x), params.fc_bias)


@pytest.mark.parametrize("clip", ["uniform", "zeros"])
def test_desk_encoder_bit_equal_to_relu_then_argmax_pool(clip):
    plan = build_plan(22, clip_len=10, base_channels=2, feature_dim=16)
    assert len(plan.stage_channels) == 3
    r = np.random.default_rng(31)
    params = init_encoder(plan, r)
    for b in params.stage_biases + [params.final_bias, params.fc_bias]:
        b.data = r.normal(size=b.shape) * 0.3  # some windows dead, some alive
    values = r.uniform(size=(22, 22, 10, 1)) if clip == "uniform" else np.zeros((22, 22, 10, 1))
    probe = Tensor(r.normal(size=16))
    named = params.named_parameters()

    def taped(encode):
        x = Tensor(values, requires_grad=True)
        for _, p in named:
            p.zero_grad()
        with Tape() as tape:
            loss = dot(encode(x, params), probe)
        tape.backward(loss)
        return loss.data, [x.grad] + [p.grad for _, p in named]

    got_loss, got_grads = taped(encode_clip)
    want_loss, want_grads = taped(encode_clip_oracle)
    assert_bits_equal(got_loss, want_loss)
    for g, w in zip(got_grads, want_grads):
        assert_bits_equal(g, w)


POOL_SHAPES = {
    "reference-stage0": ((108, 108, 10, 16), (2, 2, 1)),
    "reference-stage1": ((52, 52, 10, 32), (2, 2, 1)),
    "reference-last": ((10, 10, 10, 128), (2, 2, 2)),
    "desk-stage0": ((20, 20, 10, 2), (2, 2, 1)),
    "desk-last": ((8, 8, 10, 4), (2, 2, 2)),
}


@pytest.mark.parametrize("name", POOL_SHAPES)
def test_maxpool_backward_bit_equal_to_argmax_oracle_on_planted_ties(name):
    shape, window = POOL_SHAPES[name]
    r = np.random.default_rng(len(name))
    x = r.normal(size=shape)
    x[::2] = np.round(x[::2])        # small integers: windows hold their max 2-8 times
    x[:, 1::3, :2] = 0.0             # constant stretches: every element of a window ties
    x[-1] = -0.0                     # signed zeros tie with zeros
    n_out = x.size // int(np.prod(window))
    probe = r.normal(size=n_out)
    probe[::5] = 0.0
    probe[1::5] = -0.0
    got, (got_grad,) = run_taped(lambda t: maxpool3d(t, window), [x], probe)
    want, (want_grad,) = run_taped(lambda t: maxpool_argmax(t, window), [x], probe)
    assert np.array_equal(got, want)  # a max of 0.0 and -0.0 may take either sign
    assert_bits_equal(got_grad, want_grad)
