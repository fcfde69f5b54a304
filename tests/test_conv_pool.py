"""3-D convolution and max-pooling checked against plain loop references,
and the encoder's conv + maxpool + ReLU stages checked bit for bit against
an oracle of the conv + ReLU + argmax-pool stages they replace."""

import itertools

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
    tsum,
)
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
        loss = tsum(maxpool3d(t, (2, 2, 2)))
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
# Oracles of the earlier forward: conv3d through np.pad and
# sliding_window_view, a ReLU that stores its mask, and a max pool that takes
# its values through the first-max argmax.


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
    return maxpool_argmax(relu_masked(conv3d_padded(x, k, b, 0, 1)), window)


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


@pytest.mark.parametrize("pads", [(0, 0), (0, 1), (1, 1)])
def test_conv3d_bit_equal_to_np_pad_reference(pads):
    r = np.random.default_rng(sum(pads) + 20)
    x, k, b = r.normal(size=(7, 6, 4, 3)), r.normal(size=(4, 3, 3, 3, 3)), r.normal(size=4)
    probe = r.normal(size=7 * 6 * 6 * 4)
    got, got_grads = run_taped(lambda *t: conv3d(*t, *pads), [x, k, b], probe)
    want, want_grads = run_taped(lambda *t: conv3d_padded(*t, *pads), [x, k, b], probe)
    assert_bits_equal(got, want)
    for g, w in zip(got_grads, want_grads):
        assert_bits_equal(g, w)


def encode_clip_oracle(x, params):
    """The encoder in the earlier conv + ReLU + argmax-pool order."""
    n_stages = len(params.plan.stage_channels)
    for i, (k, b) in enumerate(zip(params.stage_kernels, params.stage_biases)):
        x = maxpool_argmax(relu_masked(conv3d_padded(x, k, b, 0, 1)),
                           (2, 2, 2 if i == n_stages - 1 else 1))
    x = relu_masked(conv3d_padded(x, params.final_kernel, params.final_bias, 0, 0))
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
