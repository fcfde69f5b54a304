"""Core tensor engine: op semantics, broadcasting, tape replay, gradchecks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdscreen.errors import ContractError, NumericError, ShapeError
from sdscreen.numerics import (
    Tape,
    Tensor,
    add,
    clip,
    concat,
    div,
    dot,
    exp,
    glorot_uniform,
    log,
    matmul,
    mean_over_set,
    mul,
    mul_scalar,
    relu,
    reshape,
    sigmoid,
    stack,
    sub,
    sum_sorted,
    transpose,
)
from sdscreen.numerics.gradcheck import gradcheck
from sdscreen.numerics.tensor import _finish


def tsum(a):
    """Sum of every element as a scalar tensor: the simplest loss for gradient tests."""
    data = np.array(a.data.sum())

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, float(g)))

    return _finish("tsum", data, (a,), bwd)


def rng(seed=0):
    return np.random.default_rng(seed)


def test_tensor_is_float64_and_contiguous():
    t = Tensor(np.arange(6, dtype=np.int32).reshape(2, 3))
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]


def test_tensor_scalar_stays_zero_dim():
    t = Tensor(3.5)
    assert t.shape == ()
    assert t.item() == 3.5


def test_tensor_rejects_nonfinite():
    with pytest.raises(NumericError):
        Tensor(np.array([1.0, np.inf]))
    with pytest.raises(NumericError):
        Tensor(np.array([np.nan]))


def test_item_requires_single_element():
    with pytest.raises(ContractError):
        Tensor(np.zeros(3)).item()


def test_add_sub_mul_div_values():
    a = Tensor(np.array([2.0, 6.0]))
    b = Tensor(np.array([1.0, 3.0]))
    assert np.array_equal(add(a, b).data, [3.0, 9.0])
    assert np.array_equal(sub(a, b).data, [1.0, 3.0])
    assert np.array_equal(mul(a, b).data, [2.0, 18.0])
    assert np.array_equal(div(a, b).data, [2.0, 2.0])


def test_div_by_zero_is_numeric_error():
    with pytest.raises(NumericError):
        div(Tensor(np.ones(2)), Tensor(np.array([1.0, 0.0])))


def test_log_rejects_nonpositive():
    with pytest.raises(NumericError):
        log(Tensor(np.array([1.0, 0.0])))


def test_incompatible_broadcast_is_shape_error():
    with pytest.raises(ShapeError):
        add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def test_broadcast_add_gradients_unbroadcast():
    a = Tensor(rng().normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng(1).normal(size=(1, 4)), requires_grad=True)
    with Tape() as tape:
        loss = tsum(add(a, b))
    tape.backward(loss)
    assert np.array_equal(a.grad, np.ones((3, 4)))
    assert np.array_equal(b.grad, np.full((1, 4), 3.0))


def test_backward_requires_scalar_loss():
    a = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        out = mul_scalar(a, 2.0)
    with pytest.raises(ShapeError):
        tape.backward(out)


def test_backward_without_tape_is_contract_error():
    a = Tensor(np.ones(()), requires_grad=True)
    out = mul_scalar(a, 2.0)  # no tape active
    with pytest.raises(ContractError):
        Tape().backward(out)


def test_tape_single_use():
    a = Tensor(np.ones(()), requires_grad=True)
    with Tape() as tape:
        loss = mul_scalar(a, 3.0)
    tape.backward(loss)
    with pytest.raises(ContractError):
        tape.backward(loss)


def test_gradients_accumulate_across_uses():
    a = Tensor(np.array(2.0), requires_grad=True)
    with Tape() as tape:
        loss = mul(a, a)  # d/da a^2 = 2a
    tape.backward(loss)
    assert a.grad == pytest.approx(4.0)


def test_sigmoid_values_and_saturation():
    x = Tensor(np.array([0.0, 800.0, -800.0]))
    out = sigmoid(x).data
    assert out[0] == 0.5
    assert 0.0 < out[2] < 1e-300 or out[2] == 0.0
    assert out[1] <= 1.0 and np.isfinite(out).all()


def test_sigmoid_gradient_at_zero_is_quarter():
    x = Tensor(np.array(0.0), requires_grad=True)
    with Tape() as tape:
        loss = sigmoid(x)
    tape.backward(loss)
    assert x.grad == pytest.approx(0.25)


def test_clip_bounds_and_gradient_mask():
    x = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
    with Tape() as tape:
        loss = tsum(clip(x, -1.0, 1.0))
    tape.backward(loss)
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def test_relu_forward():
    assert np.array_equal(relu(Tensor(np.array([-1.0, 0.0, 2.0]))).data, [0.0, 0.0, 2.0])


def test_matmul_shapes_and_errors():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 4)))
    assert matmul(a, b).shape == (2, 4)
    assert matmul(a, Tensor(np.ones(3))).shape == (2,)
    with pytest.raises(ShapeError):  # a 1-D left operand: vector . vector is dot's
        matmul(Tensor(np.ones(2)), a)
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones(3)), Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        matmul(a, Tensor(np.ones((2, 2))))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 2, 2))), a)


def test_dot_requires_matching_vectors():
    with pytest.raises(ShapeError):
        dot(Tensor(np.ones(3)), Tensor(np.ones(4)))


def test_sum_sorted_matches_plain_sum():
    x = rng(2).normal(size=(4, 5))
    out = sum_sorted(Tensor(x), axis=1)
    assert np.allclose(out.data, x.sum(axis=1))


def test_sum_sorted_is_bitwise_permutation_invariant():
    x = rng(3).normal(size=(7, 3))
    base = sum_sorted(Tensor(x), axis=0).data
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(7)
        assert np.array_equal(sum_sorted(Tensor(x[perm]), axis=0).data, base)


def test_concat_and_stack_roundtrip_gradients():
    a = Tensor(rng(4).normal(size=3), requires_grad=True)
    b = Tensor(rng(5).normal(size=2), requires_grad=True)
    probe = Tensor(rng(6).normal(size=5))
    with Tape() as tape:
        loss = dot(concat([a, b]), probe)
    tape.backward(loss)
    assert np.array_equal(a.grad, probe.data[:3])
    assert np.array_equal(b.grad, probe.data[3:])

    c = Tensor(rng(7).normal(size=(2, 2)), requires_grad=True)
    d = Tensor(rng(8).normal(size=(2, 2)), requires_grad=True)
    with Tape() as tape:
        loss = tsum(stack([c, d]))
    tape.backward(loss)
    assert np.array_equal(c.grad, np.ones((2, 2)))
    assert np.array_equal(d.grad, np.ones((2, 2)))


def test_concat_needs_vectors():
    with pytest.raises(ShapeError):
        concat([Tensor(np.ones((2, 2)))])
    with pytest.raises(ContractError):
        concat([])


def test_stack_rejects_mixed_shapes():
    with pytest.raises(ShapeError):
        stack([Tensor(np.ones(2)), Tensor(np.ones(3))])


def test_mean_over_set_value_and_grads():
    a = Tensor(np.array([1.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 5.0]), requires_grad=True)
    with Tape() as tape:
        m = mean_over_set([a, b])
        loss = tsum(m)
    assert np.array_equal(m.data, [2.0, 4.0])
    tape.backward(loss)
    assert np.array_equal(a.grad, [0.5, 0.5])


def test_reshape_and_transpose():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert reshape(x, (3, 2)).shape == (3, 2)
    assert np.array_equal(transpose(x).data, x.data.T)
    with pytest.raises(ShapeError):
        reshape(x, (4, 2))


def test_nonfinite_result_raises():
    big = Tensor(np.array([800.0]))
    with pytest.raises(NumericError):
        exp(big)


def test_glorot_bound():
    w = glorot_uniform((50, 20), fan_in=20, fan_out=50, rng=rng(9))
    bound = np.sqrt(6.0 / 70.0)
    assert w.requires_grad
    assert np.all(np.abs(w.data) <= bound)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_elementwise_chain_gradcheck(seed):
    r = np.random.default_rng(seed)
    a = Tensor(r.uniform(0.2, 2.0, size=(3, 4)), requires_grad=True)
    b = Tensor(r.uniform(0.2, 2.0, size=(3, 4)), requires_grad=True)

    def fn():
        return tsum(mul(log(add(mul(a, b), Tensor(np.full((3, 4), 0.5)))),
                        sigmoid(sub(a, b))))

    assert gradcheck(fn, [a, b]) < 1e-4


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_matmul_div_gradcheck(seed):
    r = np.random.default_rng(seed)
    a = Tensor(r.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(r.normal(size=(4, 2)), requires_grad=True)
    denom = Tensor(r.uniform(1.0, 2.0, size=(3, 2)), requires_grad=True)

    def fn():
        return tsum(div(matmul(a, b), denom))

    assert gradcheck(fn, [a, b, denom]) < 1e-4


def test_sum_sorted_gradcheck():
    x = Tensor(rng(11).normal(size=(4, 3)), requires_grad=True)
    probe = Tensor(rng(12).normal(size=4))

    def fn():
        return dot(sum_sorted(x, axis=1), probe)

    assert gradcheck(fn, [x]) < 1e-4


def test_gradcheck_catches_wrong_gradient():
    # An op with a deliberately wrong backward must be flagged.
    def bad_double(t: Tensor) -> Tensor:
        def bwd(g):
            if t.requires_grad:
                t.accumulate_grad(3.0 * g)  # wrong: forward is 2x
        return _finish("bad_double", t.data * 2.0, (t,), bwd)

    x = Tensor(np.array(1.5), requires_grad=True)
    with pytest.raises(ContractError, match="gradcheck failed"):
        gradcheck(lambda: bad_double(x), [x])
