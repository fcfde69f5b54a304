"""Score/time conditioning and the fully-connected classification head."""

import numpy as np
import pytest

from sdscreen.errors import ContractError
from sdscreen.fusion import (
    bce_loss,
    encode_score,
    fuse_question,
    init_fusion,
    predict_subject,
)
from sdscreen.numerics import Tape, Tensor
from sdscreen.numerics.gradcheck import gradcheck


def test_score_one_hot():
    assert np.array_equal(encode_score(1), [1, 0, 0, 0])
    assert np.array_equal(encode_score(2), [0, 1, 0, 0])
    assert np.array_equal(encode_score(4), [0, 0, 0, 1])
    for bad in (0, 5, -1):
        with pytest.raises(ContractError):
            encode_score(bad)


def test_fused_vector_layout():
    a = Tensor(np.arange(128.0))
    v = fuse_question(a, encode_score(3), time_s=4.5)
    assert v.shape == (133,)
    assert np.array_equal(v.data[:128], np.arange(128.0))
    assert np.array_equal(v.data[128:132], [0, 0, 1, 0])
    assert v.data[132] == 4.5


def test_time_slot_zeroed_when_disabled():
    a = Tensor(np.ones(6))
    with_t = fuse_question(a, encode_score(1), 7.0, use_time=True)
    without = fuse_question(a, encode_score(1), 7.0, use_time=False)
    assert without.data[-1] == 0.0
    assert np.array_equal(with_t.data[:-1], without.data[:-1])


def test_fuse_rejects_bad_time():
    a = Tensor(np.ones(4))
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ContractError):
            fuse_question(a, encode_score(1), bad)


def test_head_dimensions_at_reference_size():
    params = init_fusion(128, (1024, 256), np.random.default_rng(0))
    assert params.input_dim == 20 * 133 == 2660
    assert params.w1.shape == (1024, 2660)
    assert params.w2.shape == (256, 1024)
    assert params.w3.shape == (1, 256)
    names = [n for n, _ in params.named_parameters()]
    assert names == ["fusion.w1", "fusion.b1", "fusion.w2", "fusion.b2",
                     "fusion.w3", "fusion.b3"]
    alt = [n for n, _ in params.named_parameters(prefix="fusion2")]
    assert alt[0] == "fusion2.w1"


def question_vectors(feature_dim, rng):
    return [
        fuse_question(Tensor(rng.normal(size=feature_dim)),
                      encode_score(int(rng.integers(1, 5))),
                      float(rng.uniform(1.0, 9.0)))
        for _ in range(20)
    ]


def test_predict_requires_twenty_questions():
    params = init_fusion(4, (8, 4), np.random.default_rng(1))
    vecs = question_vectors(4, np.random.default_rng(2))
    with pytest.raises(ContractError):
        predict_subject(vecs[:19], params)
    with pytest.raises(ContractError):
        predict_subject(question_vectors(5, np.random.default_rng(3)), params)


def test_zero_parameters_give_even_odds():
    params = init_fusion(4, (8, 4), np.random.default_rng(4))
    for _, p in params.named_parameters():
        p.data[...] = 0.0
    pred = predict_subject(question_vectors(4, np.random.default_rng(5)), params)
    assert pred.out.item() == 0.0
    assert pred.p.item() == 0.5


def test_head_matches_manual_forward():
    rng = np.random.default_rng(6)
    params = init_fusion(3, (5, 4), rng)
    vecs = question_vectors(3, rng)
    pred = predict_subject(vecs, params)
    x = np.concatenate([v.data for v in vecs])
    h = np.maximum(params.w1.data @ x + params.b1.data, 0.0)
    h = np.maximum(params.w2.data @ h + params.b2.data, 0.0)
    out = (params.w3.data @ h + params.b3.data)[0]
    assert pred.out.item() == pytest.approx(out, rel=1e-15)
    assert pred.p.item() == pytest.approx(1.0 / (1.0 + np.exp(-out)), rel=1e-15)


def test_bce_analytic_values():
    assert bce_loss(Tensor(np.array(0.5)), 1).item() == pytest.approx(np.log(2.0))
    assert bce_loss(Tensor(np.array(0.5)), 0).item() == pytest.approx(np.log(2.0))
    assert bce_loss(Tensor(np.array(1.0)), 1).item() == pytest.approx(
        -np.log(1.0 - 1e-12), abs=1e-15)
    # Clamping keeps the loss finite at the endpoints.
    assert np.isfinite(bce_loss(Tensor(np.array(0.0)), 1).item())
    with pytest.raises(ContractError):
        bce_loss(Tensor(np.array(0.5)), 2)


def test_bce_gradient_is_p_minus_label():
    # d(bce)/d(out) through the sigmoid must equal p - y.
    for label, out_val in [(1, 0.3), (0, -0.7), (1, -2.0)]:
        out = Tensor(np.array(out_val), requires_grad=True)
        with Tape() as tape:
            from sdscreen.numerics import sigmoid

            p = sigmoid(out)
            loss = bce_loss(p, label)
        tape.backward(loss)
        expect = 1.0 / (1.0 + np.exp(-out_val)) - label
        assert out.grad == pytest.approx(expect, rel=1e-12)


def test_loss_monotone_in_probability():
    probs = np.linspace(0.01, 0.99, 25)
    losses_pos = [bce_loss(Tensor(np.array(p)), 1).item() for p in probs]
    losses_neg = [bce_loss(Tensor(np.array(p)), 0).item() for p in probs]
    assert all(a > b for a, b in zip(losses_pos, losses_pos[1:]))
    assert all(a < b for a, b in zip(losses_neg, losses_neg[1:]))


def test_head_gradcheck():
    rng = np.random.default_rng(7)
    params = init_fusion(4, (8, 4), rng)
    vecs = question_vectors(4, rng)
    plist = [p for _, p in params.named_parameters()]

    def fn():
        return bce_loss(predict_subject(vecs, params).p, 1)

    assert gradcheck(fn, plist) < 1e-4
