"""Local 3-D encoder: stage planning, shape chain, determinism, gradients."""

import numpy as np
import pytest

from sdscreen.clipper import segment
from sdscreen.encoder3d import (
    build_plan,
    encode_clip,
    encode_question_clips,
    init_encoder,
    shape_chain,
)
from sdscreen.errors import ConfigError, ShapeError
from sdscreen.numerics import Tape, Tensor, dot
from sdscreen.numerics.gradcheck import gradcheck


FULL_CHAIN = [
    (108, 108, 10, 16),
    (54, 54, 10, 16),
    (52, 52, 10, 32),
    (26, 26, 10, 32),
    (24, 24, 10, 64),
    (12, 12, 10, 64),
    (10, 10, 10, 128),
    (5, 5, 5, 128),
    (1, 1, 1, 256),
    (256,),
    (128,),
]


def test_full_resolution_shape_chain():
    plan = build_plan(110, clip_len=10, base_channels=16, feature_dim=128)
    assert shape_chain(plan) == FULL_CHAIN
    assert plan.stage_channels == (16, 32, 64, 128)
    assert plan.final_kernel == (5, 5, 5)
    assert plan.final_channels == 256


def test_reduced_plans():
    plan = build_plan(22, clip_len=10, base_channels=2, feature_dim=16)
    assert plan.stage_channels == (2, 4, 8)
    assert shape_chain(plan)[-3:] == [(1, 1, 1, 16), (16,), (16,)]
    tiny = build_plan(12, clip_len=4, base_channels=2, feature_dim=4)
    assert tiny.final_kernel == (5, 5, 2)


def test_bad_geometry_rejected():
    with pytest.raises(ConfigError):
        build_plan(7)
    with pytest.raises(ConfigError):
        build_plan(110, clip_len=7)


def test_encode_clip_shape_trace_matches_plan():
    plan = build_plan(20, clip_len=10, base_channels=2, feature_dim=8)
    rng = np.random.default_rng(0)
    params = init_encoder(plan, rng)
    x = Tensor(rng.uniform(size=(20, 20, 10, 1)))
    trace = []
    feat = encode_clip(x, params, shapes=trace)
    assert feat.shape == (8,)
    assert trace == shape_chain(plan)


def test_encode_clip_rejects_wrong_input():
    plan = build_plan(20, clip_len=10, base_channels=2, feature_dim=8)
    params = init_encoder(plan, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        encode_clip(Tensor(np.zeros((22, 22, 10, 1))), params)
    with pytest.raises(ShapeError):
        encode_clip(Tensor(np.zeros((20, 20, 8, 1))), params)


def test_zero_input_gives_zero_feature_with_zero_bias():
    plan = build_plan(20, clip_len=10, base_channels=2, feature_dim=8)
    params = init_encoder(plan, np.random.default_rng(1))
    feat = encode_clip(Tensor(np.zeros((20, 20, 10, 1))), params)
    assert np.array_equal(feat.data, np.zeros(8))


def test_encoding_is_deterministic_and_params_shared():
    plan = build_plan(20, clip_len=10, base_channels=2, feature_dim=8)
    rng = np.random.default_rng(2)
    params = init_encoder(plan, rng)
    frames = np.random.default_rng(3).integers(0, 256, (25, 20, 20)).astype(np.uint8)
    clips = segment(frames)
    [(feats1, pos1)] = encode_question_clips([clips], params)
    [(feats2, pos2)] = encode_question_clips([clips], params)
    assert pos1 == pos2 == list(range(1, len(clips) + 1))
    for a, b in zip(feats1, feats2):
        assert np.array_equal(a.data, b.data)
    # Same parameters applied to identical clips give identical features.
    dup = segment(np.concatenate([frames[:10], frames[:10]]))
    [(feats, _)] = encode_question_clips([dup[[0, 2]]], params)
    assert np.array_equal(feats[0].data, feats[1].data)


@pytest.mark.parametrize("n", [10, 14, 15, 37])
def test_question_features_match_contiguous_clip_copies(n):
    # Encoding the strided clip view gives the same bits as encoding a
    # contiguous (H, W, T) copy of each window.
    plan = build_plan(12, clip_len=10, base_channels=2, feature_dim=4)
    params = init_encoder(plan, np.random.default_rng(5))
    frames = np.random.default_rng(n).integers(0, 256, (n, 12, 12)).astype(np.uint8)
    [(feats, positions)] = encode_question_clips([segment(frames)], params)
    scaled = frames.astype(np.float64) / 255.0
    assert positions == list(range(1, len(feats) + 1))
    for k, feat in enumerate(feats):
        window = np.ascontiguousarray(scaled[5 * k:5 * k + 10].transpose(1, 2, 0))
        want = encode_clip(Tensor(window[..., None]), params)
        assert feat.data.tobytes() == want.data.tobytes()


def test_named_parameters_order_stable():
    plan = build_plan(22, clip_len=10, base_channels=2, feature_dim=16)
    params = init_encoder(plan, np.random.default_rng(4))
    names = [n for n, _ in params.named_parameters()]
    assert names[0] == "enc.conv0.kernel"
    assert names[-2:] == ["enc.fc.weight", "enc.fc.bias"]
    assert len(names) == len(set(names))


def test_encoder_gradcheck_reduced():
    plan = build_plan(12, clip_len=4, base_channels=2, feature_dim=4)
    rng = np.random.default_rng(5)
    params = init_encoder(plan, rng)
    x = Tensor(rng.uniform(size=(12, 12, 4, 1)), requires_grad=True)
    probe = Tensor(rng.normal(size=4))
    plist = [x] + [p for _, p in params.named_parameters()]

    def fn():
        return dot(encode_clip(x, params), probe)

    assert gradcheck(fn, plist) < 1e-4


def test_encoder_backward_touches_all_parameters():
    plan = build_plan(12, clip_len=4, base_channels=2, feature_dim=4)
    rng = np.random.default_rng(6)
    params = init_encoder(plan, rng)
    x = Tensor(rng.uniform(0.1, 0.9, size=(12, 12, 4, 1)))
    probe = Tensor(rng.normal(size=4))
    with Tape() as tape:
        loss = dot(encode_clip(x, params), probe)
    tape.backward(loss)
    for name, p in params.named_parameters():
        assert p.grad is not None, name
        if name.endswith("kernel") or name.endswith("weight"):
            assert np.any(p.grad != 0.0), name
