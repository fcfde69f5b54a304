"""Clip recomputation: a recomputed clip is one tape entry, re-encoded in backward.

``encode_question_clips`` recomputes the clips of plans whose taped
activations exceed ``encoder3d.RECOMPUTE_BYTES``. These tests lower that
threshold to force recomputation at desk geometry and compare against the
plain tape, bit for bit.
"""

import threading
import weakref

import numpy as np
import pytest

from sdscreen import encoder3d, model, trainer
from sdscreen.clipper import segment
from sdscreen.encoder3d import build_plan, encode_question_clips, init_encoder
from sdscreen.errors import ShapeError
from sdscreen.fusion import bce_loss
from sdscreen.numerics import (
    Tape,
    Tensor,
    add,
    dot,
    mean_over_set,
    mul,
    mul_scalar,
    recomputed,
    stack,
    sum_sorted,
    tensor,
)
from sdscreen.synth import SynthConfig, generate

CFG = model.ModelConfig(input_hw=12, clip_len=4, base_channels=2, feature_dim=4,
                        hidden=(8, 4), blocks=2, sigma=4.0, init_seed=5)


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    data = generate(SynthConfig(n_subjects=4, fps=2, height=12, width=12,
                                disagreement_rate=0.0, time_median_s=3.0,
                                time_min_s=2.0, time_max_s=5.0, clip_len=4, seed=11),
                    tmp_path_factory.mktemp("recompute"))
    videos = {s.subject_id: model.load_subject_video(data, s) for s in data.subjects}
    assert max(len(segment(f, CFG.clip_len)) for v in videos.values() for f in v.frames) >= 3
    return data.subjects[:3], videos


def batch_step(cfg, subjects, videos):
    """One taped batch step: (loss bytes, tape length, every parameter's grad bytes)."""
    params = model.init_model(cfg)
    named = model.named_parameters(params)
    trainer.zero_grads(named)
    with Tape() as tape:
        loss = mean_over_set([
            bce_loss(model.subject_forward(params, s, videos[s.subject_id]).p, s.label)
            for s in subjects])
    entries = len(tape)
    tape.backward(loss)
    grads = {n: None if t.grad is None else t.grad.tobytes() for n, t in named}
    return loss.data.tobytes(), entries, grads


def test_desk_and_reference_plans_sit_on_either_side_of_the_threshold():
    assert build_plan(110).taped_bytes > encoder3d.RECOMPUTE_BYTES  # about 32 MB
    assert build_plan(22, base_channels=2, feature_dim=16).taped_bytes < encoder3d.RECOMPUTE_BYTES


@pytest.mark.parametrize("mode", model.MODES)
def test_recomputed_batch_gradients_equal_the_plain_tape(mode, batch, monkeypatch):
    subjects, videos = batch
    cfg = model.ModelConfig(**{**CFG.__dict__, "mode": mode})
    plain = batch_step(cfg, subjects, videos)
    monkeypatch.setattr(encoder3d, "RECOMPUTE_BYTES", 0)
    forced = batch_step(cfg, subjects, videos)
    assert forced[0] == plain[0]
    assert forced[2] == plain[2]
    if cfg.needs_video:
        assert any(g is not None for n, g in forced[2].items() if n.startswith("enc."))
        assert forced[1] < plain[1]
    else:
        assert forced[1] == plain[1]


def question_tapes(n_clips, monkeypatch):
    """Encode one 12x12 question of ``n_clips`` clips with recomputation forced
    and replay it; returns the length of every tape replayed, the outer first."""
    params = init_encoder(build_plan(12, clip_len=4, base_channels=2, feature_dim=4),
                          np.random.default_rng(3))
    frames = np.random.default_rng(n_clips).integers(0, 256, (2 * n_clips + 2, 12, 12), np.uint8)
    lengths = []
    replay = Tape.backward

    def spy(tape, loss):
        lengths.append(len(tape))
        return replay(tape, loss)

    with monkeypatch.context() as patch:
        patch.setattr(encoder3d, "RECOMPUTE_BYTES", 0)
        patch.setattr(Tape, "backward", spy)
        with Tape() as tape:
            [(feats, _)] = encode_question_clips([segment(frames, 4)], params)
            stacked = stack(feats)
            loss = dot(sum_sorted(mul(stacked, stacked), axis=0), Tensor(np.ones(4)))
        tape.backward(loss)
    assert all(t.grad is not None for _, t in params.named_parameters())
    return lengths


def test_tape_holds_one_entry_per_clip_and_replays_one_clip_at_a_time(monkeypatch):
    short = question_tapes(2, monkeypatch)
    long = question_tapes(12, monkeypatch)
    # The outer tape: one entry per clip, plus the stack, square, sum and dot.
    assert short[0] == 2 + 4 and long[0] == 12 + 4
    # One local tape per clip, each as long as one clip's ops: the longest
    # tape does not grow with the clip count.
    assert len(short) == 1 + 2 and len(long) == 1 + 12
    per_clip = set(short[1:]) | set(long[1:])
    assert len(per_clip) == 1 and per_clip.pop() > 1


def test_recomputed_holds_its_arguments_and_gives_plain_gradients():
    x = Tensor(np.array([1.5, -2.0, 0.25]), requires_grad=True)
    calls = []

    def cube(t):
        calls.append(t)
        return mul(mul(t, t), t)

    with Tape() as tape:
        [out] = recomputed(cube, [x])
        loss = dot(out, Tensor(np.array([1.0, -3.0, 2.0])))
    assert len(tape) == 2  # the recomputed entry and the dot
    tape.backward(loss)
    assert len(calls) == 2  # once forward, once in backward
    want = 3.0 * x.data ** 2 * np.array([1.0, -3.0, 2.0])
    assert np.array_equal(x.grad, want)

    [untaped] = recomputed(cube, [x])  # with no tape active it is a plain map
    assert np.array_equal(untaped.data, x.data ** 3)


def test_backward_takes_a_seed_gradient_for_a_non_scalar_output():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape() as tape:
        out = mul_scalar(x, 3.0)
    out.grad = np.array([0.5, -1.0])
    tape.backward(out)
    assert np.array_equal(x.grad, [1.5, -3.0])

    with Tape() as tape:
        out = mul_scalar(x, 3.0)
    out.grad = np.ones(3)
    with pytest.raises(ShapeError, match="seed"):
        tape.backward(out)


def test_first_gradient_contribution_matches_zeros_plus_contribution():
    contribution = np.array([-0.0, 0.0, -1.5, 2.0])
    t = Tensor(np.ones(4), requires_grad=True)
    t.accumulate_grad(contribution)
    assert t.grad.tobytes() == (np.zeros(4) + contribution).tobytes()
    assert t.grad is not contribution and not np.shares_memory(t.grad, contribution)
    scalar = Tensor(np.array(2.0), requires_grad=True)
    scalar.accumulate_grad(np.array(-0.0))
    assert isinstance(scalar.grad, np.ndarray) and scalar.grad.shape == ()
    assert scalar.grad.tobytes() == np.array(0.0).tobytes()


def cube(t):
    return mul(mul(t, t), t)


def times_square(t, u):
    return mul(mul(t, t), u)


def plain_map(fn, items, *shared):
    return [fn(item, *shared) for item in items]


def chained_gradients(record):
    """x's and y's gradients through two calls of ``record``, the second of
    which maps over the first's second output, so that output gets its
    gradient only when the second call's entry replays."""
    x = Tensor(np.array([1.5, -2.0, 0.25]), requires_grad=True)
    y = Tensor(np.array([0.5, 3.0, -1.0]), requires_grad=True)
    with Tape() as tape:
        a, b = record(cube, [x, y])
        [c] = record(times_square, [b], x)
        loss = dot(add(a, c), Tensor(np.array([1.0, -3.0, 2.0])))
    tape.backward(loss)
    return x.grad.tobytes(), y.grad.tobytes()


def test_chained_calls_give_the_plain_gradients_and_stop_their_threads(monkeypatch):
    plain = chained_gradients(plain_map)
    monkeypatch.setattr(tensor, "_usable_cores", lambda: 3)
    baseline = threading.active_count()
    assert chained_gradients(recomputed) == plain
    assert threading.active_count() == baseline


def test_an_item_is_let_go_once_its_entry_is_rebuilt(monkeypatch):
    """A paper-length subject's clips hold about 60 MB of frames: each item
    is freed once its entry is rebuilt, not when the whole call has replayed."""
    monkeypatch.setattr(tensor, "_usable_cores", lambda: 3)
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    refs, alive, lock = {}, [], threading.Lock()

    def scaled(item, weight):
        if tensor._active_tape() is None:  # the untaped forward, on the pool
            with lock:
                refs[int(item[0])] = weakref.ref(item)
        else:  # a rebuild
            alive.append((int(item[0]), sorted(k for k, ref in refs.items() if ref() is not None)))
        return mul(Tensor(item.copy()), weight)  # the local tape holds a copy

    with Tape() as tape:
        outs = recomputed(scaled, (np.full(2, float(k)) for k in range(4)), w)
        loss = dot(add(add(outs[0], outs[1]), add(outs[2], outs[3])), Tensor(np.ones(2)))
    tape.backward(loss)
    assert alive == [(3, [0, 1, 2, 3]), (2, [0, 1, 2]), (1, [0, 1]), (0, [0])]
