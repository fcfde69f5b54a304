"""The pooled clip encode: a recomputed plan encodes a subject's clips on a
thread pool and records them on the calling thread's tape, in clip order.

``RECOMPUTE_BYTES = 0`` sends the 12x12 desk plan down the pooled path, and
more usable cores than the box has make the pool hold several workers.
"""

import sys
import threading

import numpy as np
import pytest

from sdscreen import encoder3d, model, trainer
from sdscreen.cli import main
from sdscreen.errors import NumericError
from sdscreen.fusion import bce_loss
from sdscreen.numerics import Tape, Tensor, mean_over_set, mul
from sdscreen.synth import SynthConfig, generate

CFG = model.ModelConfig(input_hw=12, clip_len=4, base_channels=2, feature_dim=4,
                        hidden=(8, 4), blocks=2, sigma=4.0, init_seed=5)
SYNTH = SynthConfig(n_subjects=4, fps=2, height=12, width=12, disagreement_rate=0.0,
                    time_median_s=3.0, time_min_s=2.0, time_max_s=5.0, clip_len=4, seed=11)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    return generate(SYNTH, tmp_path_factory.mktemp("pool") / "data")


def taped_batch(data, monkeypatch):
    """One taped step of three subjects: (every clip feature's bytes, loss
    bytes, every parameter's grad bytes, threads that encoded a clip)."""
    params = model.init_model(CFG)
    named = model.named_parameters(params)
    features, threads = [], set()
    encode, frames = model.encode_question_clips, encoder3d._encode_frames

    def spy_encode(questions, enc):
        encoded = encode(questions, enc)
        features.extend(f.data.tobytes() for feats, _ in encoded for f in feats)
        return encoded

    def spy_frames(clip, enc):
        threads.add(threading.get_ident())
        return frames(clip, enc)

    subjects = data.subjects[:3]
    with monkeypatch.context() as patch:
        patch.setattr(model, "encode_question_clips", spy_encode)
        patch.setattr(encoder3d, "_encode_frames", spy_frames)
        trainer.zero_grads(named)
        with Tape() as tape:
            loss = mean_over_set([
                bce_loss(model.subject_forward(params, s, model.load_subject_video(data, s)).p,
                         s.label)
                for s in subjects])
        threads_forward = set(threads)
        tape.backward(loss)
    grads = {n: t.grad.tobytes() for n, t in named}
    return features, loss.data.tobytes(), grads, threads_forward


def test_pooled_batch_features_and_gradients_equal_the_serial_path(data, monkeypatch):
    serial = taped_batch(data, monkeypatch)
    assert serial[3] == {threading.get_ident()}
    monkeypatch.setattr(encoder3d, "RECOMPUTE_BYTES", 0)
    monkeypatch.setattr(encoder3d, "_usable_cores", lambda: 3)  # more workers than cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        pooled = taped_batch(data, monkeypatch)
    finally:
        sys.setswitchinterval(interval)
    assert threading.get_ident() not in pooled[3]  # every forward clip ran on a worker
    assert pooled[0] == serial[0]
    assert pooled[1] == serial[1]
    assert pooled[2] == serial[2]


def test_a_thread_records_nothing_on_the_tape_of_another():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    made = []
    with Tape() as tape:
        worker = threading.Thread(target=lambda: made.append(mul(x, x)))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert len(tape) == 0
        mul(x, x)
        assert len(tape) == 1
    assert made[0].requires_grad and made[0]._tape is None


def failing_on_third_clip(monkeypatch):
    encode, calls, lock = encoder3d._encode_frames, [], threading.Lock()

    def fail(clip, enc):
        with lock:
            calls.append(clip)
            third = len(calls) == 3
        if third:
            raise NumericError("conv3d produced non-finite values")
        return encode(clip, enc)

    monkeypatch.setattr(encoder3d, "RECOMPUTE_BYTES", 0)
    monkeypatch.setattr(encoder3d, "_usable_cores", lambda: 3)
    monkeypatch.setattr(encoder3d, "_encode_frames", fail)


def test_an_error_in_one_pooled_clip_reaches_the_caller(data, monkeypatch):
    baseline = threading.active_count()
    failing_on_third_clip(monkeypatch)
    subject = data.subjects[0]
    with pytest.raises(NumericError, match="non-finite"):
        model.subject_forward(model.init_model(CFG), subject,
                              model.load_subject_video(data, subject))
    assert threading.active_count() == baseline


def test_an_error_in_one_pooled_clip_exits_three(data, monkeypatch, tmp_path, capsys):
    baseline = threading.active_count()
    failing_on_third_clip(monkeypatch)
    flags = [f"{k}={v}" for k, v in (("input_hw", 12), ("clip_len", 4), ("base_channels", 2),
                                      ("feature_dim", 4), ("hidden1", 8), ("hidden2", 4),
                                      ("blocks", 2), ("epochs", 1), ("folds", 2))]
    argv = ["train", "--data", str(data.root), "--out", str(tmp_path / "run"), "--fold", "0"]
    assert main(argv + [a for flag in flags for a in ("--set", flag)]) == 3
    assert "error: conv3d produced non-finite values" in capsys.readouterr().err
    assert threading.active_count() == baseline
