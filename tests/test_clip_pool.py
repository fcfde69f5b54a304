"""The pooled clip encode: a recomputed plan encodes a subject's clips on a
thread pool and records them on the calling thread's tape, in clip order;
in backward one worker rebuilds the next clip's local tape while the calling
thread replays the current one.

``RECOMPUTE_BYTES = 0`` sends the 12x12 desk plan down the pooled path, and
more usable cores than the box has make the pool hold several workers.
"""

import sys
import threading
import time

import numpy as np
import pytest

from sdscreen import encoder3d, model, trainer
from sdscreen.cli import main
from sdscreen.clipper import segment
from sdscreen.errors import NumericError
from sdscreen.fusion import bce_loss
from sdscreen.numerics import Tape, Tensor, add, dot, mean_over_set, mul, tensor
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
    bytes, every parameter's grad bytes, threads that encoded a clip in
    forward, threads that rebuilt one in backward)."""
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
        threads.clear()
        tape.backward(loss)
    grads = {n: t.grad.tobytes() for n, t in named}
    return features, loss.data.tobytes(), grads, threads_forward, threads


def test_pooled_batch_features_and_gradients_equal_the_serial_path(data, monkeypatch):
    serial = taped_batch(data, monkeypatch)
    assert serial[3] == {threading.get_ident()}
    monkeypatch.setattr(encoder3d, "RECOMPUTE_BYTES", 0)
    monkeypatch.setattr(tensor, "_usable_cores", lambda: 3)  # more workers than cores
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


def test_prefetched_replay_equals_the_serial_replay(data, monkeypatch):
    """The prefetching replay gives the plain tape's loss and gradients on one
    usable core as on three: the prefetch worker runs whatever the count."""
    plain = taped_batch(data, monkeypatch)
    monkeypatch.setattr(encoder3d, "RECOMPUTE_BYTES", 0)
    baseline = threading.active_count()
    interval = sys.getswitchinterval()
    for cores in (1, 3):
        monkeypatch.setattr(tensor, "_usable_cores", lambda: cores)
        sys.setswitchinterval(1e-6)
        try:
            prefetched = taped_batch(data, monkeypatch)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == baseline
        # Each subject's first replayed clip is rebuilt on the calling thread,
        # the others on the prefetch worker.
        assert threading.get_ident() in prefetched[4] and len(prefetched[4]) > 1
        assert prefetched[1] == plain[1]
        assert prefetched[2] == plain[2]


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
    monkeypatch.setattr(tensor, "_usable_cores", lambda: 3)
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


def failing_in_a_prefetched_rebuild(monkeypatch):
    """Make the first clip rebuilt by the prefetch worker raise: a rebuild
    runs under a local tape, and off the calling thread only the prefetch
    worker rebuilds."""
    encode = encoder3d._encode_frames
    caller = threading.get_ident()

    def fail(clip, enc):
        if threading.get_ident() != caller and tensor._active_tape() is not None:
            raise NumericError("conv3d produced non-finite values")
        return encode(clip, enc)

    monkeypatch.setattr(encoder3d, "RECOMPUTE_BYTES", 0)
    monkeypatch.setattr(tensor, "_usable_cores", lambda: 3)
    monkeypatch.setattr(encoder3d, "_encode_frames", fail)


def test_an_error_in_a_prefetched_rebuild_reaches_the_caller(data, monkeypatch):
    baseline = threading.active_count()
    failing_in_a_prefetched_rebuild(monkeypatch)
    subject = data.subjects[0]
    params = model.init_model(CFG)
    with Tape() as tape:
        loss = bce_loss(model.subject_forward(params, subject,
                                              model.load_subject_video(data, subject)).p,
                        subject.label)
    with pytest.raises(NumericError, match="non-finite"):
        tape.backward(loss)
    assert threading.active_count() == baseline


def test_an_error_in_a_prefetched_rebuild_exits_three(data, monkeypatch, tmp_path, capsys):
    baseline = threading.active_count()
    failing_in_a_prefetched_rebuild(monkeypatch)
    flags = [f"{k}={v}" for k, v in (("input_hw", 12), ("clip_len", 4), ("base_channels", 2),
                                      ("feature_dim", 4), ("hidden1", 8), ("hidden2", 4),
                                      ("blocks", 2), ("epochs", 1), ("folds", 2))]
    argv = ["train", "--data", str(data.root), "--out", str(tmp_path / "run"), "--fold", "0"]
    assert main(argv + [a for flag in flags for a in ("--set", flag)]) == 3
    assert capsys.readouterr().err == "error: conv3d produced non-finite values\n"
    assert threading.active_count() == baseline


def test_an_error_in_a_replay_during_a_prefetched_rebuild_reaches_the_caller(data,
                                                                            monkeypatch):
    """The first clip's local replay raises on the calling thread while the
    worker is inside the rebuild of the next clip: the error reaches the
    caller, and the worker finishes that rebuild and stops."""
    encode = encoder3d._encode_frames
    caller = threading.get_ident()
    rebuilding, raised, finished = threading.Event(), threading.Event(), threading.Event()

    def fail_in_replay(g):
        assert rebuilding.wait(timeout=10)
        raised.set()
        raise NumericError("replay produced non-finite values")

    def spy(clip, enc):
        out = encode(clip, enc)
        if tensor._active_tape() is None:  # the untaped forward
            return out
        if threading.get_ident() != caller:  # the prefetched rebuild
            rebuilding.set()
            assert raised.wait(timeout=10)
            time.sleep(0.2)  # still rebuilding as the error leaves the replay
            finished.set()
            return out
        failing = Tensor(out.data, requires_grad=True)
        tensor._active_tape().record(failing, fail_in_replay)
        return failing

    baseline = threading.active_count()
    monkeypatch.setattr(encoder3d, "RECOMPUTE_BYTES", 0)
    monkeypatch.setattr(tensor, "_usable_cores", lambda: 3)
    monkeypatch.setattr(encoder3d, "_encode_frames", spy)
    subject = data.subjects[0]
    with Tape() as tape:
        loss = bce_loss(model.subject_forward(model.init_model(CFG), subject,
                                              model.load_subject_video(data, subject)).p,
                        subject.label)
    with pytest.raises(NumericError, match="replay produced non-finite"):
        tape.backward(loss)
    assert finished.is_set()
    assert threading.active_count() == baseline


def test_a_clip_without_gradient_is_neither_rebuilt_nor_left_on_a_worker(monkeypatch):
    """Clips 1, 3 and 4 of five feed nothing: backward rebuilds clip 2 on the
    calling thread, then clip 0 on the worker, and stops the worker."""
    params = encoder3d.init_encoder(encoder3d.build_plan(12, clip_len=4, base_channels=2,
                                                         feature_dim=4),
                                    np.random.default_rng(3))
    question = segment(np.random.default_rng(5).integers(0, 256, (12, 12, 12), np.uint8), 4)
    assert len(question) == 5
    probe = Tensor(np.random.default_rng(6).normal(size=4))

    def step():
        for _, t in params.named_parameters():
            t.zero_grad()
        with Tape() as tape:
            [(feats, _)] = encoder3d.encode_question_clips([question], params)
            loss = add(dot(feats[0], probe), dot(mul(feats[2], feats[2]), probe))
        tape.backward(loss)
        return {n: t.grad.tobytes() for n, t in params.named_parameters()}

    plain = step()
    encode, rebuilt = encoder3d._encode_frames, []

    def spy(clip, enc):
        if tensor._active_tape() is not None:  # a rebuild, not the untaped forward
            index = [q.ctypes.data for q in question].index(clip.ctypes.data)
            rebuilt.append((index, threading.get_ident()))
        return encode(clip, enc)

    baseline = threading.active_count()
    monkeypatch.setattr(encoder3d, "RECOMPUTE_BYTES", 0)
    monkeypatch.setattr(tensor, "_usable_cores", lambda: 3)
    monkeypatch.setattr(encoder3d, "_encode_frames", spy)
    assert step() == plain
    assert [i for i, _ in rebuilt] == [2, 0]
    assert rebuilt[0][1] == threading.get_ident() != rebuilt[1][1]
    assert threading.active_count() == baseline
