"""Adam update rule, fold splitting, the epoch loop, resume, determinism."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from sdscreen import trainer
from sdscreen.errors import ConfigError, NumericError
from sdscreen.metrics import accuracy, confusion
from sdscreen.model import (
    ModelConfig,
    SubjectVideo,
    init_model,
    load_checkpoint,
    load_subject_video,
    save_checkpoint,
    subject_forward,
)
from sdscreen.numerics import Tensor
from sdscreen.synth import SynthConfig, generate
from sdscreen.trainer import (
    HistoryRow,
    TrainConfig,
    adam_step,
    evaluate_metrics,
    evaluate_probs,
    fold_subject_sets,
    history_to_csv,
    init_adam,
    kfold_split,
    load_videos,
    run_fold,
    train,
)

LR = 0.1


def one_param(value=0.0):
    p = Tensor(np.array([value, value]), requires_grad=True)
    return [("w", p)], p


def test_adam_first_step_hand_trace():
    named, p = one_param()
    state = init_adam(named, LR)
    p.grad = np.array([1.0, -1.0])
    adam_step(named, state)
    # m = 0.1*g, v = 0.001*g^2; bias correction makes m_hat = g, v_hat = g^2,
    # so the step is lr * sign(g) / (1 + eps).
    assert state.t == 1
    assert np.allclose(state.m["w"], [0.1, -0.1], atol=0)
    assert np.allclose(state.v["w"], [0.001, 0.001], atol=0)
    expect = LR * 1.0 / (1.0 + 1e-8)
    assert p.data[0] == pytest.approx(-expect, rel=1e-12)
    assert p.data[1] == pytest.approx(expect, rel=1e-12)


def test_adam_second_step_hand_trace():
    named, p = one_param()
    state = init_adam(named, LR)
    p.grad = np.array([1.0, -1.0])
    adam_step(named, state)
    first = p.data.copy()
    p.grad = np.array([-1.0, 1.0])  # sign flip
    adam_step(named, state)
    # m2 = 0.9*0.1 - 0.1 = -0.01; v2 = 0.999*0.001 + 0.001 = 0.001999.
    # m_hat = -0.01/0.19, v_hat = 1, so the step reverses with magnitude
    # lr * 0.0526315...
    assert np.allclose(state.m["w"], [-0.01, 0.01], atol=1e-18)
    assert np.allclose(state.v["w"], [0.001999, 0.001999], atol=1e-18)
    m_hat = -0.01 / (1.0 - 0.9 ** 2)
    v_hat = 0.001999 / (1.0 - 0.999 ** 2)
    step = LR * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert p.data[0] == pytest.approx(first[0] - step, rel=1e-12)
    assert p.data[1] == pytest.approx(first[1] + step, rel=1e-12)


def test_adam_missing_gradient_counts_as_zero():
    named, p = one_param(3.0)
    state = init_adam(named, LR)
    adam_step(named, state)  # never backpropagated
    assert np.array_equal(p.data, [3.0, 3.0])
    assert state.t == 1


def test_adam_zero_lr_freezes_parameters():
    named, p = one_param(1.0)
    state = init_adam(named, 0.0)
    p.grad = np.array([5.0, -5.0])
    adam_step(named, state)
    assert np.array_equal(p.data, [1.0, 1.0])


def test_adam_rejects_nonfinite_gradient_naming_parameter():
    named, p = one_param()
    state = init_adam(named, LR)
    p.grad = np.array([np.nan, 0.0])
    with pytest.raises(NumericError, match="'w'"):
        adam_step(named, state)


def test_adam_rejects_unknown_parameter():
    named, _ = one_param()
    state = init_adam(named, LR)
    other = Tensor(np.zeros(1), requires_grad=True)
    with pytest.raises(ConfigError):
        adam_step([("mystery", other)], state)


def test_kfold_sizes_disjoint_cover_deterministic():
    ids = [f"s{i:04d}" for i in range(200)]
    folds = kfold_split(ids, k=5, seed=0)
    assert [len(f) for f in folds] == [40] * 5
    flat = [i for f in folds for i in f]
    assert sorted(flat) == sorted(ids)
    assert len(set(flat)) == 200
    assert kfold_split(ids, k=5, seed=0) == folds
    assert kfold_split(ids, k=5, seed=1) != folds


def test_kfold_uneven_sizes():
    folds = kfold_split([f"s{i}" for i in range(7)], k=3, seed=2)
    assert sorted(len(f) for f in folds) == [2, 2, 3]


def test_kfold_bad_counts():
    with pytest.raises(ConfigError):
        kfold_split(["a", "b"], k=1)
    with pytest.raises(ConfigError):
        kfold_split(["a", "b"], k=3)


def test_history_csv_format():
    rows = [HistoryRow(1, 0.6931471805599453, 0.5, float("nan")),
            HistoryRow(2, 0.25, 1.0, 0.875)]
    text = history_to_csv(rows)
    assert text.splitlines()[0] == "epoch,loss,train_acc,val_acc"
    assert text.splitlines()[1] == "1,0.6931471805599453,0.5,nan"
    assert text.splitlines()[2] == "2,0.25,1.0,0.875"
    assert text.endswith("\n")


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(threshold=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(folds=1)


# ---------------------------------------------------------------------------
# end-to-end loop on a tiny generated dataset


TINY_SYNTH = SynthConfig(n_subjects=8, fps=1, height=12, width=12,
                         disagreement_rate=0.25, time_median_s=3.0,
                         time_min_s=2.0, time_max_s=5.0, clip_len=4, seed=0)
TINY_MODEL = ModelConfig(input_hw=12, clip_len=4, base_channels=2,
                         feature_dim=4, hidden=(8, 4), blocks=1, sigma=4.0,
                         init_seed=0)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinydata")
    return generate(TINY_SYNTH, root)


def run_training(dataset, epochs, seed=1, resume_state=None, history=None,
                 params=None):
    if params is None:
        params = init_model(TINY_MODEL)
    cfg = TrainConfig(epochs=epochs, batch_size=2, lr=1e-2, seed=seed, folds=4)
    train_subjects = dataset.subjects[:6]
    val_subjects = dataset.subjects[6:]
    state, rows, _ = train(dataset, params, train_subjects, val_subjects, cfg,
                           state=resume_state, history=history)
    return params, state, rows


def test_training_reduces_loss(tiny_dataset):
    _, _, rows = run_training(tiny_dataset, epochs=4)
    assert len(rows) == 4
    assert rows[0].epoch == 1 and rows[-1].epoch == 4
    assert rows[-1].loss < rows[0].loss
    for r in rows:
        assert 0.0 <= r.train_acc <= 1.0
        assert 0.0 <= r.val_acc <= 1.0


def test_training_is_deterministic(tiny_dataset):
    p1, _, rows1 = run_training(tiny_dataset, epochs=2)
    p2, _, rows2 = run_training(tiny_dataset, epochs=2)
    assert history_to_csv(rows1) == history_to_csv(rows2)
    from sdscreen.model import named_parameters

    for (n1, t1), (n2, t2) in zip(named_parameters(p1), named_parameters(p2)):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data)


def test_resumed_run_matches_uninterrupted(tiny_dataset):
    _, _, straight = run_training(tiny_dataset, epochs=4)
    params, state, first = run_training(tiny_dataset, epochs=2)
    _, _, resumed = run_training(tiny_dataset, epochs=4, resume_state=state,
                                 history=first, params=params)
    assert history_to_csv(resumed) == history_to_csv(straight)
    assert [r.epoch for r in first] == [1, 2]  # train copies the rows it is given


def test_run_fold_writes_artifacts_and_resumes(tiny_dataset, tmp_path):
    cfg2 = TrainConfig(epochs=2, batch_size=2, lr=1e-2, seed=5, folds=4)
    cfg4 = TrainConfig(epochs=4, batch_size=2, lr=1e-2, seed=5, folds=4)

    straight_dir = tmp_path / "straight"
    rows_straight, metrics_straight = run_fold(
        tiny_dataset, TINY_MODEL, cfg4, 0, straight_dir)
    assert (straight_dir / "fold0.ckpt").is_file()
    assert (straight_dir / "fold0_history.csv").is_file()
    assert len(rows_straight) == 4
    assert set(metrics_straight) == {"accuracy", "sensitivity", "specificity", "auc"}

    resumed_dir = tmp_path / "resumed"
    run_fold(tiny_dataset, TINY_MODEL, cfg2, 0, resumed_dir)
    rows_resumed, metrics_resumed = run_fold(
        tiny_dataset, TINY_MODEL, cfg4, 0, resumed_dir, resume=True)
    assert history_to_csv(rows_resumed) == history_to_csv(rows_straight)
    assert (resumed_dir / "fold0.ckpt").read_bytes() == \
        (straight_dir / "fold0.ckpt").read_bytes()
    np.testing.assert_equal(metrics_resumed, metrics_straight)


def crash_on_epoch_two_save(path, params, m, v, t, history):
    save_checkpoint(path, params, m, v, t, history)
    if len(history) == 2:
        raise KeyboardInterrupt  # the process is killed right after the save


def fail_third_rename(real_replace):
    calls = []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == 3:
            raise OSError("disk full")
        real_replace(src, dst)

    return replace


@pytest.mark.parametrize("crash", ["killed-after-epoch-2-save", "rename-fails-on-epoch-3"])
def test_interrupted_fold_resumes_to_straight_run(tiny_dataset, tmp_path, monkeypatch, crash):
    cfg = TrainConfig(epochs=4, batch_size=2, lr=1e-2, seed=5, folds=4)
    straight = tmp_path / "straight"
    _, metrics_straight = run_fold(tiny_dataset, TINY_MODEL, cfg, 0, straight)

    crashed = tmp_path / "crashed"
    if crash == "killed-after-epoch-2-save":
        monkeypatch.setattr(trainer, "save_checkpoint", crash_on_epoch_two_save)
        raised = KeyboardInterrupt
    else:
        monkeypatch.setattr(os, "replace", fail_third_rename(os.replace))
        raised = OSError
    with pytest.raises(raised):
        run_fold(tiny_dataset, TINY_MODEL, cfg, 0, crashed)
    monkeypatch.undo()
    # Either way the checkpoint on disk is whole and holds epochs 1 and 2.
    _, _, t, history = load_checkpoint(crashed / "fold0.ckpt", init_model(TINY_MODEL))
    assert [r.epoch for r in history] == [1, 2] and t == 2 * 3

    _, metrics = run_fold(tiny_dataset, TINY_MODEL, cfg, 0, crashed, resume=True)
    for name in ("fold0.ckpt", "fold0_history.csv"):
        assert (crashed / name).read_bytes() == (straight / name).read_bytes(), name
    np.testing.assert_equal(metrics, metrics_straight)
    assert not (crashed / "fold0.ckpt.tmp").exists()


def checkpoint_metrics(dataset, out_dir, cfg):
    """Fold metrics recomputed from the weights in the saved checkpoint."""
    params = init_model(TINY_MODEL)
    load_checkpoint(out_dir / "fold0.ckpt", params)
    _, val = fold_subject_sets(dataset, cfg.folds, cfg.seed, 0)
    probs = evaluate_probs(dataset, params, val)
    return evaluate_metrics(probs, np.array([s.label for s in val]), cfg.threshold)


@pytest.mark.parametrize("case", ["trained", "no_epochs", "resumed_finished"])
def test_run_fold_metrics_match_checkpoint(tiny_dataset, tmp_path, monkeypatch, case):
    epochs = 0 if case == "no_epochs" else 2
    cfg = TrainConfig(epochs=epochs, batch_size=2, lr=1e-2, seed=5, folds=4)
    if case == "resumed_finished":
        run_fold(tiny_dataset, TINY_MODEL, cfg, 0, tmp_path)
    forwards = []

    def counted_forward(*args, **kwargs):
        forwards.append(args[1].subject_id)
        return subject_forward(*args, **kwargs)

    # run_fold reaches subject_forward through the trainer module at call time.
    monkeypatch.setattr(trainer, "subject_forward", counted_forward)
    _, metrics = run_fold(tiny_dataset, TINY_MODEL, cfg, 0, tmp_path,
                          resume=case == "resumed_finished")
    monkeypatch.undo()

    np.testing.assert_equal(metrics, checkpoint_metrics(tiny_dataset, tmp_path, cfg))
    # Each epoch forwards 6 training and 2 validation subjects; the fold's
    # metrics reuse the last epoch's validation unless no epoch ran.
    assert len(forwards) == (2 if case != "trained" else 2 * (6 + 2))


@pytest.mark.parametrize("case", ["trained", "no_epochs", "resumed_finished"])
def test_run_fold_reads_a_video_for_each_forward(tiny_dataset, tmp_path, monkeypatch, case):
    epochs = 0 if case == "no_epochs" else 2
    cfg = TrainConfig(epochs=epochs, batch_size=2, lr=1e-2, seed=5, folds=4)
    if case == "resumed_finished":
        run_fold(tiny_dataset, TINY_MODEL, cfg, 0, tmp_path)
    calls = []

    def counted_load(dataset, subject):
        calls.append(("read", subject.subject_id))
        return load_subject_video(dataset, subject)

    def counted_forward(params, subject, video):
        calls.append(("forward", subject.subject_id))
        return subject_forward(params, subject, video)

    monkeypatch.setattr(trainer, "load_subject_video", counted_load)
    monkeypatch.setattr(trainer, "subject_forward", counted_forward)
    _, metrics = run_fold(tiny_dataset, TINY_MODEL, cfg, 0, tmp_path,
                          resume=case == "resumed_finished")
    monkeypatch.undo()

    np.testing.assert_equal(metrics, checkpoint_metrics(tiny_dataset, tmp_path, cfg))
    # Each forward reads its subject's frames right before it runs: 2 epochs
    # of 6 training and 2 validation subjects, or the 2 validation subjects
    # once for the fold's metrics when no epoch runs.
    forwards = [sid for kind, sid in calls if kind == "forward"]
    assert calls == [(kind, sid) for sid in forwards for kind in ("read", "forward")]
    assert len(forwards) == (2 * (6 + 2) if case == "trained" else 2)


def test_screening_memory_does_not_grow_with_the_subject_count(tmp_path):
    # Every question video has 16 frames of 22x22, so every subject reads the
    # same 155 kB, well above the interpreter's own per-forward allocations.
    data = generate(SynthConfig(n_subjects=8, fps=4, height=22, width=22,
                                disagreement_rate=0.25, time_median_s=4.0,
                                time_min_s=4.0, time_max_s=4.01, clip_len=4, seed=0), tmp_path)
    params = init_model(dataclasses.replace(TINY_MODEL, input_hw=22))
    subject_bytes = sum(f.nbytes for f in load_subject_video(data, data.subjects[0]).frames)
    assert subject_bytes == 20 * 16 * 22 * 22
    evaluate_probs(data, params, data.subjects)  # first-call allocations stay out

    def peak(subjects):
        tracemalloc.start()
        try:
            evaluate_probs(data, params, subjects)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Holding every subject's frames would add 4 subjects' worth from 4 to 8.
    assert peak(data.subjects) - peak(data.subjects[:4]) < subject_bytes


def test_benchmark_video_calls_give_what_subject_forward_takes(tiny_dataset):
    params = init_model(TINY_MODEL)
    subjects = tiny_dataset.subjects[:2]
    videos = load_videos(tiny_dataset, subjects, needs_video=True)
    assert list(videos) == [s.subject_id for s in subjects]
    for s, p in zip(subjects, evaluate_probs(tiny_dataset, params, subjects)):
        frames = load_subject_video(tiny_dataset, s).frames
        assert len(frames) == 20 and all(f.dtype == np.uint8 and f.ndim == 3 for f in frames)
        assert subject_forward(params, s, videos[s.subject_id]).p.item() == p
        assert subject_forward(params, s, SubjectVideo(frames)).p.item() == p
    assert load_videos(tiny_dataset, subjects, needs_video=False) == \
        {s.subject_id: None for s in subjects}


def test_checkpoint_roundtrip_preserves_predictions(tiny_dataset, tmp_path):
    params, state, rows = run_training(tiny_dataset, epochs=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, state.m, state.v, state.t, rows)

    fresh = init_model(TINY_MODEL)
    m, v, t, history = load_checkpoint(path, fresh)
    assert t == state.t and history == rows
    subjects = tiny_dataset.subjects[:3]
    assert np.array_equal(evaluate_probs(tiny_dataset, params, subjects),
                          evaluate_probs(tiny_dataset, fresh, subjects))


def test_history_counts_a_probability_at_the_threshold_as_negative(tiny_dataset):
    train_subjects, val_subjects = fold_subject_sets(tiny_dataset, 2, 0, 0)
    labels = np.array([s.label for s in val_subjects])

    def last_epoch(threshold):
        cfg = TrainConfig(epochs=2, batch_size=2, lr=1e-2, folds=2, threshold=threshold)
        _, rows, probs = train(tiny_dataset, init_model(TINY_MODEL), train_subjects,
                               val_subjects, cfg)
        return rows[-1], probs

    _, probs = last_epoch(0.5)
    at = float(probs[0])
    row, again = last_epoch(at)
    assert np.array_equal(again, probs)  # the threshold does not steer training
    assert row.val_acc == ((probs > at) == labels).mean()
    assert row.val_acc != ((probs >= at) == labels).mean()
    assert row.val_acc == accuracy(confusion(probs, labels, at))


def test_evaluate_metrics_degenerate_slices_are_nan(tiny_dataset):
    report = evaluate_metrics(np.array([0.9, 0.8]), np.array([1, 1]))
    assert report["sensitivity"] == 1.0
    assert np.isnan(report["specificity"])
    assert np.isnan(report["auc"])


def test_fold_subject_sets_partition(tiny_dataset):
    train_s, val_s = fold_subject_sets(tiny_dataset, k=4, seed=0, fold_index=1)
    assert len(train_s) == 6 and len(val_s) == 2
    ids = {s.subject_id for s in train_s} | {s.subject_id for s in val_s}
    assert ids == {s.subject_id for s in tiny_dataset.subjects}
    with pytest.raises(ConfigError):
        fold_subject_sets(tiny_dataset, k=4, seed=0, fold_index=4)
