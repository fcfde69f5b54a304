"""Adam update rule, fold splitting, the epoch loop, resume, determinism."""

import numpy as np
import pytest

from sdscreen import trainer
from sdscreen.errors import ConfigError, NumericError
from sdscreen.model import (
    ModelConfig,
    init_model,
    load_checkpoint,
    load_subject_video,
    subject_forward,
)
from sdscreen.numerics import Tensor
from sdscreen.synth import SynthConfig, generate
from sdscreen.trainer import (
    AdamState,
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
    TrainConfig().validate()
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(threshold=1.5).validate()
    with pytest.raises(ConfigError):
        TrainConfig(folds=1).validate()


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


def run_training(dataset, epochs, seed=1, resume_state=None, epochs_done=0,
                 params=None):
    if params is None:
        params = init_model(TINY_MODEL)
    cfg = TrainConfig(epochs=epochs, batch_size=2, lr=1e-2, seed=seed, folds=4)
    train_subjects = dataset.subjects[:6]
    val_subjects = dataset.subjects[6:]
    state, rows, _ = train(dataset, params, train_subjects, val_subjects, cfg,
                           state=resume_state, epochs_done=epochs_done)
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
    _, _, rest = run_training(tiny_dataset, epochs=4, resume_state=state,
                              epochs_done=2, params=params)
    assert history_to_csv(first + rest) == history_to_csv(straight)


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


def checkpoint_metrics(dataset, out_dir, cfg):
    """Fold metrics recomputed from the weights in the saved checkpoint."""
    params = init_model(TINY_MODEL)
    load_checkpoint(out_dir / "fold0.ckpt", params)
    _, val = fold_subject_sets(dataset, cfg.folds, cfg.seed, 0)
    probs = evaluate_probs(params, val, load_videos(dataset, val, needs_video=True))
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
def test_run_fold_loads_each_video_once(tiny_dataset, tmp_path, monkeypatch, case):
    epochs = 0 if case == "no_epochs" else 2
    cfg = TrainConfig(epochs=epochs, batch_size=2, lr=1e-2, seed=5, folds=4)
    if case == "resumed_finished":
        run_fold(tiny_dataset, TINY_MODEL, cfg, 0, tmp_path)
    loads = []

    def counted_load(dataset, subject):
        loads.append(subject.subject_id)
        return load_subject_video(dataset, subject)

    monkeypatch.setattr(trainer, "load_subject_video", counted_load)
    _, metrics = run_fold(tiny_dataset, TINY_MODEL, cfg, 0, tmp_path,
                          resume=case == "resumed_finished")
    monkeypatch.undo()

    np.testing.assert_equal(metrics, checkpoint_metrics(tiny_dataset, tmp_path, cfg))
    train_s, val_s = fold_subject_sets(tiny_dataset, cfg.folds, cfg.seed, 0)
    # Training loads all 8 videos once; with no epoch to run only the 2
    # validation videos are loaded, once each, for the fold's metrics.
    wanted = train_s + val_s if case == "trained" else val_s
    assert sorted(loads) == sorted(s.subject_id for s in wanted)


def test_checkpoint_roundtrip_preserves_predictions(tiny_dataset, tmp_path):
    params, state, _ = run_training(tiny_dataset, epochs=2)
    from sdscreen.model import save_checkpoint

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, state.m, state.v, state.t, 2)

    fresh = init_model(TINY_MODEL)
    m, v, t, done = load_checkpoint(path, fresh)
    assert t == state.t and done == 2
    subjects = tiny_dataset.subjects[:3]
    videos = load_videos(tiny_dataset, subjects, needs_video=True)
    assert np.array_equal(evaluate_probs(params, subjects, videos),
                          evaluate_probs(fresh, subjects, videos))


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
