"""Synthetic data generator: feasibility, determinism, planted structure."""

import dataclasses

import numpy as np
import pytest

from sdscreen.dataset import (
    QUESTION_COUNT,
    load_dataset,
    load_question_frames,
    sds_sum_classify,
)
from sdscreen.errors import ConfigError
from sdscreen.synth import SynthConfig, _cell_plan, disagreement_cells, generate

FAST = dict(fps=1, height=12, width=12, time_median_s=3.0,
            time_min_s=2.0, time_max_s=5.0, clip_len=4)


# ---------------------------------------------------------------------------
# planted-signal probe: model-free evidence that the motif is recoverable


def clip_motion_energies(frames, clip_len=10):
    """Mean absolute successive-frame difference per half-overlapping clip
    window of (N, H, W) uint8 frames, in [0, 1] units."""
    stride = clip_len // 2
    n = frames.shape[0]
    if n < clip_len:
        return np.zeros(0)
    diffs = np.abs(np.diff(frames.astype(np.float64) / 255.0, axis=0)).mean(axis=(1, 2))
    n_clips = (n - clip_len) // stride + 1
    return np.array([diffs[k * stride:k * stride + clip_len - 1].mean() for k in range(n_clips)])


def subject_motion_feature(dataset, subject, clip_len=10):
    """Max clip motion energy across all of a subject's questions."""
    best = 0.0
    for q in range(QUESTION_COUNT):
        energies = clip_motion_energies(load_question_frames(dataset, subject, q), clip_len)
        if energies.size:
            best = max(best, float(energies.max()))
    return best


def planted_signal_probe(dataset, clip_len=10):
    """Held-out accuracy of a one-feature threshold classifier.

    Fits a threshold on half the subjects (alternating within each class, so
    both halves carry both labels) and scores the held-out half.
    """
    features = np.array([subject_motion_feature(dataset, s, clip_len) for s in dataset.subjects])
    labels = dataset.labels
    in_train = np.zeros(labels.size, dtype=bool)
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        in_train[members[0::2]] = True
    train_f, train_y = features[in_train], labels[in_train]
    test_f, test_y = features[~in_train], labels[~in_train]

    sorted_f = np.sort(train_f, kind="stable")
    candidates = np.concatenate(([sorted_f[0] - 1.0],
                                 (sorted_f[:-1] + sorted_f[1:]) / 2.0,
                                 [sorted_f[-1] + 1.0]))
    best_acc, best_thr, best_sign = -1.0, 0.0, 1
    for thr in candidates:
        for sign in (1, -1):
            acc = float(((sign * train_f > sign * thr) == train_y).mean())
            if acc > best_acc:
                best_acc, best_thr, best_sign = acc, float(thr), sign
    return float(((best_sign * test_f > best_sign * best_thr) == test_y).mean())


def test_config_validation():
    for n, rate, k in ((20, 0.2, 4), (10, 0.0, 0)):
        plan = _cell_plan(SynthConfig(n_subjects=n, disagreement_rate=rate))
        assert sum(not agrees for _, agrees in plan) == k
    with pytest.raises(ConfigError):
        SynthConfig(n_subjects=9)  # odd
    with pytest.raises(ConfigError):
        SynthConfig(n_subjects=20, disagreement_rate=0.7)
    with pytest.raises(ConfigError):
        SynthConfig(n_subjects=10, disagreement_rate=0.3)  # k = 3
    with pytest.raises(ConfigError):
        SynthConfig(n_subjects=20, disagreement_rate=0.15)  # k = 3
    with pytest.raises(ConfigError):
        SynthConfig(fps=0)
    with pytest.raises(ConfigError):
        SynthConfig(height=4)
    with pytest.raises(ConfigError):
        SynthConfig(time_min_s=5.0, time_max_s=2.0)


@pytest.fixture(scope="module")
def small_set(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthdata")
    cfg = SynthConfig(n_subjects=20, disagreement_rate=0.2, seed=7, **FAST)
    return cfg, generate(cfg, root), root


def test_generated_set_structure(small_set):
    cfg, data, root = small_set
    assert len(data.subjects) == 20
    labels = [s.label for s in data.subjects]
    assert sum(labels) == 10
    for s in data.subjects:
        dataclasses.replace(s)  # a Subject checks itself when built
        assert min(s.times) >= cfg.time_min_s - 1e-9
        assert max(s.times) <= cfg.time_max_s + 1e-9
    # Frame counts follow the configured rate and respect the clip floor.
    for q in (0, 7, 19):
        s = data.subjects[0]
        frames = load_question_frames(data, s, q)
        assert frames.shape[0] == max(round(cfg.fps * s.times[q]), cfg.clip_len)
        assert frames.shape[1:] == (12, 12)
        assert frames.dtype == np.uint8


def test_disagreement_cells(small_set):
    cfg, data, _ = small_set
    dep_pos, dep_neg, norm_pos, norm_neg = disagreement_cells(data)
    assert (dep_pos, dep_neg, norm_pos, norm_neg) == (8, 2, 2, 8)
    assert dep_pos + dep_neg + norm_pos + norm_neg == 20


def test_sum_rule_baseline_pinned(small_set):
    cfg, data, _ = small_set
    hits = sum(sds_sum_classify(s.choices) == s.label for s in data.subjects)
    assert hits / len(data.subjects) == 0.8


def test_zero_disagreement_means_perfect_baseline(tmp_path):
    cfg = SynthConfig(n_subjects=8, disagreement_rate=0.0, seed=1, **FAST)
    data = generate(cfg, tmp_path)
    assert all(sds_sum_classify(s.choices) == s.label for s in data.subjects)


def test_generation_is_byte_deterministic(tmp_path):
    cfg = SynthConfig(n_subjects=4, disagreement_rate=0.0, seed=3, **FAST)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a, b = generate(cfg, a_dir), generate(cfg, b_dir)
    assert (a_dir / "manifest.txt").read_bytes() == (b_dir / "manifest.txt").read_bytes()
    for s in a.subjects:
        for name in s.frame_files:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
    different = generate(SynthConfig(n_subjects=4, disagreement_rate=0.0,
                                     seed=4, **FAST), tmp_path / "c")
    assert (a_dir / "manifest.txt").read_bytes() != \
        (tmp_path / "c" / "manifest.txt").read_bytes()


def test_generated_set_loads_back(small_set):
    _, data, root = small_set
    loaded = load_dataset(root)
    assert [s.subject_id for s in loaded.subjects] == \
        [s.subject_id for s in data.subjects]
    assert loaded.fps == data.fps


def test_depressed_clips_carry_more_motion(small_set):
    cfg, data, _ = small_set
    by_label = {0: [], 1: []}
    for s in data.subjects:
        by_label[s.label].append(subject_motion_feature(data, s, clip_len=cfg.clip_len))
    assert np.mean(by_label[1]) > np.mean(by_label[0])


def test_motion_energy_shape(small_set):
    cfg, data, _ = small_set
    frames = load_question_frames(data, data.subjects[0], 0)
    energies = clip_motion_energies(frames, clip_len=cfg.clip_len)
    expect = (frames.shape[0] - cfg.clip_len) // (cfg.clip_len // 2) + 1
    assert energies.shape == (expect,)
    assert np.all(energies >= 0)


def test_probe_recovers_planted_signal(small_set):
    cfg, data, _ = small_set
    assert planted_signal_probe(data, clip_len=cfg.clip_len) >= 0.8


def test_times_shift_with_label(tmp_path):
    # With a large shift the depressed median must exceed the control median.
    cfg = SynthConfig(n_subjects=12, disagreement_rate=0.0, seed=5,
                      time_shift=1.6, fps=1, height=12, width=12,
                      time_median_s=5.0, time_min_s=2.0, time_max_s=12.0,
                      clip_len=4)
    data = generate(cfg, tmp_path)
    dep = [t for s in data.subjects if s.label == 1 for t in s.times]
    norm = [t for s in data.subjects if s.label == 0 for t in s.times]
    assert np.median(dep) > np.median(norm)
