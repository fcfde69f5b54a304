"""Whole-subject model: mode semantics, parameter registry, checkpoints."""

import dataclasses
import gc
import io
import weakref

import numpy as np
import pytest

from sdscreen.errors import ConfigError, FormatError
from sdscreen.fusion import bce_loss
from sdscreen.model import (
    MODES,
    HistoryRow,
    ModelConfig,
    init_model,
    load_checkpoint,
    load_subject_video,
    named_parameters,
    save_checkpoint,
    subject_forward,
)
from sdscreen.numerics import Tape, load_container, write_container
from sdscreen.synth import SynthConfig, generate

CFG = ModelConfig(input_hw=12, clip_len=4, base_channels=2, feature_dim=4,
                  hidden=(8, 4), blocks=1, sigma=4.0, init_seed=2)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("modeldata")
    cfg = SynthConfig(n_subjects=4, fps=1, height=12, width=12,
                      disagreement_rate=0.0, time_median_s=3.0,
                      time_min_s=2.0, time_max_s=5.0, clip_len=4, seed=9)
    return generate(cfg, root)


def test_config_validation():
    with pytest.raises(ConfigError):
        dataclasses.replace(CFG, mode="hybrid")
    with pytest.raises(ConfigError):
        dataclasses.replace(CFG, input_hw=7)
    with pytest.raises(ConfigError):
        dataclasses.replace(CFG, sigma=0.0)
    with pytest.raises(ConfigError, match="hidden widths"):
        dataclasses.replace(CFG, hidden=(0, 4))


def test_parameter_registry_order_and_modes():
    names = [n for n, _ in named_parameters(init_model(CFG))]
    assert names[0].startswith("enc.")
    assert "ras.omega0" in names and "ras.psi" in names
    assert names[-1] == "fusion.b3"
    assert len(names) == len(set(names))

    heads = [len(init_model(dataclasses.replace(CFG, mode=m)).heads) for m in MODES]
    assert dict(zip(MODES, heads)) == {"full": 1, "video": 1, "mlp": 1, "slf": 2}


@pytest.mark.parametrize("mode", MODES)
def test_mode_reads_video_and_names_second_head(mode):
    cfg = dataclasses.replace(CFG, mode=mode)
    assert cfg.needs_video == (mode != "mlp")
    names = [n for n, _ in named_parameters(init_model(cfg))]
    second = [n for n in names if n.startswith("fusion2.")]
    assert second == ([f"fusion2.{k}" for k in ("w1", "b1", "w2", "b2", "w3", "b3")]
                      if mode == "slf" else [])


def test_init_is_seed_deterministic():
    a = init_model(CFG)
    b = init_model(CFG)
    for (_, ta), (_, tb) in zip(named_parameters(a), named_parameters(b)):
        assert np.array_equal(ta.data, tb.data)
    c = init_model(dataclasses.replace(CFG, init_seed=3))
    changed = any(not np.array_equal(ta.data, tc.data)
                  for (_, ta), (_, tc) in zip(named_parameters(a), named_parameters(c)))
    assert changed


def randomized(params):
    rng = np.random.default_rng(0)
    for _, t in named_parameters(params):
        t.data = t.data + rng.normal(size=t.data.shape) * 0.05
    return params


def test_full_mode_needs_video(data):
    params = init_model(CFG)
    with pytest.raises(ConfigError):
        subject_forward(params, data.subjects[0], None)


def test_mlp_mode_ignores_video(data):
    params = randomized(init_model(dataclasses.replace(CFG, mode="mlp")))
    s = data.subjects[0]
    video = load_subject_video(data, s)
    p_none = subject_forward(params, s, None).p.item()
    p_video = subject_forward(params, s, video).p.item()
    assert p_none == p_video


def test_video_mode_ignores_choices(data):
    params = randomized(init_model(dataclasses.replace(CFG, mode="video")))
    s = data.subjects[0]
    video = load_subject_video(data, s)
    flipped = dataclasses.replace(s, choices=[5 - c for c in s.choices])
    assert subject_forward(params, s, video).p.item() == \
        subject_forward(params, flipped, video).p.item()
    # The full model does react to the choices.
    full = randomized(init_model(CFG))
    assert subject_forward(full, s, video).p.item() != \
        subject_forward(full, flipped, video).p.item()


def test_time_conditioning_toggle(data):
    s = data.subjects[0]
    video = load_subject_video(data, s)
    shifted = dataclasses.replace(s, times=[t + 1.0 for t in s.times])
    no_time = randomized(init_model(dataclasses.replace(CFG, use_time=False)))
    assert subject_forward(no_time, s, video).p.item() == \
        subject_forward(no_time, shifted, video).p.item()
    with_time = randomized(init_model(CFG))
    assert subject_forward(with_time, s, video).p.item() != \
        subject_forward(with_time, shifted, video).p.item()


def test_slf_mode_averages_two_heads(data):
    cfg = dataclasses.replace(CFG, mode="slf")
    params = randomized(init_model(cfg))
    s = data.subjects[0]
    video = load_subject_video(data, s)
    pred = subject_forward(params, s, video)
    p = pred.p.item()
    assert 0.0 < p < 1.0
    # out is the log-odds of the averaged probability.
    assert pred.out.item() == pytest.approx(np.log(p / (1.0 - p)), rel=1e-9)

    # The video head ignores choices and the score head ignores frames, so
    # the average must ignore neither.
    flipped = dataclasses.replace(s, choices=[5 - c for c in s.choices])
    assert subject_forward(params, flipped, video).p.item() != p


HISTORY = [HistoryRow(1, 0.75, 0.5, float("nan")), HistoryRow(2, 0.5, 0.75, 1.0),
           HistoryRow(3, 0.25, 1.0, 0.0)]


def test_checkpoint_roundtrip_and_errors(data, tmp_path):
    params = randomized(init_model(CFG))
    m = {n: np.full_like(t.data, 0.25) for n, t in named_parameters(params)}
    v = {n: np.full_like(t.data, 0.5) for n, t in named_parameters(params)}
    path = tmp_path / "weights.ckpt"
    save_checkpoint(path, params, m, v, adam_t=7, history=HISTORY)
    assert [p.name for p in tmp_path.iterdir()] == ["weights.ckpt"]  # the temp file is renamed

    fresh = init_model(dataclasses.replace(CFG, init_seed=9))  # init_seed is not compared
    m2, v2, t2, history = load_checkpoint(path, fresh)
    assert t2 == 7
    np.testing.assert_equal([dataclasses.astuple(r) for r in history],
                            [dataclasses.astuple(r) for r in HISTORY])
    assert [type(r.epoch) for r in history] == [int] * 3
    for (n, a), (_, b) in zip(named_parameters(params), named_parameters(fresh)):
        assert np.array_equal(a.data, b.data), n
        assert np.array_equal(m2[n], m[n])
        assert np.array_equal(v2[n], v[n])

    with pytest.raises(FormatError, match="missing"):
        load_checkpoint(tmp_path / "nope.ckpt", fresh)

    # A checkpoint from a different architecture must be refused.
    wider = init_model(dataclasses.replace(CFG, feature_dim=8))
    with pytest.raises(FormatError):
        load_checkpoint(path, wider)


def saved_entries(path):
    """The entries of a valid two-epoch checkpoint of CFG saved at ``path``."""
    params = init_model(CFG)
    zeros = {n: np.zeros_like(t.data) for n, t in named_parameters(params)}
    save_checkpoint(path, params, zeros, zeros, adam_t=4, history=HISTORY[:2])
    with open(path, "rb") as f:
        return load_container(f)


def test_checkpoint_file_is_the_container_of_its_entries(tmp_path):
    path = tmp_path / "weights.ckpt"
    entries = saved_entries(path)
    assert entries["adam.t"].shape == ()  # 0-d counters stay 0-d when streamed
    buf = io.BytesIO()
    write_container(buf, entries)
    assert path.read_bytes() == buf.getvalue()


def load_edited(path, key, value):
    entries = saved_entries(path)
    if value is None:
        del entries[key]
    else:
        entries[key] = value
    with open(path, "wb") as f:
        write_container(f, entries)
    return load_checkpoint(path, init_model(CFG))


# meta.history took over meta.epochs_done: its row count is the epochs done.
@pytest.mark.parametrize("key", ["adam.t", "meta.history"])
@pytest.mark.parametrize("value", [np.array([1.0, 2.0]), np.array(np.nan),
                                   np.array(np.inf), np.array(-3.5), np.array(-1.0),
                                   np.array(2.5)],
                         ids=["shape-2", "nan", "inf", "neg-fraction", "negative", "fraction"])
def test_checkpoint_rejects_bad_counters(key, value, tmp_path):
    with pytest.raises(FormatError, match=key):
        load_edited(tmp_path / "weights.ckpt", key, value)


@pytest.mark.parametrize("key, edit", [
    ("param.fusion.b3", lambda a: np.full_like(a, np.nan)),
    ("param.enc.conv0.kernel", lambda a: np.where(a == a.flat[0], np.inf, a)),
    ("adam.m.ras.psi", lambda a: np.full_like(a, -np.inf)),
    ("adam.v.fusion.w1", lambda a: np.full_like(a, np.nan)),
    ("adam.v.enc.fc.bias", lambda a: np.full_like(a, -1e-300)),
], ids=["param-nan", "param-inf", "adam-m-neg-inf", "adam-v-nan", "adam-v-negative"])
def test_checkpoint_rejects_bad_values(key, edit, tmp_path):
    path = tmp_path / "weights.ckpt"
    with pytest.raises(FormatError, match=key):
        load_edited(path, key, edit(saved_entries(path)[key]))


@pytest.mark.parametrize("history", [
    [[1, 0.5, 0.5, 0.5], [3, 0.5, 0.5, 0.5]],
    [[2, 0.5, 0.5, 0.5]],
    [[2, 0.5, 0.5, 0.5], [1, 0.5, 0.5, 0.5]],
    [[1, 0.5, 0.5]],
    [[1, np.nan, 0.5, 0.5]],
    [[1, np.inf, 0.5, 0.5]],
    [[1, 0.5, 1.5, 0.5]],
    [[1, 0.5, np.nan, 0.5]],
    [[1, 0.5, 0.5, -0.25]],
], ids=["gap", "not-from-1", "out-of-order", "three-columns", "nan-loss", "inf-loss",
        "train-acc-above-1", "nan-train-acc", "negative-val-acc"])
def test_checkpoint_rejects_bad_history(history, tmp_path):
    with pytest.raises(FormatError, match="meta.history"):
        load_edited(tmp_path / "weights.ckpt", "meta.history", np.array(history))


@pytest.mark.parametrize("key", ["meta.history", "meta.model"])
def test_checkpoint_without_meta_entry_is_refused(key, tmp_path):
    # A checkpoint from before the history and config moved into it lacks both.
    with pytest.raises(FormatError, match=key):
        load_edited(tmp_path / "weights.ckpt", key, None)


def test_model_vector_covers_every_field_but_init_seed():
    from sdscreen.model import _MODEL_KEYS, _model_vector

    # The meta.model layout every checkpoint carries, at the default config.
    assert _MODEL_KEYS == ("input_hw", "clip_len", "base_channels", "feature_dim",
                           "hidden1", "hidden2", "blocks", "sigma", "use_difference",
                           "use_delta", "per_block_affinity", "use_time", "mode")
    assert _model_vector(ModelConfig()).tolist() == [
        110, 10, 16, 128, 1024, 256, 5, 10.0, 1, 1, 0, 1, 0]
    base = _model_vector(CFG)
    assert len(base) == len(_MODEL_KEYS)
    for f in dataclasses.fields(ModelConfig):
        value = getattr(CFG, f.name)
        # Another valid value: input_hw and clip_len keep their parity when doubled.
        changed = ("mlp" if f.name == "mode" else (value[0], value[1] + 1) if f.name == "hidden"
                   else not value if isinstance(value, bool) else value * 2)
        vector = _model_vector(dataclasses.replace(CFG, **{f.name: changed}))
        assert np.array_equal(vector, base) == (f.name == "init_seed"), f.name


@pytest.mark.parametrize("change, keys", [
    ({"sigma": 0.01, "use_time": False}, "sigma, use_time"),
    ({"use_delta": False}, "use_delta"),
    ({"use_difference": False, "per_block_affinity": True},
     "use_difference, per_block_affinity"),
    ({"mode": "video"}, "mode"),
    ({"mode": "mlp"}, "mode"),
])
def test_checkpoint_refuses_other_model_config(change, keys, tmp_path):
    path = tmp_path / "weights.ckpt"
    saved_entries(path)
    with pytest.raises(ConfigError, match=f"{keys} differ"):
        load_checkpoint(path, init_model(dataclasses.replace(CFG, **change)))


def test_backward_frees_tape_and_intermediates(tmp_path):
    # Answers of 3-5 clips, so every RAS block attends and every parameter
    # is on the tape. With the cyclic collector off, memory comes back only
    # through reference counts: what a replayed tape still held would
    # outlive this step.
    data = generate(SynthConfig(n_subjects=2, fps=1, height=12, width=12,
                                disagreement_rate=0.0, time_median_s=8.0,
                                time_min_s=8.0, time_max_s=12.0, clip_len=4, seed=3),
                    tmp_path)
    params = init_model(CFG)
    subject = data.subjects[0]
    video = load_subject_video(data, subject)
    gc.disable()
    try:
        with Tape() as tape:
            prob = subject_forward(params, subject, video).p
            loss = bce_loss(prob, subject.label)
        first_output = weakref.ref(tape._entries[0][0].data)
        tape_ref = weakref.ref(tape)
        tape.backward(loss)
        assert len(tape) == 0
        assert prob.grad is None and loss.grad is None
        for name, p in named_parameters(params):
            assert p.grad is not None, name
        del prob, loss, tape
        assert tape_ref() is None
        assert first_output() is None
    finally:
        gc.enable()
