"""The benchmark tracer (bench/tracer.py) still finds every hook in the program.

The tracer wraps program functions by name from outside, so a rename or a
changed signature silently turns its per-layer metrics into ``None``. These
tests install it around one taped step and one untaped screening of a tiny
subject, with clips taped and with clips recomputed, and check that nothing
is missing and that the clip and attention counts it derives from the
wrapped calls are right.
"""

import importlib.util
from pathlib import Path

import pytest

from sdscreen import encoder3d, model, trainer
from sdscreen.clipper import clip_count
from sdscreen.fusion import bce_loss
from sdscreen.numerics import Tape
from sdscreen.synth import SynthConfig, generate

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

CFG = model.ModelConfig(input_hw=12, clip_len=4, base_channels=2, feature_dim=4,
                        hidden=(8, 4), blocks=2, sigma=4.0, init_seed=5)


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("sdscreen_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_step(tracer, data_root):
    """One taped step and one untaped screening of a tiny subject under the
    tracer; returns the tracer and the clip count of each question."""
    data = generate(SynthConfig(n_subjects=2, fps=2, height=12, width=12,
                                disagreement_rate=0.0, time_median_s=3.0,
                                time_min_s=2.0, time_max_s=5.0, clip_len=4, seed=7),
                    data_root)
    subject = data.subjects[0]
    video = model.load_subject_video(data, subject)
    clips = [clip_count(len(frames), CFG.clip_len) for frames in video.frames]
    assert max(clips) >= 2  # some question runs the attention blocks
    params = model.init_model(CFG)
    named = model.named_parameters(params)

    tr = tracer.Tracer()
    tr.install()
    try:
        trainer.zero_grads(named)
        with Tape() as tape:
            loss = bce_loss(model.subject_forward(params, subject, video).p, subject.label)
        tape.backward(loss)
        model.subject_forward(params, subject, video)
    finally:
        tr.uninstall()
    assert model.segment.__module__ == "sdscreen.clipper"  # uninstall restored it
    return tr, clips


def assert_counts_exact(tr, clips):
    assert tr.missing == []
    forwards = 2
    assert tr.counts["clips"] == forwards * sum(clips)
    pairs = sum(CFG.blocks * m * m * CFG.feature_dim for m in clips if m > 1)
    assert tr.counts["pair_elements"] == forwards * pairs


def test_tracer_hooks_present_and_counts_exact(tracer, tmp_path):
    tr, clips = traced_step(tracer, tmp_path)
    assert_counts_exact(tr, clips)
    layers = {name.split(".")[1] for _, name in tr.inclusive if name.startswith("backward.")}
    assert {"encoder3d", "ras", "fusion"} <= layers


def test_tracer_hooks_present_and_counts_exact_with_clips_recomputed(tracer, tmp_path,
                                                                      monkeypatch):
    # Each clip's entry re-encodes it in backward under a local tape, which
    # passes through the wrapped Tape.record and Tape.backward too.
    monkeypatch.setattr(encoder3d, "RECOMPUTE_BYTES", 0)
    tr, clips = traced_step(tracer, tmp_path)
    assert_counts_exact(tr, clips)
    backward_spans = {name for _, name in tr.inclusive if name.startswith("backward.")}
    assert "backward.encoder3d.recomputed" in backward_spans
    assert {"backward.other.conv3d", "backward.other.maxpool3d"} <= backward_spans
    assert {"backward.ras", "backward.fusion"} <= {n.rsplit(".", 1)[0] for n in backward_spans}
    # The outer tape and one local tape per clip of the taped forward.
    assert len(tr.samples["tape_entries"]) == 1 + sum(clips)
