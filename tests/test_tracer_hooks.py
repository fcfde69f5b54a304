"""The benchmark tracer (bench/tracer.py) still finds every hook in the program.

The tracer wraps program functions by name from outside, so a rename or a
changed signature silently turns its per-layer metrics into ``None``. This
test installs it around one taped step and one untaped screening of a tiny
subject and checks that nothing is missing and that the clip and attention
counts it derives from the wrapped calls are right.
"""

import importlib.util
from pathlib import Path

import pytest

from sdscreen import model, trainer
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


def test_tracer_hooks_present_and_counts_exact(tracer, tmp_path):
    data = generate(SynthConfig(n_subjects=2, fps=2, height=12, width=12,
                                disagreement_rate=0.0, time_median_s=3.0,
                                time_min_s=2.0, time_max_s=5.0, clip_len=4, seed=7),
                    tmp_path)
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

    assert tr.missing == []
    forwards = 2
    assert tr.counts["clips"] == forwards * sum(clips)
    pairs = sum(CFG.blocks * m * m * CFG.feature_dim for m in clips if m > 1)
    assert tr.counts["pair_elements"] == forwards * pairs
    layers = {name.split(".")[1] for _, name in tr.inclusive if name.startswith("backward.")}
    assert {"encoder3d", "ras", "fusion"} <= layers
    assert model.segment.__module__ == "sdscreen.clipper"  # uninstall restored it
