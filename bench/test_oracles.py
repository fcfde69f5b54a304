"""Each benchmark check passes on the program and fails on a planted error.

Tiny geometry, a few seconds in all:

    python3 -m pytest bench/test_oracles.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from sdscreen import dataset, model, synth, trainer  # noqa: E402
from sdscreen.fusion import bce_loss  # noqa: E402
from sdscreen.numerics import Tape  # noqa: E402

CFG = model.ModelConfig(input_hw=12, clip_len=4, base_channels=2, feature_dim=4,
                        hidden=(8, 4), blocks=2, sigma=4.0, init_seed=5)


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    data = synth.generate(synth.SynthConfig(
        n_subjects=4, fps=2, height=12, width=12, disagreement_rate=0.0,
        time_median_s=3.0, time_min_s=2.0, time_max_s=5.0, clip_len=4, seed=7),
        tmp_path_factory.mktemp("tiny"))
    params = model.init_model(CFG)
    rng = np.random.default_rng(0)
    for omega in params.ras.omegas:  # blocks start inert; make attention count
        omega.data = rng.normal(0.0, 0.5, omega.data.shape)
    subject = data.subjects[0]
    assert max(len(f) for f in model.load_subject_video(data, subject).frames) >= 6  # some question has 2+ clips
    return data, params, subject


def _reference(case, weights):
    data, params, subject = case
    pred = model.subject_forward(params, subject, model.load_subject_video(data, subject))
    frames = [dataset.load_question_frames(data, subject, q) for q in range(dataset.QUESTION_COUNT)]
    return checks.reference_forward("ref", (pred.out.item(), pred.p.item()), frames,
                                    subject.choices, subject.times, weights, CFG.clip_len, CFG.sigma)


@pytest.mark.parametrize("name", ["enc.conv0.kernel", "ras.omega1", "fusion.w1"])
def test_reference_forward_catches_one_perturbed_weight(case, name):
    data, params, subject = case
    named = model.named_parameters(params)
    weights = {k: t.data.copy() for k, t in named}
    assert _reference(case, weights).ok
    # Perturb the weight the logit depends on most: at this size many ReLUs
    # are dead, and a weight behind one changes nothing.
    trainer.zero_grads(named)
    with Tape() as tape:
        logit = model.subject_forward(params, subject, model.load_subject_video(data, subject)).out
    tape.backward(logit)
    grad = dict(named)[name].grad
    weights[name][np.unravel_index(np.argmax(np.abs(grad)), grad.shape)] += 1e-6
    check = _reference(case, weights)
    assert not check.ok, check.detail


def test_directional_derivative_catches_a_scaled_gradient(case):
    data, params, subject = case
    video = model.load_subject_video(data, subject)
    named = model.named_parameters(params)
    trainer.zero_grads(named)
    with Tape() as tape:
        loss = bce_loss(model.subject_forward(params, subject, video).p, subject.label)
    tape.backward(loss)
    grad = {k: t.grad for k, t in named}

    def run(g):
        return checks.directional_derivative(
            "dd", lambda: bce_loss(model.subject_forward(params, subject, video).p,
                                   subject.label).item(),
            dict(named), g, np.random.default_rng(3))

    assert run(grad).ok
    check = run({k: g * (1.0 + 1e-3) for k, g in grad.items()})
    assert not check.ok, check.detail


def test_auc_oracle_catches_one_swapped_label():
    rng = np.random.default_rng(4)
    probs = rng.uniform(size=12)
    labels = np.array([1, 0] * 6)
    reported = trainer.evaluate_metrics(probs, labels, 0.5)
    assert checks.fold_metrics("fm", probs, labels, 0.5, reported).ok
    swapped = labels.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    check = checks.fold_metrics("fm", probs, swapped, 0.5, reported)
    assert not check.ok and "auc" in check.detail, check.detail


def test_auc_oracle_matches_the_program_on_ties():
    probs = np.array([0.2, 0.2, 0.7, 0.7, 0.5, 0.9])
    labels = np.array([1, 0, 1, 0, 0, 1])
    reported = trainer.evaluate_metrics(probs, labels, 0.5)
    assert checks.fold_metrics("fm", probs, labels, 0.5, reported).ok
