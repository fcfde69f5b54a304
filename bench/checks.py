"""Correctness checks that the benchmark runs outside its timed phases.

Each check compares the program against a computation made apart from it, or
against a property the method must have, and returns a ``Check`` whose
``detail`` states the measured error next to the tolerance.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference

# Relative agreement of the program's logit and probability with the plain
# numpy forward: both sum the same float64 products in different orders, so
# they differ by rounding only (observed below 1e-12 on every workload).
REFERENCE_TOL = 1e-9
# The program's own gradcheck tolerance and error measure.
GRAD_TOL = 1e-4
# Step along a unit direction in parameter space.
GRAD_STEP = 1e-6
# The trapezoid area and the rank statistic add the same fractions in
# different orders.
AUC_TOL = 1e-12


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _rel(a: float, b: float, floor: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def reference_forward(name: str, program: tuple[float, float], question_frames: list[np.ndarray],
                      choices: tuple[int, ...], times: tuple[float, ...],
                      weights: dict[str, np.ndarray], clip_len: int, sigma: float) -> Check:
    """The program's (logit, probability) of one subject against reference.forward."""
    logit, p = reference.forward(question_frames, choices, times, weights, clip_len, sigma)
    err = max(_rel(program[0], logit, 1.0), _rel(program[1], p, 1e-300))
    return Check(name, err <= REFERENCE_TOL,
                 f"logit {program[0]!r} vs {logit!r}, worst relative error {err:.2e} <= {REFERENCE_TOL:.0e}")


def directional_derivative(name: str, loss_at: Callable[[], float], tensors: dict[str, object],
                           grad: dict[str, np.ndarray], rng: np.random.Generator) -> Check:
    """Central difference of ``loss_at`` along a random unit direction v,
    against grad . v. ``tensors`` maps names to objects with a ``data`` array,
    which is moved to data +/- GRAD_STEP * v and restored."""
    direction = {k: rng.standard_normal(t.data.shape) for k, t in tensors.items()}
    norm = math.sqrt(sum(float(np.sum(v * v)) for v in direction.values()))
    analytic = sum(float(np.sum(grad[k] * v)) for k, v in direction.items()) / norm
    original = {k: t.data for k, t in tensors.items()}
    values = []
    try:
        for sign in (1.0, -1.0):
            for k, t in tensors.items():
                t.data = original[k] + (sign * GRAD_STEP / norm) * direction[k]
            values.append(loss_at())
    finally:
        for k, t in tensors.items():
            t.data = original[k]
    numeric = (values[0] - values[1]) / (2.0 * GRAD_STEP)
    err = _rel(analytic, numeric, 1e-6)
    return Check(name, err <= GRAD_TOL,
                 f"grad.v {analytic!r} vs central difference {numeric!r}, "
                 f"relative error {err:.2e} <= {GRAD_TOL:.0e}")


def pairwise_auc(probs: np.ndarray, labels: np.ndarray) -> float:
    """Share of (positive, negative) pairs ranked correctly, ties counting half."""
    pos, neg = probs[labels == 1], probs[labels == 0]
    if pos.size == 0 or neg.size == 0:
        return math.nan
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (pos.size * neg.size))


def oracle_metrics(probs: np.ndarray, labels: np.ndarray, threshold: float) -> dict[str, float]:
    pred = probs > threshold
    tp = int(np.sum(pred & (labels == 1)))
    tn = int(np.sum(~pred & (labels == 0)))
    n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    return {
        "accuracy": (tp + tn) / labels.size,
        "sensitivity": tp / n_pos if n_pos else math.nan,
        "specificity": tn / n_neg if n_neg else math.nan,
        "auc": pairwise_auc(probs, labels),
    }


def fold_metrics(name: str, probs: np.ndarray, labels: np.ndarray, threshold: float,
                 reported: dict[str, float]) -> Check:
    """Metrics recomputed from screened probabilities against what run_fold returned."""
    expected = oracle_metrics(probs, labels, threshold)
    bad = []
    for key, want in expected.items():
        got = reported[key]
        if math.isnan(want) or math.isnan(got):
            same = math.isnan(want) and math.isnan(got)
        else:
            same = abs(got - want) <= (AUC_TOL if key == "auc" else 0.0)
        if not same:
            bad.append(f"{key} {got!r} != {want!r}")
    return Check(name, not bad, "; ".join(bad) or
                 ", ".join(f"{k} {v:.4f}" for k, v in expected.items()))


def questionnaire_baseline(name: str, accuracy: float, disagreement_rate: float) -> Check:
    return Check(name, accuracy == 1.0 - disagreement_rate,
                 f"accuracy {accuracy!r}, 1 - disagreement rate {1.0 - disagreement_rate!r}")


def loss_falls(name: str, losses: list[float]) -> Check:
    return Check(name, len(losses) >= 2 and losses[-1] < losses[0],
                 "epoch losses " + ", ".join(f"{x:.5f}" for x in losses))


def digest(checkpoint: bytes, history: bytes, probs: list[float]) -> str:
    h = hashlib.sha256()
    for part in (checkpoint, history, "\n".join(repr(p) for p in probs).encode()):
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()[:16]
