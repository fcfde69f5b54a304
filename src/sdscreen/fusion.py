"""Question-level conditional fusion and the classification head.

Per question, the video feature is concatenated with a 4-way one-hot of the
chosen answer and the raw answering time in seconds (128+4+1 = 133 at the
reference feature size). The 20 question vectors concatenate into one input
(2660 reference) for a 3-layer fully-connected head ending in a sigmoid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import QUESTION_COUNT
from .errors import ContractError
from .numerics import (
    Tensor,
    add,
    add_scalar,
    clip,
    concat,
    glorot_uniform,
    log,
    matmul,
    mul_scalar,
    relu,
    reshape,
    sigmoid,
)

__all__ = [
    "FusionParams",
    "Prediction",
    "encode_score",
    "fuse_question",
    "predict_subject",
    "bce_loss",
    "clamp_prob",
    "init_fusion",
    "PROB_EPS",
]

PROB_EPS = 1e-12
SCORE_DIM = 4


@dataclass
class FusionParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    def named_parameters(self, prefix: str = "fusion") -> list[tuple[str, Tensor]]:
        return [
            (f"{prefix}.w1", self.w1), (f"{prefix}.b1", self.b1),
            (f"{prefix}.w2", self.w2), (f"{prefix}.b2", self.b2),
            (f"{prefix}.w3", self.w3), (f"{prefix}.b3", self.b3),
        ]


@dataclass(frozen=True)
class Prediction:
    """Classifier output: pre-activation scalar and its sigmoid probability."""

    out: Tensor
    p: Tensor


def init_fusion(feature_dim: int, hidden: tuple[int, int],
                rng: np.random.Generator) -> FusionParams:
    in_dim = QUESTION_COUNT * (feature_dim + SCORE_DIM + 1)
    h1, h2 = hidden
    if h1 < 1 or h2 < 1:
        raise ContractError(f"hidden extents must be positive, got {hidden}")
    return FusionParams(
        w1=glorot_uniform((h1, in_dim), fan_in=in_dim, fan_out=h1, rng=rng),
        b1=Tensor(np.zeros(h1), requires_grad=True),
        w2=glorot_uniform((h2, h1), fan_in=h1, fan_out=h2, rng=rng),
        b2=Tensor(np.zeros(h2), requires_grad=True),
        w3=glorot_uniform((1, h2), fan_in=h2, fan_out=1, rng=rng),
        b3=Tensor(np.zeros(1), requires_grad=True),
    )


def encode_score(choice: int) -> np.ndarray:
    """One-hot of the 4-way answer choice."""
    if choice not in (1, 2, 3, 4):
        raise ContractError(f"choice must be in 1..4, got {choice}")
    onehot = np.zeros(SCORE_DIM)
    onehot[choice - 1] = 1.0
    return onehot


def fuse_question(a: Tensor, score: np.ndarray, time_s: float,
                  use_time: bool = True) -> Tensor:
    """Concatenate [video feature | one-hot score | time in seconds].

    With ``use_time`` off the time slot is zero, leaving the rest untouched.
    """
    if a.data.ndim != 1:
        raise ContractError(f"question feature must be a vector, got shape {a.shape}")
    score = np.asarray(score, dtype=np.float64)
    if score.shape != (SCORE_DIM,):
        raise ContractError(f"score must be a {SCORE_DIM}-dim one-hot, got shape {score.shape}")
    if not (np.isfinite(time_s) and time_s > 0):
        raise ContractError(f"answering time must be positive, got {time_s}")
    t_slot = float(time_s) if use_time else 0.0
    return concat([a, Tensor(score), Tensor(np.array([t_slot]))])


def predict_subject(question_vectors: list[Tensor], params: FusionParams) -> Prediction:
    """Run the fully-connected head on the 20 concatenated question vectors."""
    if len(question_vectors) != QUESTION_COUNT:
        raise ContractError(f"expected {QUESTION_COUNT} question vectors, got {len(question_vectors)}")
    x = concat(question_vectors)
    if x.shape != (params.input_dim,):
        raise ContractError(
            f"fused input is {x.shape[0]}-dim, head expects {params.input_dim}")
    h = relu(add(matmul(params.w1, x), params.b1))
    h = relu(add(matmul(params.w2, h), params.b2))
    out = reshape(add(matmul(params.w3, h), params.b3), ())
    return Prediction(out=out, p=sigmoid(out))


def clamp_prob(p: Tensor) -> Tensor:
    return clip(p, PROB_EPS, 1.0 - PROB_EPS)


def bce_loss(p: Tensor, label: int) -> Tensor:
    """Binary cross-entropy of a probability against a 0/1 label."""
    if label not in (0, 1):
        raise ContractError(f"label must be 0 or 1, got {label}")
    if p.shape != ():
        raise ContractError(f"probability must be a scalar, got shape {p.shape}")
    pc = clamp_prob(p)
    if label == 1:
        return mul_scalar(log(pc), -1.0)
    return mul_scalar(log(add_scalar(mul_scalar(pc, -1.0), 1.0)), -1.0)
