"""Redundancy-aware self-attention over a question's clip features.

Each of L stacked blocks updates clip i by a residual: the affinity-weighted,
normalized sum of differences (f_j - f_i) over the other clips, scaled by a
learned per-channel vector. Affinities are an embedded-Gaussian product of
two linear maps of the layer-0 features (Wang et al., Non-local Neural
Networks, CVPR 2018); an optional Gaussian kernel over clip positions decays
attention with temporal distance. A final element-wise mean pools the M clip
features into one question feature.

Reductions over the clip axis go through ``sum_sorted``, so two invariants
hold bitwise, not just approximately: identical input features pass through
unchanged (differences are exactly zero), and with the position kernel off,
permuting the clips permutes the outputs and leaves the pooled feature
untouched.

A question of two clips gets nothing from the blocks in difference mode.
The pair weights have a zeroed diagonal, so each clip's normalized residual
is the difference to the other clip, r1 = f2 - f1 = -r2, whatever the
weights; the mean pool cancels every block's update for any omega, psi, phi
or sigma, and returns the plain mean up to rounding. Only M >= 3 clips, or
``use_difference=False``, let attention change the question feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .numerics import (
    Tensor,
    add,
    clip,
    div,
    exp,
    glorot_uniform,
    matmul,
    mul,
    mul_scalar,
    reshape,
    stack,
    sub,
    sum_sorted,
    transpose,
)

__all__ = [
    "RasConfig",
    "RasParams",
    "ras_block",
    "aggregate",
    "encode_question",
    "init_ras",
]

# Affinity scores are clipped to +/- this bound to keep exp finite; the bound
# is far outside the range reached at trained parameter scales.
AFFINITY_EXPONENT_BOUND = 60.0


@dataclass(frozen=True)
class RasConfig:
    blocks: int = 5
    sigma: float = 10.0
    use_difference: bool = True
    use_delta: bool = True
    per_block_affinity: bool = False

    def __post_init__(self) -> None:
        if self.blocks < 0:
            raise ConfigError(f"block count must be >= 0, got {self.blocks}")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(f"sigma must be positive, got {self.sigma}")


@dataclass
class RasParams:
    omegas: list[Tensor]     # per-block channel scale, each (dim,)
    psi: Tensor              # (dim, dim)
    phi: Tensor              # (dim, dim)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        named = [(f"ras.omega{l}", w) for l, w in enumerate(self.omegas)]
        named.append(("ras.psi", self.psi))
        named.append(("ras.phi", self.phi))
        return named


def init_ras(dim: int, config: RasConfig, rng: np.random.Generator) -> RasParams:
    """Blocks start inert: zero channel scales make each block the identity."""
    omegas = [Tensor(np.zeros(dim), requires_grad=True) for _ in range(config.blocks)]
    psi = glorot_uniform((dim, dim), fan_in=dim, fan_out=dim, rng=rng)
    phi = glorot_uniform((dim, dim), fan_in=dim, fan_out=dim, rng=rng)
    return RasParams(omegas=omegas, psi=psi, phi=phi)


def _pair_weights(positions: list[int], config: RasConfig) -> np.ndarray:
    """Constant (M, M) factor: position kernel (or ones) with a zeroed diagonal."""
    m = np.asarray(positions, dtype=np.float64)
    if config.use_delta:
        weights = np.exp(-((m[:, None] - m[None, :]) ** 2) / config.sigma)
    else:
        weights = np.ones((m.size, m.size))
    np.fill_diagonal(weights, 0.0)
    return weights


def ras_block(states: Tensor, base: Tensor, positions: list[int],
              params: RasParams, config: RasConfig, layer: int) -> Tensor:
    """One attention block: states (M, dim) at layer-1 in, (M, dim) out.

    ``base`` supplies the features the affinities are computed from;
    ``layer`` is 1-based and selects the block's channel-scale vector.
    """
    if states.data.ndim != 2:
        raise ShapeError(f"states must be (M, dim), got {states.shape}")
    m, dim = states.shape
    if base.shape != states.shape:
        raise ContractError(f"base shape {base.shape} != states shape {states.shape}")
    if len(positions) != m:
        raise ContractError(f"{len(positions)} positions for {m} states")
    if any(p < 1 for p in positions):
        raise ContractError("positions are 1-based")
    if not 1 <= layer <= len(params.omegas):
        raise ContractError(f"layer {layer} outside 1..{len(params.omegas)}")
    if m == 1:
        return states  # no neighbors to attend over

    omega = params.omegas[layer - 1]
    scores = matmul(matmul(base, transpose(params.psi)),
                    transpose(matmul(base, transpose(params.phi))))
    bounded = clip(scores, -AFFINITY_EXPONENT_BOUND, AFFINITY_EXPONENT_BOUND)
    weights = mul(exp(bounded), Tensor(_pair_weights(positions, config)))

    others = reshape(states, (1, m, dim))
    if config.use_difference:
        term = sub(others, reshape(states, (m, 1, dim)))   # [i, j] = f_j - f_i
    else:
        term = others                                       # [i, j] = f_j
    weighted = mul(reshape(weights, (m, m, 1)), term)
    residual = div(sum_sorted(weighted, axis=1),
                   reshape(sum_sorted(weights, axis=1), (m, 1)))
    return add(states, mul(residual, reshape(omega, (1, dim))))


def aggregate(states: Tensor) -> Tensor:
    """Element-wise mean over clips: (M, dim) -> (dim,)."""
    if states.data.ndim != 2:
        raise ShapeError(f"aggregate expects (M, dim), got {states.shape}")
    return mul_scalar(sum_sorted(states, axis=0), 1.0 / states.shape[0])


def encode_question(features: list[Tensor], positions: list[int],
                    params: RasParams, config: RasConfig) -> Tensor:
    """Stack clip features, run the L blocks, pool to one question feature.

    Affinities come from the original (pre-attention) features unless
    ``per_block_affinity`` is set, in which case each block recomputes them
    from its own input using the same embedding matrices.
    """
    if not features:
        raise ContractError("a question must have at least one clip feature")
    if len(features) != len(positions):
        raise ContractError(f"{len(features)} features but {len(positions)} positions")
    if len(params.omegas) != config.blocks:
        raise ContractError(
            f"params hold {len(params.omegas)} blocks, config asks for {config.blocks}")
    states = stack(features)
    base = states
    for layer in range(1, config.blocks + 1):
        block_base = states if config.per_block_affinity else base
        states = ras_block(states, block_base, positions, params, config, layer)
    return aggregate(states)
