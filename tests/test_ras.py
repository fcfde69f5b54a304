"""Attention over clips checked against a scalar double-loop reference.

The reference below recomputes every pair weight with plain Python loops and
numpy scalars; it shares no code with the vectorized block. The vectorized
path must match it to 1e-12 across all flag combinations, and must satisfy
three bitwise identities: identical features pass through unchanged, a single
clip passes through unchanged, and permuting clips permutes outputs exactly.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdscreen.errors import ConfigError, ContractError
from sdscreen.numerics import Tape, Tensor, dot, stack
from sdscreen.numerics.gradcheck import gradcheck
from sdscreen.ras import (
    RasConfig,
    RasParams,
    aggregate,
    encode_question,
    init_ras,
    ras_block,
)


def oracle_block(states, base, positions, psi, phi, omega, sigma,
                 use_difference, use_delta):
    """Reference update for one block, one pair at a time."""
    m, dim = states.shape
    if m == 1:
        return states.copy()
    out = np.zeros_like(states)
    for i in range(m):
        num = np.zeros(dim)
        den = 0.0
        for j in range(m):
            if j == i:
                continue
            raw = float(np.dot(psi @ base[i], phi @ base[j]))
            raw = min(max(raw, -60.0), 60.0)
            w = float(np.exp(raw))
            if use_delta:
                w *= float(np.exp(-((positions[i] - positions[j]) ** 2) / sigma))
            term = states[j] - states[i] if use_difference else states[j]
            num = num + w * term
            den += w
        out[i] = states[i] + omega * (num / den)
    return out


def oracle_encode(features, positions, psi, phi, omegas, sigma,
                  use_difference, use_delta, per_block):
    states = np.stack(features)
    base = states.copy()
    for omega in omegas:
        source = states if per_block else base
        states = oracle_block(states, source.copy(), positions, psi, phi,
                              omega, sigma, use_difference, use_delta)
    return states.mean(axis=0)


def random_setup(seed, max_m=8, max_dim=16, blocks=2):
    r = np.random.default_rng(seed)
    m = int(r.integers(2, max_m + 1))
    dim = int(r.integers(2, max_dim + 1))
    feats = [r.normal(size=dim) for _ in range(m)]
    positions = sorted(r.choice(np.arange(1, 40), size=m, replace=False).tolist())
    psi = r.normal(size=(dim, dim)) * 0.3
    phi = r.normal(size=(dim, dim)) * 0.3
    omegas = [r.normal(size=dim) * 0.5 for _ in range(blocks)]
    sigma = float(r.uniform(2.0, 20.0))
    return m, dim, feats, positions, psi, phi, omegas, sigma


def make_params(psi, phi, omegas):
    return RasParams(
        omegas=[Tensor(w, requires_grad=True) for w in omegas],
        psi=Tensor(psi, requires_grad=True),
        phi=Tensor(phi, requires_grad=True),
    )


@pytest.mark.parametrize("use_difference", [True, False])
@pytest.mark.parametrize("use_delta", [True, False])
@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_block_matches_oracle_all_flag_combos(use_difference, use_delta, seed):
    m, dim, feats, positions, psi, phi, omegas, sigma = random_setup(seed, blocks=1)
    cfg = RasConfig(blocks=1, sigma=sigma, use_difference=use_difference,
                    use_delta=use_delta)
    params = make_params(psi, phi, omegas)
    # Scale 1e4 drives most scores far past the exponent bound of 60: the
    # clipped affinities must stay finite and still match the oracle. Huge
    # scores take adjacent positions, since a row whose scores all sit at -60
    # and whose neighbours are all far away would underflow to zero weight.
    for scale, where in ((1.0, positions), (1e4, list(range(1, m + 1)))):
        scaled = [f * scale for f in feats]
        states = stack([Tensor(f) for f in scaled])
        got = ras_block(states, states, where, params, cfg, layer=1).data
        want = oracle_block(np.stack(scaled), np.stack(scaled), where, psi, phi,
                            omegas[0], sigma, use_difference, use_delta)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("per_block", [True, False])
@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_stacked_encode_matches_oracle(per_block, seed):
    m, dim, feats, positions, psi, phi, omegas, sigma = random_setup(seed, blocks=3)
    cfg = RasConfig(blocks=3, sigma=sigma, per_block_affinity=per_block)
    params = make_params(psi, phi, omegas)
    got = encode_question([Tensor(f) for f in feats], positions, params, cfg).data
    want = oracle_encode(feats, positions, psi, phi, omegas, sigma,
                         use_difference=True, use_delta=True, per_block=per_block)
    assert np.max(np.abs(got - want)) <= 1e-12


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_identical_features_pass_through_bitwise(seed):
    r = np.random.default_rng(seed)
    m = int(r.integers(2, 9))
    dim = int(r.integers(2, 17))
    row = r.normal(size=dim)
    feats = [Tensor(row.copy()) for _ in range(m)]
    positions = list(range(1, m + 1))
    cfg = RasConfig(blocks=2, sigma=5.0)
    params = make_params(r.normal(size=(dim, dim)), r.normal(size=(dim, dim)),
                         [r.normal(size=dim), r.normal(size=dim)])
    states = stack(feats)
    out = ras_block(states, states, positions, params, cfg, layer=1)
    assert np.array_equal(out.data, states.data)
    # Pooling averages m bitwise-identical rows; only the summation rounds.
    pooled = encode_question(feats, positions, params, cfg)
    assert np.allclose(pooled.data, row, rtol=1e-14, atol=0)


def test_single_clip_identity():
    r = np.random.default_rng(0)
    feat = r.normal(size=6)
    cfg = RasConfig(blocks=3, sigma=10.0)
    params = make_params(r.normal(size=(6, 6)), r.normal(size=(6, 6)),
                         [r.normal(size=6) for _ in range(3)])
    out = encode_question([Tensor(feat)], [1], params, cfg)
    assert np.array_equal(out.data, feat)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_permutation_equivariance_bitwise(seed):
    m, dim, feats, positions, psi, phi, omegas, sigma = random_setup(seed, blocks=2)
    params = make_params(psi, phi, omegas)
    perm = np.random.default_rng(seed + 1).permutation(m)

    # Position kernel off: permuting the features permutes the outputs.
    cfg = RasConfig(blocks=2, sigma=sigma, use_delta=False)
    base_out = encode_question([Tensor(f) for f in feats], positions, params, cfg)
    perm_out = encode_question([Tensor(feats[p]) for p in perm], positions,
                               params, cfg)
    assert np.array_equal(base_out.data, perm_out.data)

    # Position kernel on: permuting features and positions together.
    cfg = RasConfig(blocks=2, sigma=sigma, use_delta=True)
    base_out = encode_question([Tensor(f) for f in feats], positions, params, cfg)
    perm_out = encode_question([Tensor(feats[p]) for p in perm],
                               [positions[p] for p in perm], params, cfg)
    assert np.array_equal(base_out.data, perm_out.data)


def test_two_clip_unit_scale_swaps_states():
    # Zero embeddings make every pair weight equal, so with two clips the
    # normalized difference is exactly (f_other - f_self); a unit channel
    # scale then maps each state onto the other one.
    r = np.random.default_rng(1)
    f1, f2 = r.normal(size=4), r.normal(size=4)
    cfg = RasConfig(blocks=1, sigma=10.0)
    params = make_params(np.zeros((4, 4)), np.zeros((4, 4)), [np.ones(4)])
    states = stack([Tensor(f1), Tensor(f2)])
    out = ras_block(states, states, [1, 2], params, cfg, layer=1).data
    assert np.allclose(out[0], f2, atol=1e-15)
    assert np.allclose(out[1], f1, atol=1e-15)


def test_half_scale_averages_two_states():
    r = np.random.default_rng(2)
    f1, f2 = r.normal(size=3), r.normal(size=3)
    cfg = RasConfig(blocks=1, sigma=10.0)
    params = make_params(np.zeros((3, 3)), np.zeros((3, 3)), [np.full(3, 0.5)])
    states = stack([Tensor(f1), Tensor(f2)])
    out = ras_block(states, states, [1, 2], params, cfg, layer=1).data
    assert np.allclose(out[0], (f1 + f2) / 2.0, atol=1e-15)
    assert np.allclose(out[1], (f1 + f2) / 2.0, atol=1e-15)


def test_zero_scale_blocks_are_identity():
    r = np.random.default_rng(3)
    feats = [r.normal(size=5) for _ in range(4)]
    cfg = RasConfig(blocks=5, sigma=10.0)
    params = init_ras(5, cfg, r)  # fresh blocks start inert
    out = encode_question([Tensor(f) for f in feats], [1, 2, 3, 4], params, cfg)
    assert np.array_equal(out.data, np.sort(np.stack(feats), axis=0).sum(axis=0) / 4.0)


def test_zero_blocks_is_plain_mean():
    r = np.random.default_rng(4)
    feats = [r.normal(size=3) for _ in range(3)]
    cfg = RasConfig(blocks=0, sigma=10.0)
    params = init_ras(3, cfg, r)
    out = encode_question([Tensor(f) for f in feats], [1, 2, 3], params, cfg)
    assert np.allclose(out.data, np.stack(feats).mean(axis=0))


@pytest.mark.parametrize("m", [2, 3])
def test_two_clips_in_difference_mode_pool_to_the_plain_mean(m):
    # With two clips the residuals are r1 = f2 - f1 = -r2 for any weights,
    # so the mean pool cancels every block's update; a third clip breaks it.
    r = np.random.default_rng(7)
    feats = [r.normal(size=6) for _ in range(m)]
    cfg = RasConfig(blocks=3, sigma=10.0)
    params = make_params(r.normal(size=(6, 6)) * 0.3, r.normal(size=(6, 6)) * 0.3,
                         [r.normal(size=6) * 0.5 for _ in range(3)])
    assert all(np.all(w.data != 0.0) for w in params.omegas)
    out = encode_question([Tensor(f) for f in feats], list(range(1, m + 1)), params, cfg)
    gap = np.abs(out.data - np.stack(feats).mean(axis=0)).max()
    if m == 2:
        assert gap <= 1e-15
    else:
        assert gap > 1e-3


def test_contract_errors():
    r = np.random.default_rng(6)
    cfg = RasConfig(blocks=2, sigma=10.0)
    params = init_ras(4, cfg, r)
    feats = [Tensor(r.normal(size=4)) for _ in range(3)]
    with pytest.raises(ContractError):
        encode_question(feats, [1, 2], params, cfg)  # position count mismatch
    with pytest.raises(ContractError):
        encode_question([], [], params, cfg)
    with pytest.raises(ContractError):
        encode_question(feats, [1, 2, 3], params, RasConfig(blocks=3, sigma=10.0))
    states = stack(feats)
    with pytest.raises(ContractError):
        ras_block(states, states, [0, 1, 2], params, cfg, layer=1)
    with pytest.raises(ContractError):
        ras_block(states, states, [1, 2, 3], params, cfg, layer=3)


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
def test_config_rejects_nonpositive_or_nonfinite_sigma(sigma):
    with pytest.raises(ConfigError):
        RasConfig(blocks=1, sigma=sigma)
    with pytest.raises(ConfigError):
        dataclasses.replace(RasConfig(blocks=1), sigma=sigma)


def test_encode_question_gradcheck_two_blocks():
    r = np.random.default_rng(7)
    dim, m = 8, 3
    feats = [Tensor(r.normal(size=dim), requires_grad=True) for _ in range(m)]
    cfg = RasConfig(blocks=2, sigma=4.0)
    params = make_params(r.normal(size=(dim, dim)) * 0.3,
                         r.normal(size=(dim, dim)) * 0.3,
                         [r.normal(size=dim) * 0.5 for _ in range(2)])
    probe = Tensor(r.normal(size=dim))
    plist = feats + [p for _, p in params.named_parameters()]

    def fn():
        return dot(encode_question(feats, [1, 3, 4], params, cfg), probe)

    assert gradcheck(fn, plist) < 1e-4


def test_gradient_flows_to_embeddings_and_scales():
    r = np.random.default_rng(8)
    dim = 5
    feats = [Tensor(r.normal(size=dim)) for _ in range(4)]
    cfg = RasConfig(blocks=2, sigma=6.0)
    params = make_params(r.normal(size=(dim, dim)), r.normal(size=(dim, dim)),
                         [r.normal(size=dim) for _ in range(2)])
    probe = Tensor(r.normal(size=dim))
    with Tape() as tape:
        loss = dot(encode_question(feats, [1, 2, 3, 5], params, cfg), probe)
    tape.backward(loss)
    for name, p in params.named_parameters():
        assert p.grad is not None and np.any(p.grad != 0.0), name


def test_aggregate_is_mean():
    states = stack([Tensor(np.array([1.0, 5.0])), Tensor(np.array([3.0, 7.0]))])
    assert np.array_equal(aggregate(states).data, [2.0, 6.0])
