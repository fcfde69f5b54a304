"""Plain-numpy forward pass of the screening model, written apart from sdscreen.

It shares no code with the program: frames are cut into clips here, each
convolution is a sum of one matrix product per kernel offset, the attention
follows the pairwise formula one clip at a time, and the head is three matrix
products. The only inputs are the raw frames, the questionnaire answers and a
name -> array map of the weights, so a fault in the program's clipper,
im2col convolution, batched attention or fusion shows as a disagreement.

Only the default model variant is covered (mode ``full``, difference term,
position kernel, shared affinities, time slot on), which is the one the
benchmark workloads train.
"""

from __future__ import annotations

import itertools

import numpy as np

AFFINITY_BOUND = 60.0


def clips(frames: np.ndarray, clip_len: int) -> list[np.ndarray]:
    """(N, H, W) uint8 frames -> half-overlapping (H, W, clip_len, 1) clips in [0, 1]."""
    stride = clip_len // 2
    scaled = frames.astype(np.float64) / 255.0
    count = (frames.shape[0] - clip_len) // stride + 1
    return [np.moveaxis(scaled[k * stride:k * stride + clip_len], 0, -1)[..., None]
            for k in range(count)]


def conv3d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
           spatial_pad: int, temporal_pad: int) -> np.ndarray:
    """x (H, W, T, Cin), kernel (Cout, kh, kw, kt, Cin): one product per offset."""
    _, kh, kw, kt, _ = kernel.shape
    xp = np.pad(x, ((spatial_pad,) * 2, (spatial_pad,) * 2, (temporal_pad,) * 2, (0, 0)))
    oh, ow, ot = xp.shape[0] - kh + 1, xp.shape[1] - kw + 1, xp.shape[2] - kt + 1
    out = np.broadcast_to(bias, (oh, ow, ot, bias.size)).copy()
    for dh, dw, dt in itertools.product(range(kh), range(kw), range(kt)):
        out += xp[dh:dh + oh, dw:dw + ow, dt:dt + ot, :] @ kernel[:, dh, dw, dt, :].T
    return out


def maxpool3d(x: np.ndarray, ph: int, pw: int, pt: int) -> np.ndarray:
    h, w, t, c = x.shape
    return x.reshape(h // ph, ph, w // pw, pw, t // pt, pt, c).max(axis=(1, 3, 5))


def encode_clip(clip: np.ndarray, weights: dict[str, np.ndarray]) -> np.ndarray:
    """Stages of conv (temporal pad 1) + ReLU + 2x2 pool, the last pooling T
    too; then a valid conv to 1x1x1, ReLU and a linear layer."""
    stages = sum(1 for name in weights if name.startswith("enc.conv") and name.endswith(".kernel"))
    x = clip
    for i in range(stages):
        x = np.maximum(conv3d(x, weights[f"enc.conv{i}.kernel"], weights[f"enc.conv{i}.bias"], 0, 1), 0.0)
        x = maxpool3d(x, 2, 2, 2 if i == stages - 1 else 1)
    x = np.maximum(conv3d(x, weights["enc.final.kernel"], weights["enc.final.bias"], 0, 0), 0.0)
    return weights["enc.fc.weight"] @ x.reshape(-1) + weights["enc.fc.bias"]


def attend(features: np.ndarray, weights: dict[str, np.ndarray], sigma: float) -> np.ndarray:
    """Stacked RAS blocks over one question's (M, dim) clip features, then the mean.

    Block l moves clip i by omega_l * sum_j w_ij (f_j - f_i) / sum_j w_ij over
    j != i, with w_ij = exp(clip((psi f0_i) . (phi f0_j))) exp(-(i - j)^2 / sigma)
    computed from the block-0 features f0.
    """
    m = features.shape[0]
    blocks = sum(1 for name in weights if name.startswith("ras.omega"))
    states = features
    if m > 1:
        psi_f = features @ weights["ras.psi"].T
        phi_f = features @ weights["ras.phi"].T
        pos = np.arange(1, m + 1, dtype=np.float64)
        for layer in range(blocks):
            updated = np.empty_like(states)
            for i in range(m):
                w = np.exp(np.clip(phi_f @ psi_f[i], -AFFINITY_BOUND, AFFINITY_BOUND))
                w = w * np.exp(-((pos - pos[i]) ** 2) / sigma)
                w[i] = 0.0
                residual = (w[:, None] * (states - states[i])).sum(axis=0) / w.sum()
                updated[i] = states[i] + weights[f"ras.omega{layer}"] * residual
            states = updated
    return states.mean(axis=0)


def forward(question_frames: list[np.ndarray], choices: tuple[int, ...],
            times: tuple[float, ...], weights: dict[str, np.ndarray],
            clip_len: int, sigma: float) -> tuple[float, float]:
    """Return (logit, probability) of one subject."""
    slots = []
    for frames, choice, time_s in zip(question_frames, choices, times):
        feats = np.stack([encode_clip(c, weights) for c in clips(frames, clip_len)])
        onehot = np.eye(4)[choice - 1]
        slots.append(np.concatenate([attend(feats, weights, sigma), onehot, [time_s]]))
    x = np.concatenate(slots)
    h = np.maximum(weights["fusion.w1"] @ x + weights["fusion.b1"], 0.0)
    h = np.maximum(weights["fusion.w2"] @ h + weights["fusion.b2"], 0.0)
    logit = float((weights["fusion.w3"] @ h + weights["fusion.b3"])[0])
    e = np.exp(-abs(logit))
    return logit, float(1.0 / (1.0 + e) if logit >= 0 else e / (1.0 + e))
