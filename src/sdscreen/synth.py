"""Synthetic screening dataset with planted, recoverable signal.

The generator mimics the disagreement structure between questionnaire result
and clinician label: labels are balanced, and a configurable fraction of
subjects land on the wrong side of the raw-sum threshold. Questionnaire sums
are drawn so the threshold is the only score information (conditional on the
threshold side, depressed and normal sums share one distribution), which pins
the questionnaire-only baseline accuracy at exactly 1 - disagreement_rate.

Video signal: every depressed subject gets a bright moving blob planted in a
sparse subset of each question's clip windows; controls get none. The windows
follow ``clipper``'s clip rule, so a planted clip k is clip k of ``segment``.
Answering times are log-normal with a label-dependent median shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clipper import clip_count, clip_stride
from .dataset import (
    QUESTION_COUNT,
    SDS_SUM_THRESHOLD,
    Dataset,
    Subject,
    save_frames,
    save_manifest,
    sds_sum_classify,
)
from .errors import ConfigError

__all__ = [
    "SynthConfig",
    "generate",
    "disagreement_cells",
]

# Raw-sum ranges per (label, threshold side). Both classes share a range on
# each side, so the sum carries no information beyond the threshold bit.
_SUM_ABOVE = (SDS_SUM_THRESHOLD, 64)
_SUM_BELOW = (32, SDS_SUM_THRESHOLD - 1)

_MOTIF_CLIP_FRACTION = (0.10, 0.20)


@dataclass(frozen=True)
class SynthConfig:
    n_subjects: int = 200
    fps: int = 25
    height: int = 110
    width: int = 110
    disagreement_rate: float = 0.20
    motif_strength: float = 0.7
    time_median_s: float = 6.0
    time_shift: float = 1.08
    time_sigma: float = 0.35
    time_min_s: float = 2.0
    time_max_s: float = 21.0
    noise_sigma: float = 0.02
    clip_len: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_subjects < 2 or self.n_subjects % 2:
            raise ConfigError(f"n_subjects must be an even integer >= 2, got {self.n_subjects}")
        if not 0.0 <= self.disagreement_rate < 0.5:
            raise ConfigError(f"disagreement_rate must lie in [0, 0.5), got {self.disagreement_rate}")
        k_exact = self.n_subjects * self.disagreement_rate
        k = int(round(k_exact))
        if abs(k - k_exact) > 1e-9 or k % 2:
            raise ConfigError(
                f"n_subjects * disagreement_rate = {k_exact} must be an even integer "
                "(disagreements split evenly across both labels)"
            )
        if self.fps < 1:
            raise ConfigError(f"fps must be a positive integer, got {self.fps}")
        if self.height < 8 or self.width < 8:
            raise ConfigError(f"frame extents must be >= 8, got {self.height}x{self.width}")
        # Written so that NaN fails each comparison.
        if not self.motif_strength >= 0:
            raise ConfigError(f"motif_strength must be >= 0, got {self.motif_strength}")
        if not 0 < self.time_min_s < self.time_max_s:
            raise ConfigError(
                f"need 0 < time_min_s < time_max_s, got {self.time_min_s}, {self.time_max_s}"
            )
        if not (self.time_median_s > 0 and self.time_sigma > 0 and self.time_shift > 0):
            raise ConfigError("time distribution parameters must be positive")
        if not self.noise_sigma >= 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        clip_stride(self.clip_len)  # refuses a clip_len no model accepts
        if self.seed < 0:
            raise ConfigError(f"synth_seed must be >= 0, got {self.seed}")


def _choices_for_sum(total: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Random 20-vector of choices in 1..4 whose sum is exactly ``total``."""
    assert QUESTION_COUNT <= total <= 4 * QUESTION_COUNT
    bump = np.zeros(QUESTION_COUNT, dtype=np.int64)
    remaining = total - QUESTION_COUNT
    while remaining:
        open_idx = np.flatnonzero(bump < 3)
        take = min(remaining, open_idx.size)
        picked = rng.choice(open_idx, size=take, replace=False)
        bump[picked] += 1
        remaining -= take
    return tuple(int(1 + b) for b in bump)


def _background(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Static low-frequency texture in roughly [0.25, 0.55]."""
    yy, xx = np.meshgrid(np.linspace(0, 1, h), np.linspace(0, 1, w), indexing="ij")
    base = np.full((h, w), 0.4)
    for _ in range(3):
        fy, fx = rng.uniform(1.0, 4.0, size=2)
        phase = rng.uniform(0, 2 * np.pi)
        base += 0.05 * np.cos(2 * np.pi * (fy * yy + fx * xx) + phase)
    return base


def _plant_motif(frames: np.ndarray, start: int, length: int, strength: float,
                 rng: np.random.Generator) -> None:
    """Add a bright blob moving linearly across frames [start, start+length)."""
    n, h, w = frames.shape
    radius = rng.uniform(0.08, 0.15) * min(h, w)
    margin = radius
    cy0 = rng.uniform(margin, h - margin)
    cx0 = rng.uniform(margin, w - margin)
    angle = rng.uniform(0, 2 * np.pi)
    travel = 0.5 * min(h, w)
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64),
                         np.arange(w, dtype=np.float64), indexing="ij")
    for step in range(length):
        frac = step / max(length - 1, 1)
        cy = np.clip(cy0 + travel * frac * np.sin(angle), 0, h - 1)
        cx = np.clip(cx0 + travel * frac * np.cos(angle), 0, w - 1)
        blob = strength * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * radius ** 2))
        frames[start + step] += blob


def _question_video(rng: np.random.Generator, cfg: SynthConfig, n_frames: int,
                    plant: bool) -> np.ndarray:
    h, w = cfg.height, cfg.width
    video = np.broadcast_to(_background(rng, h, w), (n_frames, h, w)).copy()
    if cfg.noise_sigma > 0:
        video += rng.normal(0.0, cfg.noise_sigma, size=video.shape)
    if plant:
        stride, n_clips = clip_stride(cfg.clip_len), clip_count(n_frames, cfg.clip_len)
        fraction = rng.uniform(*_MOTIF_CLIP_FRACTION)
        n_pick = max(1, int(round(fraction * n_clips)))
        picked = rng.choice(n_clips, size=min(n_pick, n_clips), replace=False)
        for clip_idx in np.sort(picked):
            _plant_motif(video, int(clip_idx) * stride, cfg.clip_len,
                         cfg.motif_strength, rng)
    return np.clip(np.rint(video * 255.0), 0, 255).astype(np.uint8)


def _draw_time(rng: np.random.Generator, cfg: SynthConfig, label: int) -> tuple[float, int]:
    """Answering time and its frame count; N = round(fps * t) holds exactly."""
    mu = np.log(cfg.time_median_s) + (np.log(cfg.time_shift) if label else 0.0)
    t = float(np.clip(np.exp(rng.normal(mu, cfg.time_sigma)), cfg.time_min_s, cfg.time_max_s))
    n = int(np.rint(cfg.fps * t))
    if n < cfg.clip_len:
        n = cfg.clip_len
        t = n / cfg.fps
    return t, n


def _cell_plan(cfg: SynthConfig) -> list[tuple[int, bool]]:
    """Per-subject (label, sds_agrees) pairs, labels alternating."""
    half, miss = cfg.n_subjects // 2, round(cfg.n_subjects * cfg.disagreement_rate) // 2
    depressed = [(1, True)] * (half - miss) + [(1, False)] * miss
    normal = [(0, True)] * (half - miss) + [(0, False)] * miss
    plan: list[tuple[int, bool]] = []
    for d, n in zip(depressed, normal):
        plan.extend((d, n))
    return plan


def _make_subject(index: int, label: int, agrees: bool, cfg: SynthConfig,
                  out_dir: Path) -> Subject:
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, index)))
    positive_sum = agrees if label == 1 else not agrees
    lo, hi = _SUM_ABOVE if positive_sum else _SUM_BELOW
    choices = _choices_for_sum(int(rng.integers(lo, hi + 1)), rng)

    sid = f"s{index:04d}"
    times: list[float] = []
    names: list[str] = []
    for q in range(QUESTION_COUNT):
        t, n_frames = _draw_time(rng, cfg, label)
        video = _question_video(rng, cfg, n_frames, plant=(label == 1))
        name = f"{sid}_q{q + 1:02d}.rasf"
        save_frames(out_dir / name, video)
        times.append(t)
        names.append(name)
    return Subject(sid, label, choices, tuple(times), tuple(names))


def generate(cfg: SynthConfig, out_dir: Path | str) -> Dataset:
    """Write a full dataset directory (manifest + frames files) and return it."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    subjects = [
        _make_subject(i, label, agrees, cfg, out_dir)
        for i, (label, agrees) in enumerate(_cell_plan(cfg))
    ]
    dataset = Dataset(fps=cfg.fps, height=cfg.height, width=cfg.width,
                      subjects=subjects, root=out_dir)
    save_manifest(dataset, out_dir / "manifest.txt")
    return dataset


def disagreement_cells(dataset: Dataset) -> tuple[int, int, int, int]:
    """Counts (dep & sds+, dep & sds-, norm & sds+, norm & sds-)."""
    cells = [0, 0, 0, 0]
    for s in dataset.subjects:
        positive = sds_sum_classify(s.choices)
        if s.label == 1:
            cells[0 if positive else 1] += 1
        else:
            cells[2 if positive else 3] += 1
    return tuple(cells)
