"""Whole-subject model: encoder + attention + fusion, with mode variants.

A mode is a list of fusion heads, each fed [video | score | time] per question
with the slots it does not see zeroed (HEADS):
    full   one head that sees video and scores
    video  one head that sees video only
    mlp    one head that sees scores only; no head sees video, so the encoder
           and attention are skipped entirely
    slf    a video-only and a score-only head, trained jointly; the subject
           probability is the average of theirs

A checkpoint is a fold's whole resumable state: every parameter, the optimizer
moments, the finished epochs' history rows and the model config it was trained with.
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .clipper import segment
from .dataset import QUESTION_COUNT, Dataset, Subject, load_question_frames
from .encoder3d import EncoderParams, build_plan, encode_question_clips, init_encoder
from .errors import ConfigError, FormatError
from .fusion import (
    SCORE_DIM,
    FusionParams,
    Prediction,
    clamp_prob,
    encode_score,
    fuse_question,
    init_fusion,
    predict_subject,
)
from .numerics import (
    Tensor,
    add,
    add_scalar,
    div,
    load_container,
    log,
    mul_scalar,
    write_container,
)
from .ras import RasConfig, RasParams, encode_question, init_ras
from .settings import flatten

__all__ = [
    "MODES",
    "ModelConfig",
    "ModelParams",
    "init_model",
    "named_parameters",
    "SubjectVideo",
    "load_subject_video",
    "subject_forward",
    "HistoryRow",
    "save_checkpoint",
    "load_checkpoint",
]

# What each head of a mode sees, as (video, score). meta.model stores a mode
# as its index in MODES, so the order is fixed.
HEADS: dict[str, tuple[tuple[bool, bool], ...]] = {
    "full": ((True, True),),
    "video": ((True, False),),
    "mlp": ((False, True),),
    "slf": ((True, False), (False, True)),
}
MODES = tuple(HEADS)


@dataclass(frozen=True)
class ModelConfig:
    input_hw: int = 110
    clip_len: int = 10
    base_channels: int = 16
    feature_dim: int = 128
    hidden: tuple[int, int] = (1024, 256)
    blocks: int = 5
    sigma: float = 10.0
    use_difference: bool = True
    use_delta: bool = True
    per_block_affinity: bool = False
    use_time: bool = True
    mode: str = "full"
    init_seed: int = 0

    @property
    def needs_video(self) -> bool:
        """A mode with no head that sees video skips the encoder and attention."""
        return any(sees_video for sees_video, _ in HEADS[self.mode])

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.init_seed < 0:
            raise ConfigError(f"init_seed must be >= 0, got {self.init_seed}")
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {self.hidden}")
        self.ras_config()  # RasConfig refuses its own bad values when built
        build_plan(self.input_hw, self.clip_len, self.base_channels, self.feature_dim)

    def ras_config(self) -> RasConfig:
        return RasConfig(**{f.name: getattr(self, f.name) for f in fields(RasConfig)})


@dataclass
class ModelParams:
    config: ModelConfig
    encoder: EncoderParams
    ras: RasParams
    heads: list[FusionParams]


def init_model(config: ModelConfig) -> ModelParams:
    rng = np.random.default_rng(np.random.SeedSequence((config.init_seed, 0xD0)))
    plan = build_plan(config.input_hw, config.clip_len, config.base_channels,
                      config.feature_dim)
    encoder = init_encoder(plan, rng)
    ras = init_ras(config.feature_dim, config.ras_config(), rng)
    heads = [init_fusion(config.feature_dim, config.hidden, rng) for _ in HEADS[config.mode]]
    return ModelParams(config, encoder, ras, heads)


def named_parameters(params: ModelParams) -> list[tuple[str, Tensor]]:
    """Every learnable tensor in a fixed, stable order."""
    named = params.encoder.named_parameters()
    named += params.ras.named_parameters()
    for i, head in enumerate(params.heads):
        named += head.named_parameters(f"fusion{i + 1}" if i else "fusion")
    return named


@dataclass
class SubjectVideo:
    """One subject's per-question uint8 frames, segmented on demand."""

    frames: list[np.ndarray]


def load_subject_video(dataset: Dataset, subject: Subject) -> SubjectVideo:
    return SubjectVideo([load_question_frames(dataset, subject, q) for q in range(QUESTION_COUNT)])


def _question_features(params: ModelParams, video: SubjectVideo) -> list[Tensor]:
    questions = [segment(frames, clip_len=params.config.clip_len) for frames in video.frames]
    return [encode_question(clip_features, positions, params.ras, params.config.ras_config())
            for clip_features, positions in encode_question_clips(questions, params.encoder)]


def _fused(params: ModelParams, feats: list[Tensor] | None, subject: Subject,
           sees_video: bool, sees_score: bool) -> list[Tensor]:
    zero = None if sees_video else Tensor(np.zeros(params.config.feature_dim))
    return [fuse_question(feats[q] if sees_video else zero,
                          encode_score(subject.choices[q]) if sees_score else np.zeros(SCORE_DIM),
                          subject.times[q], use_time=params.config.use_time)
            for q in range(QUESTION_COUNT)]


def subject_forward(params: ModelParams, subject: Subject,
                    video: SubjectVideo | None) -> Prediction:
    """Predict one subject. ``video`` may be None only when no head sees video."""
    feats = None
    if params.config.needs_video:
        if video is None:
            raise ConfigError(f"mode {params.config.mode!r} needs video input")
        feats = _question_features(params, video)
    preds = [predict_subject(_fused(params, feats, subject, sees_video, sees_score), head)
             for (sees_video, sees_score), head in zip(HEADS[params.config.mode], params.heads)]
    if len(preds) == 1:
        return preds[0]
    # Average the heads' probabilities, then recover the pre-activation scalar
    # so downstream code sees the usual (out, p) pair.
    p = mul_scalar(add(preds[0].p, preds[1].p), 0.5)
    pc = clamp_prob(p)
    out = log(div(pc, add_scalar(mul_scalar(pc, -1.0), 1.0)))
    return Prediction(out=out, p=p)


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class HistoryRow:
    epoch: int
    loss: float
    train_acc: float
    val_acc: float


def _model_settings(c: ModelConfig) -> dict[str, object]:
    """Every config key but init_seed, which only picks the starting weights a
    checkpoint replaces; mode is its index in MODES."""
    flat = flatten(c)
    del flat["init_seed"]
    flat["mode"] = MODES.index(c.mode)
    return flat


# The meta.model slots, named as the CLI config keys.
_MODEL_KEYS = tuple(_model_settings(ModelConfig()))


def _model_vector(c: ModelConfig) -> np.ndarray:
    return np.array(list(_model_settings(c).values()), dtype=np.float64)


def save_checkpoint(path: Path | str, params: ModelParams,
                    adam_m: dict[str, np.ndarray], adam_v: dict[str, np.ndarray],
                    adam_t: int, history: list[HistoryRow]) -> None:
    """Atomic against a killed process: written beside ``path``, then renamed."""
    entries: dict[str, np.ndarray] = {}
    for name, tensor in named_parameters(params):
        entries[f"param.{name}"] = tensor.data
        entries[f"adam.m.{name}"] = adam_m[name]
        entries[f"adam.v.{name}"] = adam_v[name]
    entries["adam.t"] = np.array(float(adam_t))
    entries["meta.history"] = np.array([astuple(r) for r in history], np.float64).reshape(-1, 4)
    entries["meta.model"] = _model_vector(params.config)
    tmp = Path(f"{path}.tmp")
    with open(tmp, "wb") as f:
        write_container(f, entries)
    os.replace(tmp, path)


def _pop(entries: dict[str, np.ndarray], key: str) -> np.ndarray:
    if key not in entries:
        raise FormatError(f"checkpoint lacks entry {key!r}")
    return entries.pop(key)


def _pop_count(entries: dict[str, np.ndarray], key: str) -> int:
    """Take a counter entry: a 0-d, finite, non-negative, integral value."""
    arr = _pop(entries, key)
    if arr.shape != ():
        raise FormatError(f"checkpoint entry {key!r} has shape {arr.shape}, expected a scalar")
    value = float(arr)
    if not (np.isfinite(value) and value >= 0 and value == int(value)):
        raise FormatError(f"checkpoint entry {key!r} holds {value}, expected a count >= 0")
    return int(value)


def _pop_history(entries: dict[str, np.ndarray]) -> list[HistoryRow]:
    """Rows of epochs 1..n, finite losses, accuracies in [0, 1] (val_acc NaN: no validation)."""
    history = _pop(entries, "meta.history")
    if history.ndim != 2 or history.shape[1] != 4:
        raise FormatError(f"checkpoint entry 'meta.history' has shape {history.shape}, not (n, 4)")
    epoch, loss, train_acc, val_acc = history.T
    if not np.array_equal(epoch, np.arange(1, len(history) + 1)):
        raise FormatError("checkpoint entry 'meta.history' does not hold epochs 1..n in order")
    if not (np.isfinite(loss).all() and ((train_acc >= 0) & (train_acc <= 1)).all()
            and (((val_acc >= 0) & (val_acc <= 1)) | np.isnan(val_acc)).all()):
        raise FormatError("checkpoint entry 'meta.history' holds a non-finite loss "
                          "or an accuracy outside [0, 1]")
    return [HistoryRow(int(row[0]), *row[1:]) for row in history.tolist()]


def load_checkpoint(path: Path | str, params: ModelParams
                    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], int,
                               list[HistoryRow]]:
    """Load weights into ``params`` in place; returns (m, v, t, history).

    Raises FormatError on damaged or foreign bytes and ConfigError when the
    checkpoint was trained with a model config other than ``params.config``.
    """
    path = Path(path)
    if not path.is_file():
        raise FormatError(f"checkpoint missing: {path}")
    with open(path, "rb") as f:
        entries = load_container(f)
    adam_m: dict[str, np.ndarray] = {}
    adam_v: dict[str, np.ndarray] = {}
    for name, tensor in named_parameters(params):
        for prefix, sink in (("param.", None), ("adam.m.", adam_m), ("adam.v.", adam_v)):
            key = prefix + name
            arr = _pop(entries, key)
            if arr.shape != tensor.data.shape:
                raise FormatError(
                    f"checkpoint entry {key!r} has shape {arr.shape}, "
                    f"model expects {tensor.data.shape}")
            lo, hi = arr.min(), arr.max()  # NaN propagates through both
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise FormatError(f"checkpoint entry {key!r} holds non-finite values")
            if sink is adam_v and lo < 0:
                raise FormatError(f"checkpoint entry {key!r} holds negative values")
            if sink is None:
                tensor.data = np.ascontiguousarray(arr)
            else:
                sink[name] = arr
    adam_t = _pop_count(entries, "adam.t")
    history = _pop_history(entries)
    stored = _pop(entries, "meta.model")
    if entries:
        raise FormatError(f"checkpoint has unexpected entries: {sorted(entries)[:4]}")
    wanted = _model_vector(params.config)
    if stored.shape != wanted.shape:
        raise FormatError(f"checkpoint entry 'meta.model' has shape {stored.shape}, "
                          f"expected {wanted.shape}")
    differ = [k for k, a, b in zip(_MODEL_KEYS, stored, wanted) if a != b]
    if differ:
        raise ConfigError(f"{path} was trained with other model settings: "
                          f"{', '.join(differ)} differ")
    return adam_m, adam_v, adam_t, history
