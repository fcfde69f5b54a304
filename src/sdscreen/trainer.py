"""Adam optimization, the epoch loop, and cross-validation orchestration.

Reproducibility contract: everything random derives from (master seed, epoch)
or (master seed, purpose) seed sequences, parameters update in the fixed
``named_parameters`` order, and history rows serialize floats with ``repr``,
so identical runs produce byte-identical artifacts.
A fold reads a subject's frames for each forward and drops them after it, so
a training step holds one batch's frames however many subjects the fold has.
Every accuracy, sensitivity and specificity, the history's per-epoch ones
included, comes from ``metrics.confusion``, the one place that applies the
screening threshold; ``evaluate_probs`` and ``evaluate_metrics`` screen and
score a fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Dataset, Subject
from .errors import ConfigError, NumericError, UndefinedMetricError
from .fusion import bce_loss
from .metrics import accuracy, confusion, roc_auc, sensitivity, specificity
from .model import (
    HistoryRow,
    ModelConfig,
    ModelParams,
    SubjectVideo,
    init_model,
    load_checkpoint,
    load_subject_video,
    named_parameters,
    save_checkpoint,
    subject_forward,
)
from .numerics import Tape, Tensor, mean_over_set

__all__ = [
    "AdamState",
    "TrainConfig",
    "HistoryRow",
    "init_adam",
    "adam_step",
    "zero_grads",
    "kfold_split",
    "fold_subject_sets",
    "train",
    "load_videos",
    "evaluate_probs",
    "evaluate_metrics",
    "history_to_csv",
    "run_fold",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    lr: float
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def init_adam(named: list[tuple[str, Tensor]], lr: float) -> AdamState:
    if lr < 0:
        raise ConfigError(f"learning rate must be >= 0, got {lr}")
    state = AdamState(lr=lr)
    for name, tensor in named:
        state.m[name] = np.zeros_like(tensor.data)
        state.v[name] = np.zeros_like(tensor.data)
    return state


def adam_step(named: list[tuple[str, Tensor]], state: AdamState) -> None:
    """One bias-corrected update over all parameters, fixed order.

    A parameter without an accumulated gradient counts as zero gradient.
    """
    state.t += 1
    b1t = 1.0 - ADAM_BETA1 ** state.t
    b2t = 1.0 - ADAM_BETA2 ** state.t
    for name, tensor in named:
        if name not in state.m:
            raise ConfigError(f"optimizer state lacks parameter {name!r}")
        g = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        tensor.data = tensor.data - state.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


def zero_grads(named: list[tuple[str, Tensor]]) -> None:
    for _, tensor in named:
        tensor.zero_grad()


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 2
    lr: float = 1e-3
    threshold: float = 0.5
    folds: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr >= 0:  # NaN fails too
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold must lie in [0, 1], got {self.threshold}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def kfold_split(subject_ids: list[str], k: int = 5, seed: int = 0) -> list[list[str]]:
    """Disjoint shuffled folds covering all ids, sizes differing by at most 1."""
    n = len(subject_ids)
    if k < 2:
        raise ConfigError(f"fold count must be >= 2, got {k}")
    if k > n:
        raise ConfigError(f"cannot split {n} subjects into {k} folds")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xF01D)))
    order = rng.permutation(n)
    base, extra = divmod(n, k)
    folds: list[list[str]] = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append([subject_ids[j] for j in order[start:start + size]])
        start += size
    return folds


# ---------------------------------------------------------------------------
# training loop


def history_to_csv(rows: list[HistoryRow]) -> str:
    lines = ["epoch,loss,train_acc,val_acc"]
    for r in rows:
        lines.append(f"{r.epoch},{float(r.loss)!r},{float(r.train_acc)!r},{float(r.val_acc)!r}")
    return "\n".join(lines) + "\n"


def _subject_video(dataset: Dataset, subject: Subject, needs_video: bool) -> SubjectVideo | None:
    """The subject's frames, read from disk now; None when no head sees video."""
    return load_subject_video(dataset, subject) if needs_video else None


def load_videos(dataset: Dataset, subjects: list[Subject],
                needs_video: bool) -> dict[str, SubjectVideo | None]:
    """Every subject's video at once. The fold never holds this dict; it is
    for callers that screen one set many times, as the benchmark's set-up does."""
    return {s.subject_id: _subject_video(dataset, s, needs_video) for s in subjects}


def evaluate_probs(dataset: Dataset, params: ModelParams, subjects: list[Subject]) -> np.ndarray:
    """Forward every subject without recording gradients."""
    needs_video = params.config.needs_video
    return np.array([subject_forward(params, s, _subject_video(dataset, s, needs_video)).p.item()
                     for s in subjects])


METRIC_KEYS = ("accuracy", "sensitivity", "specificity", "auc")


def evaluate_metrics(probs: np.ndarray, labels: np.ndarray,
                     threshold: float = 0.5) -> dict[str, float]:
    """The METRIC_KEYS metrics; undefined entries become NaN instead of raising."""
    counts = confusion(probs, labels, threshold)
    report: dict[str, float] = {}
    for key, fn in zip(METRIC_KEYS, (accuracy, sensitivity, specificity,
                                     lambda _: roc_auc(probs, labels))):
        try:
            report[key] = fn(counts)
        except UndefinedMetricError:
            report[key] = float("nan")
    return report


def train(dataset: Dataset, params: ModelParams, train_subjects: list[Subject],
          val_subjects: list[Subject], cfg: TrainConfig,
          state: AdamState | None = None, history: list[HistoryRow] | None = None,
          checkpoint_path: Path | str | None = None
          ) -> tuple[AdamState, list[HistoryRow], np.ndarray | None]:
    """Run epochs len(history)+1 .. cfg.epochs; returns optimizer state, the
    full history and the last epoch's validation probabilities (None when no
    epoch ran or there are no validation subjects). Every epoch's checkpoint
    holds the full history so far.

    Passing the state and history restored from a checkpoint continues the
    run and reproduces exactly what an uninterrupted run would have produced.
    """
    if not train_subjects:
        raise ConfigError("no training subjects")
    named = named_parameters(params)
    if state is None:
        state = init_adam(named, cfg.lr)
    else:
        state.lr = cfg.lr

    history = list(history or [])
    needs_video = params.config.needs_video
    train_labels = np.array([s.label for s in train_subjects])
    val_labels = np.array([s.label for s in val_subjects])

    val_probs = None
    for epoch in range(len(history) + 1, cfg.epochs + 1):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, epoch)))
        order = rng.permutation(len(train_subjects))
        batch_losses: list[float] = []
        epoch_probs: dict[str, float] = {}
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_subjects[i] for i in order[start:start + cfg.batch_size]]
            zero_grads(named)
            with Tape() as tape:
                losses = []
                for s in batch:
                    pred = subject_forward(params, s, _subject_video(dataset, s, needs_video))
                    epoch_probs[s.subject_id] = pred.p.item()
                    losses.append(bce_loss(pred.p, s.label))
                batch_loss = mean_over_set(losses)
            tape.backward(batch_loss)
            adam_step(named, state)
            batch_losses.append(batch_loss.item())

        train_acc = accuracy(confusion([epoch_probs[s.subject_id] for s in train_subjects],
                                       train_labels, cfg.threshold))
        if val_subjects:
            val_probs = evaluate_probs(dataset, params, val_subjects)
            val_acc = accuracy(confusion(val_probs, val_labels, cfg.threshold))
        else:
            val_acc = float("nan")
        history.append(HistoryRow(epoch=epoch, loss=float(np.mean(batch_losses)),
                                  train_acc=train_acc, val_acc=val_acc))
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, params, state.m, state.v, state.t, history)
    return state, history, val_probs


def fold_subject_sets(dataset: Dataset, k: int, seed: int,
                      fold_index: int) -> tuple[list[Subject], list[Subject]]:
    """The (train, validation) subjects of one cross-validation fold."""
    ids = [s.subject_id for s in dataset.subjects]
    folds = kfold_split(ids, k=k, seed=seed)
    if not 0 <= fold_index < k:
        raise ConfigError(f"fold index {fold_index} outside 0..{k - 1}")
    val_ids = set(folds[fold_index])
    by_id = {s.subject_id: s for s in dataset.subjects}
    train_subjects = [by_id[i] for i in ids if i not in val_ids]
    val_subjects = [by_id[i] for i in folds[fold_index]]
    return train_subjects, val_subjects


def run_fold(dataset: Dataset, model_cfg: ModelConfig, train_cfg: TrainConfig,
             fold_index: int, out_dir: Path | str,
             resume: bool = False) -> tuple[list[HistoryRow], dict[str, float]]:
    """Train one fold; the checkpoint is its only resumable state, the history CSV an output."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / f"fold{fold_index}.ckpt"
    history_path = out_dir / f"fold{fold_index}_history.csv"

    params = init_model(model_cfg)
    state, history = None, []
    # A fold with no checkpoint yet (a run killed in its first epoch) starts at epoch 1.
    restored = resume and ckpt_path.exists()
    if restored:
        m, v, t, history = load_checkpoint(ckpt_path, params)
        state = AdamState(lr=train_cfg.lr, m=m, v=v, t=t)

    train_subjects, val_subjects = fold_subject_sets(
        dataset, train_cfg.folds, train_cfg.seed, fold_index)
    state, history, probs = train(dataset, params, train_subjects, val_subjects, train_cfg,
                                  state=state, history=history, checkpoint_path=ckpt_path)
    history_path.write_text(history_to_csv(history), encoding="utf-8")
    if probs is None:  # no epoch ran, so nothing has screened these weights
        if not restored:  # nor saved them
            save_checkpoint(ckpt_path, params, state.m, state.v, state.t, history)
        probs = evaluate_probs(dataset, params, val_subjects)
    labels = np.array([s.label for s in val_subjects])
    return history, evaluate_metrics(probs, labels, train_cfg.threshold)
