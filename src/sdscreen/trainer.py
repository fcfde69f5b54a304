"""Adam optimization, the epoch loop, and cross-validation orchestration.

Reproducibility contract: everything random derives from (master seed, epoch)
or (master seed, purpose) seed sequences, parameters update in the fixed
``named_parameters`` order, and history rows serialize floats with ``repr``,
so identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Dataset, Subject
from .errors import ConfigError, FormatError, NumericError, UndefinedMetricError
from .fusion import bce_loss
from .metrics import accuracy, confusion, roc_auc, sensitivity, specificity
from .model import (
    ModelConfig,
    ModelParams,
    SubjectVideo,
    init_model,
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
    seed: int = 0
    threshold: float = 0.5
    folds: int = 5

    def validate(self) -> None:
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold must lie in [0, 1], got {self.threshold}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")


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


@dataclass
class HistoryRow:
    epoch: int
    loss: float
    train_acc: float
    val_acc: float


def history_to_csv(rows: list[HistoryRow]) -> str:
    def fmt(x: float) -> str:
        return "nan" if math.isnan(x) else repr(x)

    lines = ["epoch,loss,train_acc,val_acc"]
    for r in rows:
        lines.append(f"{r.epoch},{fmt(r.loss)},{fmt(r.train_acc)},{fmt(r.val_acc)}")
    return "\n".join(lines) + "\n"


def load_videos(dataset: Dataset, subjects: list[Subject],
                needs_video: bool) -> dict[str, SubjectVideo | None]:
    if not needs_video:
        return {s.subject_id: None for s in subjects}
    return {s.subject_id: load_subject_video(dataset, s) for s in subjects}


def evaluate_probs(params: ModelParams, subjects: list[Subject],
                   videos: dict[str, SubjectVideo | None]) -> np.ndarray:
    """Forward every subject without recording gradients."""
    probs = []
    for s in subjects:
        pred = subject_forward(params, s, videos[s.subject_id])
        probs.append(pred.p.item())
    return np.array(probs)


def evaluate_metrics(probs: np.ndarray, labels: np.ndarray,
                     threshold: float = 0.5) -> dict[str, float]:
    """Metrics dict; undefined entries become NaN instead of raising."""
    counts = confusion(probs, labels, threshold)
    report: dict[str, float] = {}
    for key, fn in (("accuracy", accuracy), ("sensitivity", sensitivity),
                    ("specificity", specificity)):
        try:
            report[key] = fn(counts)
        except UndefinedMetricError:
            report[key] = float("nan")
    try:
        report["auc"] = roc_auc(probs, labels)
    except UndefinedMetricError:
        report["auc"] = float("nan")
    return report


def train(dataset: Dataset, params: ModelParams, train_subjects: list[Subject],
          val_subjects: list[Subject], cfg: TrainConfig,
          state: AdamState | None = None, epochs_done: int = 0,
          checkpoint_path: Path | str | None = None
          ) -> tuple[AdamState, list[HistoryRow], np.ndarray | None]:
    """Run epochs epochs_done+1 .. cfg.epochs; returns optimizer state, history
    and the last epoch's validation probabilities (None when no epoch ran or
    there are no validation subjects).

    Passing a state/epochs_done pair restored from a checkpoint continues the
    run and reproduces exactly the history an uninterrupted run would have
    produced from that epoch on.
    """
    cfg.validate()
    if not train_subjects:
        raise ConfigError("no training subjects")
    named = named_parameters(params)
    if state is None:
        state = init_adam(named, cfg.lr)
    else:
        state.lr = cfg.lr

    if epochs_done >= cfg.epochs:
        return state, [], None

    needs_video = params.config.mode != "mlp"
    train_videos = load_videos(dataset, train_subjects, needs_video)
    val_videos = load_videos(dataset, val_subjects, needs_video)
    val_labels = np.array([s.label for s in val_subjects])

    history: list[HistoryRow] = []
    val_probs = None
    for epoch in range(epochs_done + 1, cfg.epochs + 1):
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
                    pred = subject_forward(params, s, train_videos[s.subject_id])
                    epoch_probs[s.subject_id] = pred.p.item()
                    losses.append(bce_loss(pred.p, s.label))
                batch_loss = mean_over_set(losses)
            tape.backward(batch_loss)
            adam_step(named, state)
            batch_losses.append(batch_loss.item())

        train_pred = np.array(
            [epoch_probs[s.subject_id] > cfg.threshold for s in train_subjects])
        train_labels = np.array([s.label for s in train_subjects])
        train_acc = float((train_pred == train_labels).mean())
        if val_subjects:
            val_probs = evaluate_probs(params, val_subjects, val_videos)
            val_acc = float(((val_probs > cfg.threshold) == val_labels).mean())
        else:
            val_acc = float("nan")
        history.append(HistoryRow(epoch=epoch, loss=float(np.mean(batch_losses)),
                                  train_acc=train_acc, val_acc=val_acc))
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, params, state.m, state.v, state.t, epoch)
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
    """Train one fold end to end; writes checkpoint + history, returns metrics."""
    from .model import load_checkpoint  # local import keeps module init light

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / f"fold{fold_index}.ckpt"
    history_path = out_dir / f"fold{fold_index}_history.csv"

    params = init_model(model_cfg)
    state = None
    epochs_done = 0
    prior_rows: list[HistoryRow] = []
    if resume:
        if not ckpt_path.is_file():
            raise FormatError(f"cannot resume: {ckpt_path} missing")
        m, v, t, epochs_done = load_checkpoint(ckpt_path, params)
        state = AdamState(lr=train_cfg.lr, m=m, v=v, t=t)
        if history_path.is_file():
            prior_rows = _parse_history(history_path.read_text(encoding="utf-8"),
                                        up_to_epoch=epochs_done)

    train_subjects, val_subjects = fold_subject_sets(
        dataset, train_cfg.folds, train_cfg.seed, fold_index)
    state, rows, probs = train(dataset, params, train_subjects, val_subjects, train_cfg,
                               state=state, epochs_done=epochs_done,
                               checkpoint_path=ckpt_path)
    all_rows = prior_rows + rows
    history_path.write_text(history_to_csv(all_rows), encoding="utf-8")
    if train_cfg.epochs == 0 and not ckpt_path.is_file():
        save_checkpoint(ckpt_path, params, state.m, state.v, state.t, 0)

    if probs is None:
        # No epoch ran, so nothing has evaluated the initial or restored weights.
        val_videos = load_videos(dataset, val_subjects, model_cfg.mode != "mlp")
        probs = evaluate_probs(params, val_subjects, val_videos)
    labels = np.array([s.label for s in val_subjects])
    metrics = evaluate_metrics(probs, labels, train_cfg.threshold)
    return all_rows, metrics


def _parse_history(text: str, up_to_epoch: int) -> list[HistoryRow]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "epoch,loss,train_acc,val_acc":
        raise FormatError("history file header mismatch")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 4:
            raise FormatError(f"bad history row: {line!r}")
        row = HistoryRow(epoch=int(parts[0]), loss=float(parts[1]),
                         train_acc=float(parts[2]), val_acc=float(parts[3]))
        if row.epoch <= up_to_epoch:
            rows.append(row)
    return rows
