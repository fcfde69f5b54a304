"""Command-line interface: synthesize data, train, evaluate, gradient-check.

Configuration is a flat ``key = value`` schema: one key per field of the
config dataclasses, with the fields' defaults. A config file (``--config``) and
inline overrides (``--set key=value``) resolve into one dictionary, which
``train`` records in the run's ``config.txt`` for ``eval``. ``settings`` holds
the schema and the one reader and writer of ``key = value`` text. Unknown keys,
and a key given twice in one source, are rejected. Exit codes: 0 success,
1 usage/config problems, 2 data/format/file problems, 3 numeric failures.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .dataset import Dataset, load_dataset, sds_sum_classify
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    FormatError,
    NumericError,
)
from .fusion import bce_loss, init_fusion, predict_subject
from .metrics import roc_curve
from .model import ModelConfig, init_model, load_checkpoint
from .numerics import Tensor, dot
from .numerics.gradcheck import gradcheck
from .plots import line_plot_svg
from .ras import RasConfig, encode_question, init_ras
from .settings import build, flatten, pairs_text, read_pairs, split_pairs
from .synth import SynthConfig, disagreement_cells, generate
from .trainer import (
    METRIC_KEYS,
    HistoryRow,
    TrainConfig,
    evaluate_metrics,
    fold_subject_sets,
    kfold_split,
    run_fold,
    screen_fold,
)

__all__ = ["main", "resolve_config", "DEFAULTS", "gradcheck_cases", "run_gradchecks"]

RUN_CONFIG = "config.txt"
# The digest of the manifest of the dataset the run trained on, for eval to compare.
RUN_DATA = "dataset.txt"

# Every model and training setting: the keys all checkpoints of one run share.
RUN_DEFAULTS: dict[str, object] = {**flatten(ModelConfig()), **flatten(TrainConfig())}

# The synth keys first; clip_len, which both synth and the model read, is a model key.
DEFAULTS: dict[str, object] = {
    **{k: v for k, v in flatten(SynthConfig()).items() if k not in RUN_DEFAULTS},
    **RUN_DEFAULTS,
}


def _coerce(where: str, key: str, raw: str) -> object:
    default = DEFAULTS[key]
    try:
        if isinstance(default, bool):
            lowered = raw.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError(f"not a finite number: {raw!r}")
            return value
        return raw
    except ValueError as e:
        raise ConfigError(f"{where}: config key {key!r}: {e}") from None


def resolve_config(config_file: str | None = None,
                   overrides: list[str] | None = None) -> dict[str, object]:
    """The defaults, then the file's keys, then the ``--set`` keys. A key may be
    given once in the file and once among the ``--set`` flags."""
    cfg = dict(DEFAULTS)
    sources = []
    if config_file is not None:
        path = Path(config_file)
        if not path.is_file():
            raise ConfigError(f"config file missing: {path}")
        sources.append(read_pairs(path, ConfigError))
    sources.append(split_pairs((("--set", item) for item in overrides or []), ConfigError))
    for where, key, value in itertools.chain(*sources):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r} ({where})")
        cfg[key] = _coerce(where, key, value)
    return cfg


def config_to_text(cfg: dict[str, object]) -> str:
    return pairs_text((key, cfg[key]) for key in DEFAULTS)


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = resolve_config(args.config, args.set)
    if args.print_config:
        sys.stdout.write(config_to_text(cfg))
        return 0
    dataset = generate(build(SynthConfig, cfg), args.out)
    dep_pos, dep_neg, norm_pos, norm_neg = disagreement_cells(dataset)
    print(f"wrote {len(dataset.subjects)} subjects to {args.out}")
    print("                 questionnaire+  questionnaire-")
    print(f"depressed        {dep_pos:>14d}  {dep_neg:>14d}")
    print(f"normal           {norm_pos:>14d}  {norm_neg:>14d}")
    agree = dep_pos + norm_neg
    print(f"questionnaire agreement: {agree}/{len(dataset.subjects)}")
    return 0


def _folds_arg(value: str, k: int) -> list[int]:
    if value == "all":
        return list(range(k))
    try:
        fold = int(value)
    except ValueError:
        raise ConfigError(f"--fold must be an integer or 'all', got {value!r}") from None
    if not 0 <= fold < k:
        raise ConfigError(f"fold {fold} outside 0..{k - 1}")
    return [fold]


def _write_curves(out_dir: Path, histories: dict[int, list[HistoryRow]]) -> None:
    series = []
    for fold, rows in histories.items():
        epochs = [float(r.epoch) for r in rows]
        train_acc = [r.train_acc for r in rows]
        val_acc = [r.val_acc for r in rows]
        if epochs:
            series.append((f"fold {fold} train", epochs, train_acc))
            if not any(np.isnan(val_acc)):
                series.append((f"fold {fold} val", epochs, val_acc))
    path = out_dir / "training_curves.svg"
    if series:
        path.write_text(line_plot_svg(series, "Accuracy by epoch", "epoch", "accuracy"),
                        encoding="utf-8")
    else:  # no epoch ran: curves of an earlier run would describe other histories
        path.unlink(missing_ok=True)


def _print_aggregate(per_fold: dict[int, dict[str, float]]) -> None:
    for fold in sorted(per_fold):
        row = per_fold[fold]
        cells = ", ".join(f"{k} {row[k]:.4f}" for k in METRIC_KEYS)
        print(f"fold {fold}: {cells}")
    if len(per_fold) > 1:
        for k in METRIC_KEYS:
            values = np.array([per_fold[f][k] for f in sorted(per_fold)])
            print(f"{k}: {values.mean():.4f} +/- {values.std():.4f}")


def _read_run_config(run_dir: Path) -> dict[str, object]:
    path = run_dir / RUN_CONFIG
    if not path.is_file():
        raise FormatError(f"run settings missing: {path}; write them with "
                          "'sdscreen train --print-config <the training flags>'")
    return resolve_config(str(path))


def _check_run_data(run_dir: Path, dataset: Dataset) -> None:
    """Refuse a dataset whose manifest is not the one the run trained on."""
    path = run_dir / RUN_DATA
    if not path.is_file():
        raise FormatError(f"run dataset record missing: {path}")
    pairs = {key: value for _, key, value in read_pairs(path, FormatError)}
    if set(pairs) != {"manifest_sha256"}:
        raise FormatError(f"{path}: expected the one key 'manifest_sha256', got {sorted(pairs)}")
    if pairs["manifest_sha256"] != dataset.manifest_sha256:
        raise DataError(f"{dataset.root / 'manifest.txt'} has sha256 {dataset.manifest_sha256}, "
                        f"but the run trained on a manifest with sha256 "
                        f"{pairs['manifest_sha256']} ({path})")


def _write_run_config(out_dir: Path, cfg: dict[str, object], dataset: Dataset,
                      resume: bool) -> None:
    """Write the run's settings to ``config.txt`` and its dataset's manifest
    digest to ``dataset.txt``, each atomically. One run has one config and one
    dataset: another value of a model or training key but ``epochs`` is
    refused, and so is another manifest once the run has recorded one."""
    path = out_dir / RUN_CONFIG
    if resume or path.is_file():
        stored = _read_run_config(out_dir)
        differ = [k for k in RUN_DEFAULTS if k != "epochs" and stored[k] != cfg[k]]
        if differ:
            raise ConfigError(f"{path} was written with other settings: "
                              f"{', '.join(differ)} differ; train into a new --out")
    if (out_dir / RUN_DATA).is_file():
        _check_run_data(out_dir, dataset)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in ((RUN_CONFIG, config_to_text(cfg)),
                       (RUN_DATA, pairs_text([("manifest_sha256", dataset.manifest_sha256)]))):
        tmp = out_dir / f"{name}.tmp"
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, out_dir / name)


def cmd_train(args: argparse.Namespace) -> int:
    cfg = resolve_config(args.config, args.set)
    if args.print_config:
        sys.stdout.write(config_to_text(cfg))
        return 0
    model_cfg = build(ModelConfig, cfg)
    train_cfg = build(TrainConfig, cfg)
    folds = _folds_arg(args.fold, train_cfg.folds)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    # Everything the run needs is checked before config.txt claims the directory.
    dataset = load_dataset(args.data)
    hw = (dataset.height, dataset.width)
    if model_cfg.needs_video and hw != (model_cfg.input_hw,) * 2:
        raise ConfigError(f"{args.data} holds {hw[0]}x{hw[1]} frames, "
                          f"input_hw is {model_cfg.input_hw}")
    if model_cfg.needs_video and dataset.min_frames < model_cfg.clip_len:
        raise ConfigError(f"{args.data} has a question video of {dataset.min_frames} frames, "
                          f"shorter than clip_len {model_cfg.clip_len}")
    kfold_split([s.subject_id for s in dataset.subjects], train_cfg.folds, train_cfg.seed)
    out_dir = Path(args.out)
    _write_run_config(out_dir, cfg, dataset, args.resume)

    fold_args = [(dataset, model_cfg, train_cfg, fold, out_dir, args.resume) for fold in folds]
    if args.jobs > 1 and len(folds) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a --jobs run loads it

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            jobs = [pool.submit(run_fold, *a) for a in fold_args]
            results = [job.result() for job in jobs]
    else:
        results = [run_fold(*a) for a in fold_args]
    _write_curves(out_dir, {fold: rows for fold, (rows, _) in zip(folds, results)})
    _print_aggregate({fold: metrics for fold, (_, metrics) in zip(folds, results)})
    return 0


def _baseline_report(dataset: Dataset, threshold: float) -> int:
    probs = np.array([float(sds_sum_classify(s.choices)) for s in dataset.subjects])
    metrics = evaluate_metrics(probs, dataset.labels, threshold)
    print("questionnaire-sum baseline (threshold 50, whole set):")
    for key in METRIC_KEYS:
        print(f"{key}: {metrics[key]:.4f}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.baseline == "sds-sum":
        return _baseline_report(load_dataset(args.data), TrainConfig().threshold)
    run_dir = Path(args.run)
    cfg = _read_run_config(run_dir)
    dataset = load_dataset(args.data)
    _check_run_data(run_dir, dataset)
    model_cfg = build(ModelConfig, cfg)
    train_cfg = build(TrainConfig, cfg)
    folds = _folds_arg(args.fold, train_cfg.folds)
    out_dir = Path(args.out) if args.out else run_dir

    per_fold: dict[int, dict[str, float]] = {}
    pooled_probs: list[float] = []
    pooled_labels: list[int] = []
    for fold in folds:
        params = init_model(model_cfg)
        load_checkpoint(run_dir / f"fold{fold}.ckpt", params)
        _, val_subjects = fold_subject_sets(dataset, train_cfg.folds,
                                            train_cfg.seed, fold)
        probs, per_fold[fold] = screen_fold(dataset, params, val_subjects,
                                            train_cfg.threshold)
        pooled_probs.extend(probs.tolist())
        pooled_labels.extend(s.label for s in val_subjects)

    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["fold," + ",".join(METRIC_KEYS)]
    for fold in sorted(per_fold):
        lines.append(f"{fold}," + ",".join(repr(float(per_fold[fold][k])) for k in METRIC_KEYS))
    if len(per_fold) > 1:
        stacked = {k: np.array([per_fold[f][k] for f in sorted(per_fold)]) for k in METRIC_KEYS}
        lines.append("mean," + ",".join(repr(float(stacked[k].mean())) for k in METRIC_KEYS))
        lines.append("sd," + ",".join(repr(float(stacked[k].std())) for k in METRIC_KEYS))
    (out_dir / "metrics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    try:
        points = roc_curve(np.array(pooled_probs), np.array(pooled_labels))
        roc_lines = ["threshold,fpr,tpr"]
        roc_lines += [f"{float(t)!r},{float(x)!r},{float(y)!r}" for t, x, y in points]
        (out_dir / "roc.csv").write_text("\n".join(roc_lines) + "\n", encoding="utf-8")
        svg = line_plot_svg(
            [("model", [p[1] for p in points], [p[2] for p in points]),
             ("chance", [0.0, 1.0], [0.0, 1.0])],
            "ROC (pooled validation folds)", "false positive rate",
            "true positive rate")
        (out_dir / "roc.svg").write_text(svg, encoding="utf-8")
    except ContractError:  # single-class pool: no curve, and an earlier one would mislead
        for name in ("roc.csv", "roc.svg"):
            (out_dir / name).unlink(missing_ok=True)
    _print_aggregate(per_fold)
    return 0


# ---------------------------------------------------------------------------
# gradient-check suite


def gradcheck_cases() -> list[tuple[str, object]]:
    """Named builders; each returns (fn, params) for the checker."""

    def encoder_case():
        from .encoder3d import build_plan, encode_clip, init_encoder

        rng = np.random.default_rng(np.random.SeedSequence(11))
        plan = build_plan(20, clip_len=10, base_channels=2, feature_dim=4)
        params = init_encoder(plan, rng)
        x = Tensor(rng.uniform(0.1, 0.9, size=(20, 20, 10, 1)))
        probe = Tensor(rng.normal(size=4))
        named = params.named_parameters()

        def fn():
            return dot(encode_clip(x, params), probe)

        return fn, [t for _, t in named]

    def ras_case():
        rng = np.random.default_rng(np.random.SeedSequence(12))
        config = RasConfig(blocks=2, sigma=4.0)
        params = init_ras(8, config, rng)
        for w in params.omegas:  # nonzero so the blocks actually act
            w.data = rng.normal(scale=0.5, size=8)
        features = [Tensor(rng.normal(size=8)) for _ in range(3)]
        probe = Tensor(rng.normal(size=8))

        def fn():
            return dot(encode_question(features, [1, 2, 3], params, config), probe)

        return fn, [t for _, t in params.named_parameters()]

    def fusion_case():
        from .dataset import QUESTION_COUNT
        from .fusion import encode_score, fuse_question

        rng = np.random.default_rng(np.random.SeedSequence(13))
        params = init_fusion(4, (8, 4), rng)
        vectors = [
            fuse_question(Tensor(rng.normal(size=4)),
                          encode_score(int(rng.integers(1, 5))),
                          float(rng.uniform(2, 20)))
            for _ in range(QUESTION_COUNT)
        ]

        def fn():
            pred = predict_subject(vectors, params)
            return bce_loss(pred.p, 1)

        return fn, [t for _, t in params.named_parameters()]

    def composed_case():
        from .dataset import QUESTION_COUNT, Subject
        from .model import ModelConfig, SubjectVideo, init_model, named_parameters, subject_forward

        rng = np.random.default_rng(np.random.SeedSequence(14))
        config = ModelConfig(input_hw=12, clip_len=4, base_channels=2,
                             feature_dim=4, hidden=(8, 4), blocks=1,
                             sigma=4.0, init_seed=14)
        params = init_model(config)
        for w in params.ras.omegas:
            w.data = rng.normal(scale=0.5, size=4)
        frames = [rng.integers(0, 256, size=(4, 12, 12)).astype(np.uint8)
                  for _ in range(QUESTION_COUNT)]
        video = SubjectVideo(frames=frames)
        subject = Subject(
            "gc0001", 1,
            tuple(int(rng.integers(1, 5)) for _ in range(QUESTION_COUNT)),
            tuple(float(rng.uniform(2, 20)) for _ in range(QUESTION_COUNT)),
            tuple(f"gc_{q}.rasf" for q in range(QUESTION_COUNT)),
        )

        def fn():
            pred = subject_forward(params, subject, video)
            return bce_loss(pred.p, subject.label)

        return fn, [t for _, t in named_parameters(params)]

    return [
        ("encoder-reduced", encoder_case),
        ("attention-stack", ras_case),
        ("fusion-head", fusion_case),
        ("composed-loss", composed_case),
    ]


def run_gradchecks(cases=None, tol: float = 1e-4) -> list[tuple[str, bool, str, float]]:
    results = []
    for name, builder in cases or gradcheck_cases():
        start = time.monotonic()
        try:
            fn, params = builder()
            worst = gradcheck(fn, params, tol=tol)
            results.append((name, True, f"worst rel err {worst:.2e}", time.monotonic() - start))
        except (ContractError, NumericError) as e:
            results.append((name, False, str(e), time.monotonic() - start))
    return results


def cmd_gradcheck(args: argparse.Namespace) -> int:
    results = run_gradchecks()
    failures = 0
    for name, passed, detail, seconds in results:
        status = "PASS" if passed else "FAIL"
        print(f"{name:<18} {status}  {detail}  ({seconds:.1f}s)")
        failures += 0 if passed else 1
    if failures:
        print(f"{failures} gradient check(s) failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sdscreen",
                     description="Depression screening from questionnaires and "
                                 "per-question video.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key")
        p.add_argument("--print-config", action="store_true",
                       help="echo the resolved configuration and exit")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--out", required=True, help="output dataset directory")
    add_config_args(p_synth)
    p_synth.set_defaults(fn=cmd_synth)

    p_train = sub.add_parser("train", help="train with cross-validation")
    p_train.add_argument("--data", required=True, help="dataset directory")
    p_train.add_argument("--out", required=True, help="run output directory")
    p_train.add_argument("--fold", default="all", help="fold index or 'all'")
    p_train.add_argument("--jobs", type=int, default=1,
                         help="parallel fold processes")
    p_train.add_argument("--resume", action="store_true",
                         help="continue from existing checkpoints")
    add_config_args(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate checkpoints or baselines")
    p_eval.add_argument("--data", required=True, help="dataset directory")
    p_eval.add_argument("--run", default=None,
                        help="run directory: fold checkpoints and the config.txt train wrote")
    p_eval.add_argument("--out", default=None,
                        help="report directory (default: the run directory)")
    p_eval.add_argument("--fold", default="all", help="fold index or 'all'")
    p_eval.add_argument("--baseline", choices=("sds-sum",), default=None,
                        help="report a training-free baseline instead")
    p_eval.set_defaults(fn=cmd_eval)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p_gc.set_defaults(fn=cmd_gradcheck)
    return parser


def _one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread.

    With two threads OpenBLAS splits some GEMM sums differently, so a run's
    bytes would depend on the host's core count. Parallelism comes from the
    clip pool and ``--jobs`` instead. Where numpy bundles no OpenBLAS with
    this symbol, the library keeps its own thread count.
    """
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*.so")
    for path in glob.glob(pattern):
        setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def main(argv: list[str] | None = None) -> int:
    _one_blas_thread()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "eval" and args.baseline is None and args.run is None:
            raise ConfigError("eval needs --run (checkpoints) or --baseline")
        return args.fn(args)
    except (ConfigError, ContractError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (FormatError, DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
