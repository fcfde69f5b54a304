"""Benchmark of sdscreen: train one cross-validation fold, then screen subjects.

    python3 bench/run.py --workload desk_cv --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The workload's dataset is generated
from ``--seed`` with ``synth.generate`` before any timing starts. A round
then runs what ``sdscreen train --fold 0`` runs (``trainer.run_fold``), the
set-up ``sdscreen eval`` does before it screens (load the dataset, build the
model, load the fold's checkpoint, load the videos of the subjects to
screen), and untaped ``subject_forward`` calls, the workload's
``screen_passes`` per screened subject. Rounds repeat until ``--seconds``
have passed; every round is whole. On desk_cv, untraced rounds sample the
host's speed between subject forwards and set-ups (``hostspeed.py``) and
report their times scaled to a reference speed.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics. With ``--trace 1`` the rounds run under
``tracer.Tracer`` and the JSON holds the per-layer metrics instead. Checks
of the outputs run after the timed rounds; see ``checks.py``. The README
beside this file explains the workloads and metrics.
"""

from __future__ import annotations

import ctypes
import os
import sys

# One BLAS thread, so timings do not depend on how a second one shares the
# cores with the interpreter. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ADDR_NO_RANDOMIZE = 0x0040000
FIXED_LAYOUT = "SDSCREEN_BENCH_FIXED_LAYOUT"


def fix_layout() -> None:
    """Re-execute this process with a fixed hash seed and no address randomization.

    Which addresses the arrays land at and how string-keyed dicts are laid
    out change from process to process, and with them desk_cv's screening
    time by about 10 % beyond the host's swings. Fixed, three runs of one
    desk_cv seed gave host-speed-scaled screening medians within 5 % of each
    other and the same peak memory to the byte. The personality flag and the
    hash seed apply to this process only; the process keeps its id, so no
    child is left behind.
    """
    if os.environ.get(FIXED_LAYOUT) == "1":
        return
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current == -1 or libc.personality(current | ADDR_NO_RANDOMIZE) == -1:
        print("warning: cannot turn off address randomization; timings will spread more",
              file=sys.stderr)
    env = dict(os.environ, PYTHONHASHSEED="0", **{FIXED_LAYOUT: "1"})
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


if __name__ == "__main__":
    fix_layout()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
FOLD = 0
# Set-up takes 0.1-0.15 s, too short to time once: it is repeated at
# least MIN_SETUPS times and until SETUP_BUDGET_S have passed, and the median
# is reported.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 25, 1.0


@dataclass(frozen=True)
class Workload:
    synth: dict
    model: dict
    train: dict
    screen_all: bool
    # Every screened subject is screened this many times, so that the
    # screening phase spans enough of the host's speed swings, which last
    # seconds, for its median to settle.
    screen_passes: int
    # Whether times are scaled by the host speed that hostspeed.py samples.
    # Its kernel follows the interpreter-bound work of tiny arrays; it does
    # not follow BLAS- and memory-bound work, whose times it only adds noise to.
    host_scaled: bool


WORKLOADS = {
    # The set and model of the end-to-end acceptance test: 22-37 tiny clips
    # per subject, so per-op Python and tape overhead dominate.
    "desk_cv": Workload(
        synth=dict(n_subjects=80, fps=2, height=22, width=22, disagreement_rate=0.2,
                   time_min_s=5.0, time_max_s=10.0),
        model=dict(input_hw=22, base_channels=2, feature_dim=16, hidden=(32, 16),
                   blocks=2, sigma=10.0, init_seed=1),
        train=dict(epochs=3, batch_size=4, lr=3e-3, seed=3, folds=5),
        screen_all=True, screen_passes=5, host_scaled=True),
    # The paper's geometry with one 110x110x10 clip per question: conv3d and
    # checkpoint I/O dominate, and attention returns early (one clip).
    "ref_subject": Workload(
        synth=dict(n_subjects=2, fps=5, height=110, width=110, disagreement_rate=0.0,
                   time_min_s=2.0, time_max_s=2.9),
        model=dict(init_seed=1),
        train=dict(epochs=1, batch_size=1, lr=1e-3, seed=3, folds=2),
        screen_all=False, screen_passes=4, host_scaled=False),
}


def _import_program():
    """Import sdscreen from this checkout's src/, never from elsewhere."""
    if not (ROOT / "src" / "sdscreen" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'sdscreen'} not found; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(BENCH_DIR))
    import sdscreen
    if Path(sdscreen.__file__).resolve().parent != ROOT / "src" / "sdscreen":
        sys.exit(f"error: imported sdscreen from {sdscreen.__file__}, not from this checkout")


_import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
from sdscreen import dataset, model, synth, trainer  # noqa: E402
from sdscreen.fusion import bce_loss  # noqa: E402
from sdscreen.numerics import Tape  # noqa: E402


@dataclass
class Screening:
    """What ``sdscreen eval`` holds once set up: the model and the videos."""

    data: dataset.Dataset
    params: model.ModelParams
    subjects: list
    videos: dict
    adam: tuple


@dataclass
class Round:
    fold_s: float  # raw times, without the host-speed kernel's
    history: list
    fold_metrics: dict
    setup_s: list[float]
    screen_s: list[float]
    screen_ops: list[float]
    outputs: dict[str, list[tuple[float, float]]]  # (logit, probability) per pass
    digest: str
    checkpoint_bytes: int
    state: Screening
    # Per phase, the host-speed factor that scales its raw times (1 if unscaled).
    factor: dict[str, float]


def set_up(data_dir: Path, model_cfg, ckpt: Path, subject_ids: list[str]) -> Screening:
    data = dataset.load_dataset(data_dir)
    params = model.init_model(model_cfg)
    adam = model.load_checkpoint(ckpt, params)
    by_id = {s.subject_id: s for s in data.subjects}
    subjects = [by_id[i] for i in subject_ids]
    videos = trainer.load_videos(data, subjects, needs_video=True)
    return Screening(data, params, subjects, videos, adam)


def collect_garbage(tr: tracing.Tracer | None) -> None:
    """Run the cyclic collector between timed phases, unseen by the tracer."""
    if tr:
        tr.collect()
    else:
        gc.collect()


def run_round(wl: Workload, data_dir: Path, out_dir: Path,
              tr: tracing.Tracer | None = None) -> Round:
    model_cfg = model.ModelConfig(**wl.model)
    train_cfg = trainer.TrainConfig(**wl.train)
    data = dataset.load_dataset(data_dir)
    _, val_subjects = trainer.fold_subject_sets(data, train_cfg.folds, train_cfg.seed, FOLD)
    screened = data.subjects if wl.screen_all else val_subjects
    ids = [s.subject_id for s in screened]
    collect_garbage(tr)
    hs = hostspeed.HostSpeed() if wl.host_scaled and not tr else None
    factor = {}

    if tr:
        tr.phase = "fold"
    # When scaled, the host's speed is sampled at the start and end of each
    # phase and before every subject forward of the fold, every set-up and
    # every screening; the kernel's time is taken out of the fold's.
    forward = getattr(trainer, "subject_forward", None)
    kernel_s = 0.0
    if hs:
        since = len(hs.samples)
        hs.sample()
        if forward is None:
            print("hostspeed: trainer.subject_forward not found; sampling the fold"
                  " only at its start and end", file=sys.stderr)
        else:
            def sampled_forward(*args, **kwargs):
                nonlocal kernel_s
                kernel_s += hs.sample()
                return forward(*args, **kwargs)
            trainer.subject_forward = sampled_forward
    start = time.perf_counter()
    try:
        history, fold_metrics = trainer.run_fold(data, model_cfg, train_cfg, FOLD, out_dir)
    finally:
        if hs and forward is not None:
            trainer.subject_forward = forward
    fold_s = time.perf_counter() - start - kernel_s
    if hs:
        hs.sample()
        factor["fold"] = hs.factor(since)
    ckpt = out_dir / f"fold{FOLD}.ckpt"

    # A traced round sets up once, so per-layer set-up figures are one set-up's.
    if tr:
        tr.phase = "setup"
    setups, budget = (1, 0.0) if tr else (MIN_SETUPS, SETUP_BUDGET_S)
    setup_s: list[float] = []
    since = len(hs.samples) if hs else 0
    while len(setup_s) < setups or (sum(setup_s) < budget and len(setup_s) < MAX_SETUPS):
        state = None
        # ``sdscreen eval`` sets up in a fresh process, so the training tapes
        # the fold left to the cyclic collector are freed first rather than
        # charged to set-up or screening.
        collect_garbage(tr)
        if hs:
            hs.sample()
        start = time.perf_counter()
        state = set_up(data_dir, model_cfg, ckpt, ids)
        setup_s.append(time.perf_counter() - start)

    if tr:
        tr.phase = "screen"
    if hs:
        hs.sample()
        factor["setup"] = hs.factor(since)
        since = len(hs.samples)
    screen_s, screen_ops, outputs = [], [], {}
    for _ in range(wl.screen_passes):
        for s in state.subjects:
            if hs:
                hs.sample()
            ops = tr.counts["ops"] if tr else 0.0
            start = time.perf_counter()
            pred = model.subject_forward(state.params, s, state.videos[s.subject_id])
            screen_s.append(time.perf_counter() - start)
            screen_ops.append((tr.counts["ops"] if tr else 0.0) - ops)
            outputs.setdefault(s.subject_id, []).append((pred.out.item(), pred.p.item()))
    if hs:
        hs.sample()
        factor["screen"] = hs.factor(since)

    ckpt_bytes = ckpt.read_bytes()
    history_bytes = (out_dir / f"fold{FOLD}_history.csv").read_bytes()
    digest = checks.digest(ckpt_bytes, history_bytes, [outputs[i][0][1] for i in ids])
    return Round(fold_s, history, fold_metrics, setup_s, screen_s, screen_ops, outputs,
                 digest, len(ckpt_bytes), state,
                 factor or {"fold": 1.0, "setup": 1.0, "screen": 1.0})


def subject_loss(params, subject, video) -> float:
    return bce_loss(model.subject_forward(params, subject, video).p, subject.label).item()


def run_checks(wl: Workload, last: Round, seed: int) -> list[checks.Check]:
    model_cfg = model.ModelConfig(**wl.model)
    train_cfg = trainer.TrainConfig(**wl.train)
    state = last.state
    train_subjects, val_subjects = trainer.fold_subject_sets(
        state.data, train_cfg.folds, train_cfg.seed, FOLD)
    differ = sorted(i for i, out in last.outputs.items() if len(set(out)) > 1)
    results = [checks.Check("screening_repeatable", not differ,
                            f"{wl.screen_passes} passes over {len(last.outputs)} subjects, "
                            + (f"differing: {differ[:5]}" if differ else "bit-identical"))]

    first = val_subjects[0]
    weights = {name: t.data for name, t in model.named_parameters(state.params)}
    results.append(checks.reference_forward(
        "reference_forward", last.outputs[first.subject_id][0],
        [dataset.load_question_frames(state.data, first, q) for q in range(dataset.QUESTION_COUNT)],
        first.choices, first.times, weights, model_cfg.clip_len, model_cfg.sigma))

    # The loss of one training subject along a random direction. When the
    # fold took a single Adam step on a single subject, the tape gradient of
    # that step at the initial weights is in the checkpoint, m_1 = (1 - beta1) g,
    # which spares a second reference-size tape; otherwise it is taped afresh
    # at the checkpoint's weights.
    subject = train_subjects[0]
    video = trainer.load_videos(state.data, [subject], needs_video=True)[subject.subject_id]
    adam_m, _, adam_t, _ = state.adam
    if adam_t == 1 and len(train_subjects) == 1:
        params = model.init_model(model_cfg)
        grad = {k: m / (1.0 - trainer.ADAM_BETA1) for k, m in adam_m.items()}
        source = "first Adam step"
    else:
        params = state.params
        trainer.zero_grads(model.named_parameters(params))
        with Tape() as tape:
            loss = bce_loss(model.subject_forward(params, subject, video).p, subject.label)
        tape.backward(loss)
        grad = {k: t.grad if t.grad is not None else np.zeros_like(t.data)
                for k, t in model.named_parameters(params)}
        del tape, loss
        source = "tape"
    check = checks.directional_derivative(
        "directional_derivative", lambda: subject_loss(params, subject, video),
        dict(model.named_parameters(params)), grad, np.random.default_rng(seed))
    results.append(checks.Check(check.name, check.ok, f"{source}: {check.detail}"))

    results.append(checks.fold_metrics(
        "fold_metrics", np.array([last.outputs[s.subject_id][0][1] for s in val_subjects]),
        np.array([s.label for s in val_subjects]), train_cfg.threshold, last.fold_metrics))

    baseline = trainer.evaluate_metrics(
        np.array([float(dataset.sds_sum_classify(s.choices)) for s in state.data.subjects]),
        state.data.labels, train_cfg.threshold)["accuracy"]
    results.append(checks.questionnaire_baseline(
        "questionnaire_baseline", baseline, wl.synth["disagreement_rate"]))
    if train_cfg.epochs >= 2:
        results.append(checks.loss_falls("loss_falls", [row.loss for row in last.history]))
    return results


def environment() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    persona = ctypes.CDLL(None).personality(0xFFFFFFFF)
    return (f"cores {os.cpu_count()}, python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"blas {blas.get('name', '?')} {blas.get('version', '?')}, "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, "
            f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'random')}, address randomization "
            f"{'off' if persona != -1 and persona & ADDR_NO_RANDOMIZE else 'on'}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    train_cfg = trainer.TrainConfig(**wl.train)
    print(f"environment: {environment()}", file=sys.stderr)

    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        data_dir = work / "data"
        data = synth.generate(synth.SynthConfig(seed=args.seed, **wl.synth), data_dir)
        n_train = len(trainer.fold_subject_sets(data, train_cfg.folds, train_cfg.seed, FOLD)[0])
        del data

        tr = tracing.Tracer() if args.trace else None
        if tr:
            tr.install()
        rounds: list[Round] = []
        try:
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < args.seconds:
                if rounds:
                    rounds[-1].state = None
                rounds.append(run_round(wl, data_dir, work / f"run{len(rounds)}", tr))
                r = rounds[-1]
                print(f"round {len(rounds)}: raw fold {r.fold_s:.3f} s, set-up"
                      f" {statistics.median(r.setup_s):.4f} s ({len(r.setup_s)}x), screening"
                      f" {statistics.median(r.screen_s):.4f} s; "
                      + ("host factors " + ", ".join(f"{k} {v:.4f}" for k, v in r.factor.items())
                         if wl.host_scaled and not tr else "times not scaled"), file=sys.stderr)
        finally:
            if tr:
                tr.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gc.collect()

        last = rounds[-1]
        start = time.perf_counter()
        results = run_checks(wl, last, args.seed)
        print(f"checks took {time.perf_counter() - start:.1f} s", file=sys.stderr)
        digests = sorted({r.digest for r in rounds})
        results.append(checks.Check("digest_stable", len(digests) == 1,
                                    f"{len(rounds)} rounds, digests {', '.join(digests)}"))
        print(f"digest {last.digest}")
        for r in results:
            print(f"check {r.name}: {'ok' if r.ok else 'FAIL'} ({r.detail})")

        if tr:
            screen_s = [s for r in rounds for s in r.screen_s]
            metrics = tracing.layer_metrics(tr, [r.fold_s for r in rounds], screen_s,
                                            [n for r in rounds for n in r.screen_ops],
                                            last.checkpoint_bytes)
            if tr.missing:
                print(f"missing hooks: {', '.join(tr.missing)}", file=sys.stderr)
            trace_dir = BENCH_DIR / "traces"
            trace_dir.mkdir(exist_ok=True)
            (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps({
                "rounds": len(rounds),
                "spans": [{"phase": p, "span": n, "inclusive_s": t, "self_s": tr.self_time[p, n]}
                          for (p, n), t in sorted(tr.inclusive.items())],
                "samples": tr.samples, "counts": tr.counts, "missing": tr.missing,
            }, indent=1))
        else:
            def scaled(phase: str, times) -> float:
                return statistics.median(t * r.factor[phase] for r in rounds for t in times(r))
            metrics = {
                "setup_s": (scaled("setup", lambda r: r.setup_s), "s"),
                "fold_s": (scaled("fold", lambda r: [r.fold_s]), "s"),
                "screen_s_p50": (scaled("screen", lambda r: r.screen_s), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        for name, (value, unit) in metrics.items():
            if value is not None and not math.isfinite(value):
                metrics[name] = (None, unit)
        print(json.dumps({
            "correct": all(r.ok for r in results),
            "attempted": (train_cfg.epochs * n_train + len(last.screen_s)) * len(rounds),
            "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
