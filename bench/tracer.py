"""Per-layer tracing of sdscreen from outside the program.

``Tracer.install`` wraps the program's layer functions where their callers
look them up (for example ``sdscreen.model.segment``), so every call made by
``run_fold``, the set-up and screening opens a span. A span records its
inclusive time and its self time (inclusive minus the spans it contains),
keyed by the phase it ran in. Each backward closure handed to
``Tape.record`` is wrapped too, so backward time splits by op (the closure's
qualified name) and by layer (the layer function active when the closure was
recorded). ``Tape.backward`` additionally sizes the tape and the gradients it
leaves on intermediates.

A hook whose target is gone is listed in ``missing`` and the metrics that
need it read ``None``; the run goes on. ``uninstall`` restores every
original, so untraced work in the same process runs unwrapped code.
"""

from __future__ import annotations

import gc
import importlib
import statistics
import time
import weakref
from collections import defaultdict

import numpy as np

MB = 1024.0 * 1024.0

# Spans whose own work belongs to no layer of the table: their self time is
# the trainer loop and model glue, so coverage leaves it out.
CONTAINERS = ("trainer.run_fold", "trainer.train", "trainer.evaluate")


class Tracer:
    def __init__(self) -> None:
        self.phase = "prepare"
        self.inclusive: dict[tuple[str, str], float] = defaultdict(float)
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.hooked: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._layers: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._marks: dict[str, float | None] = {"step": None, "epoch": None, "train_end": None}
        self._gc_start = 0.0
        self._tapes: weakref.WeakSet = weakref.WeakSet()

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> float:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.inclusive[self.phase, name] += duration
        self.self_time[self.phase, name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def total(self, span: str, phases: tuple[str, ...] = ("fold", "setup", "screen")) -> float:
        return sum(self.inclusive.get((p, span), 0.0) for p in phases)

    def covered(self, phase: str) -> float:
        """Self time of every layer span in one phase."""
        return sum(t for (p, name), t in self.self_time.items()
                   if p == phase and name not in CONTAINERS)

    # -- hooks ---------------------------------------------------------------

    def _patch(self, module: str, attr: str, make, name: str) -> None:
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        setattr(owner, leaf, make(original))
        self._undo.append((owner, leaf, original))
        self.hooked.add(name)

    def _span(self, module: str, attr: str, name: str, after=None, layer: bool = False) -> None:
        def make(fn):
            def traced(*args, **kwargs):
                if layer:
                    self._layers.append(name.split(".")[0])
                self._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit()
                    if layer:
                        self._layers.pop()
                if after is not None:
                    after(args, result)
                return result
            return traced
        self._patch(module, attr, make, name)

    def install(self) -> None:
        c, marks = self.counts, self._marks

        def frames_read(args, frames):
            c["frames_bytes"] += frames.nbytes

        def segmented(args, clips):
            c["clips"] += len(clips)

        def conv_flops(args, out):
            c["conv_flops"] += 2.0 * out.data.size * int(np.prod(args[1].shape[1:]))

        def pairs(args, pooled):
            m = len(args[0])
            if m > 1:
                c["pair_elements"] += args[3].blocks * m * m * pooled.shape[0]

        def step_end(args, result):
            self.samples["step_s"].append(time.perf_counter() - marks["step"])

        def epoch_end(args, result):
            self.samples["epoch_s"].append(time.perf_counter() - marks["epoch"])
            marks["epoch"] = None

        def train_end(args, result):
            marks["train_end"] = time.perf_counter()

        def fold_end(args, result):
            self.samples["final_eval_s"].append(time.perf_counter() - marks["train_end"])

        self._span("sdscreen.dataset", "load_dataset", "dataset.load")
        self._span("sdscreen.model", "load_question_frames", "dataset.frames_read", frames_read)
        self._span("sdscreen.model", "init_model", "model.init")
        self._span("sdscreen.trainer", "init_model", "model.init")
        self._span("sdscreen.trainer", "save_checkpoint", "model.checkpoint_save", epoch_end)
        self._span("sdscreen.model", "load_checkpoint", "model.checkpoint_load")
        self._span("sdscreen.model", "segment", "clipper.segment", segmented)
        self._span("sdscreen.model", "encode_question_clips", "encoder3d.forward", layer=True)
        self._span("sdscreen.encoder3d", "conv3d", "conv.conv3d_forward", conv_flops)
        self._span("sdscreen.encoder3d", "maxpool3d", "conv.maxpool3d_forward")
        self._span("sdscreen.model", "encode_question", "ras.forward", pairs, layer=True)
        for module, attr in (("sdscreen.model", "fuse_question"),
                             ("sdscreen.model", "predict_subject"),
                             ("sdscreen.trainer", "bce_loss")):
            self._span(module, attr, "fusion.forward", layer=True)
        self._span("sdscreen.trainer", "adam_step", "trainer.adam", step_end)
        self._span("sdscreen.trainer", "train", "trainer.train", train_end)
        self._span("sdscreen.trainer", "run_fold", "trainer.run_fold", fold_end)
        self._patch("sdscreen.trainer", "evaluate_probs", self._evaluate, "trainer.evaluate")
        self._patch("sdscreen.trainer", "zero_grads", self._step_start, "trainer.zero_grads")
        self._patch("sdscreen.numerics.tensor", "Tape.record", self._record, "tensor.record")
        self._patch("sdscreen.numerics.tensor", "Tape.backward", self._backward, "tensor.backward")
        for module in ("sdscreen.numerics.tensor", "sdscreen.numerics.conv"):
            self._patch(module, "_finish", self._count_op, f"{module}._finish")
        gc.callbacks.append(self._gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc)
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    def collect(self) -> None:
        """gc.collect() left out of the program's collection counts."""
        gc.callbacks.remove(self._gc)
        try:
            gc.collect()
        finally:
            gc.callbacks.append(self._gc)

    def _gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counts["gc_s"] += time.perf_counter() - self._gc_start
            self.counts["gc_collections"] += 1

    def _evaluate(self, fn):
        def traced(*args, **kwargs):
            inside_train = any(frame[0] == "trainer.train" for frame in self._stack)
            self._enter("trainer.evaluate")
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self._exit()
                if inside_train:
                    self.samples["validation_s"].append(duration)
        return traced

    def _step_start(self, fn):
        def traced(*args, **kwargs):
            now = time.perf_counter()
            self._marks["step"] = now
            if self._marks["epoch"] is None:
                self._marks["epoch"] = now
            return fn(*args, **kwargs)
        return traced

    def _count_op(self, fn):
        def traced(*args, **kwargs):
            self.counts["ops"] += 1
            return fn(*args, **kwargs)
        return traced

    def _record(self, record):
        def traced(tape, out, backward_fn):
            layer = self._layers[-1] if self._layers else "other"
            span = f"backward.{layer}.{backward_fn.__qualname__.split('.')[0]}"

            def timed(g):
                self._enter(span)
                try:
                    backward_fn(g)
                finally:
                    self._exit()
            timed.layer, timed.inner = layer, backward_fn
            return record(tape, out, timed)
        return traced

    def _backward(self, backward):
        def traced(tape, loss):
            # Finished tapes that are still in memory when the next one replays.
            self.samples["stale_tapes"].append(sum(1 for t in self._tapes if t is not tape))
            self._tapes.add(tape)
            entries = getattr(tape, "_entries", None)
            if entries is not None:
                total, by_layer = tape_bytes(entries)
                self.samples["tape_entries"].append(len(entries))
                self.samples["tape_bytes"].append(total)
                self.samples["ras_tape_bytes"].append(by_layer.get("ras", 0))
            self._enter("tensor.backward")
            try:
                return backward(tape, loss)
            finally:
                self._exit()
                if entries is not None:
                    held = {id(out): out.grad.nbytes for out, _ in entries if out.grad is not None}
                    self.samples["retained_grad_bytes"].append(sum(held.values()))
        return traced


def _root(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def tape_bytes(entries) -> tuple[int, dict[str, int]]:
    """Bytes a tape keeps alive: every recorded output and every array or
    tensor its closures captured, counted once per underlying buffer.
    Parameters (leaves that require gradients) live anyway and are left out."""
    outputs = {id(out) for out, _ in entries}
    captured = []
    for out, fn in entries:
        layer = getattr(fn, "layer", "other")
        captured.append((layer, out.data))
        for cell in getattr(getattr(fn, "inner", fn), "__closure__", None) or ():
            try:
                value = cell.cell_contents
            except ValueError:
                continue
            if isinstance(value, np.ndarray):
                captured.append((layer, value))
            elif hasattr(value, "requires_grad") and isinstance(getattr(value, "data", None), np.ndarray):
                if id(value) in outputs or not value.requires_grad:
                    captured.append((layer, value.data))
                else:
                    captured.append((None, value.data))
    seen: set[int] = set()
    for layer, arr in captured:  # parameters first, so their views count as parameters
        if layer is None:
            seen.add(id(_root(arr)))
    by_layer: dict[str, int] = defaultdict(int)
    for layer, arr in captured:
        root = _root(arr)
        if layer is not None and id(root) not in seen:
            seen.add(id(root))
            by_layer[layer] += root.nbytes
    return sum(by_layer.values()), by_layer


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def layer_metrics(tr: Tracer, fold_times: list[float], screen_times: list[float],
                  screen_ops: list[float], checkpoint_bytes: int
                  ) -> dict[str, tuple[float | None, str]]:
    """Every per-layer metric as name -> (value, unit); None where a hook is missing.

    Times, counts and bytes read are per round; ``_p50``, per-step and
    per-epoch figures are medians; tape sizes are the largest step's."""
    rounds = len(fold_times)

    def spans(*names):
        return all(n in tr.hooked for n in names)

    def total(span):
        return tr.total(span) / rounds

    def count(key, scale=1.0):
        return tr.counts[key] / rounds / scale

    def backward(layer=None, op=None):
        return sum(t for (_, name), t in tr.inclusive.items()
                   if name.startswith("backward.")
                   and (layer is None or name.split(".")[1] == layer)
                   and (op is None or name.split(".")[2] == op)) / rounds

    def largest(key):
        return max(tr.samples[key], default=0) / MB

    record = spans("tensor.record")
    sized = bool(tr.samples["tape_bytes"])
    rows = {
        "dataset.load_s": (spans("dataset.load"), total("dataset.load"), "s"),
        "dataset.frames_read_s": (spans("dataset.frames_read"), total("dataset.frames_read"), "s"),
        "dataset.frames_mb": (spans("dataset.frames_read"), count("frames_bytes", MB), "MB"),
        "model.init_s": (spans("model.init"), total("model.init"), "s"),
        "model.checkpoint_save_s": (spans("model.checkpoint_save"), total("model.checkpoint_save"), "s"),
        "model.checkpoint_load_s": (spans("model.checkpoint_load"), total("model.checkpoint_load"), "s"),
        "model.checkpoint_mb": (True, checkpoint_bytes / MB, "MB"),
        "clipper.segment_s": (spans("clipper.segment"), total("clipper.segment"), "s"),
        "clipper.clips": (spans("clipper.segment"), count("clips"), "count"),
        "encoder3d.forward_s": (spans("encoder3d.forward"), total("encoder3d.forward"), "s"),
        "encoder3d.backward_s": (record and spans("encoder3d.forward"), backward("encoder3d"), "s"),
        "conv.conv3d_forward_s": (spans("conv.conv3d_forward"), total("conv.conv3d_forward"), "s"),
        "conv.conv3d_backward_s": (record, backward(op="conv3d"), "s"),
        "conv.maxpool3d_forward_s": (spans("conv.maxpool3d_forward"), total("conv.maxpool3d_forward"), "s"),
        "conv.maxpool3d_backward_s": (record, backward(op="maxpool3d"), "s"),
        "conv.conv3d_gflop": (spans("conv.conv3d_forward"), count("conv_flops", 1e9), "GFLOP"),
        "ras.forward_s": (spans("ras.forward"), total("ras.forward"), "s"),
        "ras.backward_s": (record and spans("ras.forward"), backward("ras"), "s"),
        "ras.pair_elements": (spans("ras.forward"), count("pair_elements"), "count"),
        "ras.tape_mb": (sized and record, largest("ras_tape_bytes"), "MB"),
        "fusion.forward_s": (spans("fusion.forward"), total("fusion.forward"), "s"),
        "fusion.backward_s": (record and spans("fusion.forward"), backward("fusion"), "s"),
        "tensor.tape_entries": (sized, _median(tr.samples["tape_entries"]), "count"),
        "tensor.ops": (spans("sdscreen.numerics.tensor._finish", "sdscreen.numerics.conv._finish"),
                       _median(screen_ops), "count"),
        "tensor.backward_s": (spans("tensor.backward"), total("tensor.backward"), "s"),
        "tensor.tape_mb": (sized, largest("tape_bytes"), "MB"),
        "tensor.retained_grad_mb": (sized, largest("retained_grad_bytes"), "MB"),
        "tensor.stale_tapes": (spans("tensor.backward"), max(tr.samples["stale_tapes"], default=0), "count"),
        "trainer.step_s_p50": (spans("trainer.zero_grads", "trainer.adam"),
                               _median(tr.samples["step_s"]), "s"),
        "trainer.adam_s": (spans("trainer.adam"), total("trainer.adam"), "s"),
        "trainer.epoch_s": (spans("trainer.zero_grads", "model.checkpoint_save"),
                            _median(tr.samples["epoch_s"]), "s"),
        "trainer.validation_s": (spans("trainer.evaluate", "trainer.train"),
                                 sum(tr.samples["validation_s"]) / rounds, "s"),
        "trainer.final_eval_s": (spans("trainer.train", "trainer.run_fold"),
                                 sum(tr.samples["final_eval_s"]) / rounds, "s"),
        "python.gc_s": (True, count("gc_s"), "s"),
        "python.gc_collections": (True, count("gc_collections"), "count"),
        "trace.fold_s": (True, statistics.median(fold_times), "s"),
        "trace.screen_s_p50": (True, statistics.median(screen_times), "s"),
        "trace.fold_covered_pct": (True, 100.0 * tr.covered("fold") / sum(fold_times), "%"),
        "trace.screen_covered_pct": (True, 100.0 * tr.covered("screen") / sum(screen_times), "%"),
    }
    return {name: (value if ok else None, unit) for name, (ok, value, unit) in rows.items()}
