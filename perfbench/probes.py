"""Timing hooks and a span tracer, attached to panemo from outside.

Both work by rebinding panemo's public functions. A module that did
``from .model import forward`` holds its own reference to the function, so
patching ``panemo.model.forward`` alone would leave ``training.forward``
untimed. ``Patch`` therefore replaces every binding of the target object in
every loaded panemo module, and ``undo`` restores them all.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np


def _bindings(func):
    for modname, module in list(sys.modules.items()):
        if module is None or modname.partition(".")[0] != "panemo":
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                yield module, attr


class Patch:
    def __init__(self):
        self._undo = []

    def wrap(self, module, name: str, make) -> bool:
        """Rebind every panemo reference to ``module.name`` to ``make(current)``.

        Returns False, changing nothing, when the module has no such function.
        """
        func = getattr(module, name, None)
        if not callable(func):
            return False
        wrapper = make(func)
        for mod, attr in list(_bindings(func)):
            setattr(mod, attr, wrapper)
            self._undo.append((mod, attr, func))
        return True

    def undo(self):
        for mod, attr, func in reversed(self._undo):
            setattr(mod, attr, func)
        self._undo.clear()


@dataclass
class Epoch:
    period: float  # from the end of the previous epoch's dev eval (or train start)
    dev_eval: float
    steps: float  # sum of this epoch's step times


class Clock:
    """Cheap timing for the untraced run.

    Per optimizer step it keeps one start (at the weight-noise draw that
    opens the step) and one end (at the return of ``adam_step``); per epoch
    the end of the dev-set evaluation; per checkpoint load its duration.
    Nothing is kept per op.
    """

    def __init__(self):
        self.steps: list[tuple[float, bool]] = []  # (seconds, traced)
        self.epochs: list[Epoch] = []
        self.loads: list[float] = []
        self.traced = False  # whether the tracer is on; kept with each step
        self.on_step_end = None  # called with the step count after each step
        # Called inside train() after each dev evaluation; its own time is
        # left out of the epoch periods.
        self.on_epoch_end = None
        self._step_start = 0.0
        self._epoch_start = None
        self._epoch_steps = 0.0

    def install(self, training, checkpoint):
        """Hooks into the two modules for the rest of the process."""
        patch = Patch()
        hooks = [
            (training, "perturb_hidden_weights", self._step_begin),
            (training, "adam_step", self._step_end),
            (training, "evaluate_loss", self._dev_eval),
            (checkpoint, "load_checkpoint", self._load),
        ]
        for module, name, make in hooks:
            if not patch.wrap(module, name, make):
                raise RuntimeError(f"{module.__name__}.{name} is gone; the benchmark must follow it")

    def start_training(self):
        self._epoch_start = perf_counter()
        self._epoch_steps = 0.0

    def stop_training(self):
        self._epoch_start = None

    def _step_begin(self, func):
        def step_begin(*args, **kwargs):
            self._step_start = perf_counter()
            return func(*args, **kwargs)

        return step_begin

    def _step_end(self, func):
        def step_end(*args, **kwargs):
            out = func(*args, **kwargs)
            seconds = perf_counter() - self._step_start
            self.steps.append((seconds, self.traced))
            self._epoch_steps += seconds
            if self.on_step_end is not None:
                self.on_step_end(len(self.steps))
            return out

        return step_end

    def _dev_eval(self, func):
        def dev_eval(*args, **kwargs):
            t0 = perf_counter()
            out = func(*args, **kwargs)
            if self._epoch_start is not None:
                t1 = perf_counter()
                self.epochs.append(Epoch(t1 - self._epoch_start, t1 - t0, self._epoch_steps))
                if self.on_epoch_end is not None:
                    self.on_epoch_end()
                self._epoch_start, self._epoch_steps = perf_counter(), 0.0
            return out

        return dev_eval

    def _load(self, func):
        def load(*args, **kwargs):
            t0 = perf_counter()
            out = func(*args, **kwargs)
            self.loads.append(perf_counter() - t0)
            return out

        return load


# Forward sub-spans that tape records are credited to during a train step.
BACKWARD_LABELS = ("embed", "gru1", "gru2", "attn1", "attn2", "head", "loss", "forward", "other")


class Tracer:
    """Spans at panemo's function boundaries, kept in memory.

    A span has a name, start, end, parent index and unit, where the unit is the
    step or request it belongs to ("setup:2", "step:17", "predict:1", ...),
    set by the caller through ``unit`` and by the step hooks. Inside one
    ``forward`` the first and second ``bigru_layer`` calls are gru1 and gru2,
    the first and second ``attention_pool`` calls attn1 and attn2. Two spans
    are synthetic: "model.embed" runs from the ``embed`` call to the first
    GRU layer, and "model.head" from the end of attn2 to the end of
    ``forward``.

    While a tape is active, each recorded backward closure is wrapped in a
    timer and credited to the innermost labelled span at record time.
    """

    def __init__(self, modules: dict):
        # Spans as parallel columns: flat lists keep the garbage collector's
        # work, and so the tracing overhead, independent of the span count.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.units: list[str] = []
        self.unit = "run"
        self.absent: set[str] = set()
        self.backward = defaultdict(float)  # (unit, label) -> seconds
        self.tape_records: dict[str, int] = {}  # step unit -> records replayed
        self.positions = [0.0, 0.0]  # valid, total positions given to the GRU layers in steps
        self.rows = defaultdict(int)  # unit -> rows through forward
        self._modules = modules
        self._stack: list[int] = []
        self._labels = ["other"]
        self._forward = None  # [bigru calls, attention calls] of the running forward
        self._step = 0
        self._patch = Patch()
        self.installed = False

    # -- span stack ---------------------------------------------------------

    def _open(self, name: str, label: str | None = None):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.names))
        self.names.append(name)
        self.parents.append(parent)
        self.units.append(self.unit)
        self.ends.append(0.0)
        self.starts.append(perf_counter())
        self._labels.append(label or self._labels[-1])

    def _close(self):
        self.ends[self._stack.pop()] = perf_counter()
        self._labels.pop()

    def _span(self, name: str, label: str | None = None):
        def make(func):
            def traced(*args, **kwargs):
                self._open(name, label)
                try:
                    return func(*args, **kwargs)
                finally:
                    self._close()

            return traced

        return make

    # -- installation -------------------------------------------------------

    def install(self):
        if self.installed:
            return
        m = self._modules
        plain = [
            ("textprep", "load_semeval_tsv", "textprep.load", None),
            ("textprep", "tokenize", "textprep.tokenize", None),
            ("textprep", "build_vocabulary", "textprep.vocab", None),
            ("textprep", "encode_dataset", "textprep.encode", None),
            ("textprep", "encode", "textprep.encode_one", None),
            ("textprep", "load_embeddings", "textprep.embeddings", None),
            ("model", "init_params", "model.init", None),
            ("training", "weighted_bce", "training.loss", "loss"),
            ("training", "l2_penalty", "training.loss", "loss"),
            ("metrics", "threshold", "metrics.report", None),
            ("metrics", "compute_report", "metrics.report", None),
            ("metrics", "per_class_report", "metrics.report", None),
            ("checkpoint", "save_checkpoint", "checkpoint.save", None),
            ("checkpoint", "load_checkpoint", "checkpoint.load", None),
            ("cli", "cmd_evaluate", "cli.evaluate", None),
            ("cli", "cmd_predict", "cli.predict", None),
        ]
        special = [
            ("model", "forward", self._forward_span),
            ("model", "embed", self._embed_span),
            ("model", "bigru_layer", self._layer_span("gru", 0)),
            ("model", "attention_pool", self._layer_span("attn", 1)),
            ("training", "perturb_hidden_weights", self._step_begin),
            ("training", "adam_step", self._step_end),
            ("autodiff", "record", self._record),
            ("autodiff", "backward", self._backward),
        ]
        targets = [(mod, fn, self._span(span, label)) for mod, fn, span, label in plain] + special
        for mod, fn, make in targets:
            if not self._patch.wrap(m[mod], fn, make):
                self.absent.add(f"{mod}.{fn}")
        self.installed = True

    def uninstall(self):
        self._patch.undo()
        self.installed = False

    # -- special wrappers ---------------------------------------------------

    def _forward_span(self, func):
        def forward(*args, **kwargs):
            indices = args[0] if args else kwargs.get("indices")
            self.rows[self.unit] += len(indices)
            outer, self._forward = self._forward, [0, 0]
            self._open("model.forward", "forward")
            depth = len(self._stack)
            try:
                return func(*args, **kwargs)
            finally:
                while len(self._stack) >= depth:  # open synthetic spans, then forward
                    self._close()
                self._forward = outer

        return forward

    def _embed_span(self, func):
        """Opens "model.embed"; the first GRU layer closes it, so the span
        also covers the spatial dropout applied to the embeddings."""

        def embed(*args, **kwargs):
            self._open("model.embed", "embed")
            return func(*args, **kwargs)

        return embed

    def _layer_span(self, kind: str, slot: int):
        def make(func):
            def layer(*args, **kwargs):
                calls = self._forward
                nth = 1
                if calls is not None:
                    calls[slot] += 1
                    nth = min(calls[slot], 2)
                if kind == "gru" and self.unit.startswith("step:"):
                    mask = kwargs.get("mask", args[3] if len(args) > 3 else None)
                    if isinstance(mask, np.ndarray) and mask.ndim == 2:
                        self.positions[0] += float(mask.sum())
                        self.positions[1] += mask.size
                if self._stack and self.names[self._stack[-1]] == "model.embed":
                    self._close()
                label = f"{kind}{nth}"
                self._open(f"model.{label}", label)
                try:
                    return func(*args, **kwargs)
                finally:
                    self._close()
                    if kind == "attn" and nth == 2 and calls is not None:
                        self._open("model.head", "head")

            return layer

        return make

    def _step_begin(self, func):
        def step_begin(*args, **kwargs):
            self._step += 1
            self.unit = f"step:{self._step}"
            self._open("training.step", "other")
            self._open("training.noise", "other")
            try:
                return func(*args, **kwargs)
            finally:
                self._close()

        return step_begin

    def _step_end(self, func):
        def step_end(*args, **kwargs):
            self._open("training.adam", "other")
            try:
                return func(*args, **kwargs)
            finally:
                self._close()
                if self._stack and self.names[self._stack[-1]] == "training.step":
                    self._close()
                self.unit = "train"

        return step_end

    def _record(self, func):
        current_tape = getattr(self._modules["autodiff"], "current_tape", None)

        def record(backward_fn, out):
            if current_tape is None or current_tape() is None:
                return func(backward_fn, out)
            key = (self.unit, self._labels[-1])
            totals = self.backward

            def timed():
                t0 = perf_counter()
                backward_fn()
                totals[key] += perf_counter() - t0

            return func(timed, out)

        return record

    def _backward(self, func):
        span = self._span("autodiff.backward")(func)

        def backward(loss, tape, *args, **kwargs):
            try:
                self.tape_records[self.unit] = len(tape)
            except TypeError:
                pass
            return span(loss, tape, *args, **kwargs)

        return backward

    # -- results ------------------------------------------------------------

    def _rows(self):
        return zip(self.names, self.starts, self.ends, self.parents, self.units)

    def self_times(self) -> dict[str, dict[str, float]]:
        """unit -> span name -> summed self time (duration minus child spans)."""
        child = [0.0] * len(self.names)
        for name, start, end, parent, unit in self._rows():
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, unit) in enumerate(self._rows()):
            out[unit][name] += end - start - child[i]
        return out

    def span_counts(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for name, unit in zip(self.names, self.units):
            out[unit][name] += 1
        return out

    def write(self, path, t0: float):
        """Spans as TSV, times in seconds from ``t0``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tunit\n")
            for i, (name, start, end, parent, unit) in enumerate(self._rows()):
                fh.write(f"{i}\t{name}\t{start - t0:.7f}\t{end - t0:.7f}\t{parent}\t{unit}\n")
