"""Minimal reverse-mode autodiff over dense float64 arrays.

Operations execute eagerly on numpy arrays. While a Tape is active (used as
a context manager), every differentiable op appends a backward rule to it;
``backward(loss, tape)`` replays the rules in reverse to populate ``grad``
buffers. A tape is consumed by ``backward`` and cannot be replayed.

This module is the tape core: ``Tensor``, ``Tape``, ``current_tape``,
``record``, ``needs_grad``, ``accumulate_grad``, ``backward`` and one op,
``add_scalars``, the sum of the scalar loss terms. Every other op lives with
its user and records through ``record``: the fused BiGRU layer, attention
pooling and the dense head in ``model``, the loss terms in ``training``, and
the generic ops that only the reference oracles compose (``matmul``,
``add``, ``sigmoid`` and the rest) in ``verify``, next to the gradient
check. A training step records 8 entries.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError, TapeConsumedError


class Tensor:
    """Dense float64 array with an optional gradient buffer.

    ``values`` is immutable by convention after construction; only ``grad``
    is mutated (by backward passes and ``zero_grad``). Trainable tensors get
    a zero-initialized gradient buffer up front so an unreachable parameter
    reports an all-zero gradient rather than None.
    """

    __slots__ = ("data", "grad", "trainable", "_op_output")

    def __init__(self, values, trainable: bool = False):
        self.data = np.asarray(values, dtype=np.float64)
        self.trainable = trainable
        self.grad = np.zeros_like(self.data) if trainable else None
        self._op_output = False

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)


class Tape:
    """Ordered record of backward rules for one forward pass.

    Forward execution order is a topological order of the graph, so replaying
    the records in reverse is a valid reverse-mode sweep. The tape is consumed
    by ``backward``, which empties it; a second replay raises TapeConsumedError.
    One tape records at a time: entering a tape while another is active raises.
    """

    def __init__(self):
        self._records: list[Callable[[], None]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tape is already recording")
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE
        _ACTIVE = None
        return False

    def __len__(self):
        return len(self._records)


# The recording tape. Ops record onto it; with no active tape they run
# forward-only (eval mode).
_ACTIVE: Tape | None = None


def current_tape() -> Tape | None:
    return _ACTIVE


def record(backward_fn: Callable[[], None], out: Tensor):
    """Attach a backward rule for ``out`` to the active tape, if any."""
    tape = current_tape()
    if tape is not None:
        out._op_output = True
        tape._records.append(backward_fn)


def needs_grad(t: Tensor) -> bool:
    """Whether gradient reaching ``t`` is kept: trainable leaves and op outputs.

    Ops whose input gradient costs real work check this before computing it.
    """
    return t.trainable or t._op_output


def accumulate_grad(t: Tensor, g: np.ndarray):
    """Additive gradient accumulation; frozen leaves are skipped."""
    if not needs_grad(t):
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def backward(loss: Tensor, tape: Tape):
    """Replay the tape in reverse, populating grads of reachable tensors.

    ``loss`` must be a scalar produced through ``tape``. The tape is
    consumed: it ends empty, so nothing its rules saved outlives the call.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if tape._consumed:
        raise TapeConsumedError("tape already consumed by a previous backward()")
    tape._consumed = True
    loss.grad = np.ones_like(loss.data)
    records = tape._records
    while records:
        records.pop()()  # a rule, and the arrays it saved, are released once run


def add_scalars(parts: Sequence[Tensor]) -> Tensor:
    """Sum of scalar tensors (loss = data term + penalty terms)."""
    out = Tensor(sum(float(p.data) for p in parts))

    def bwd():
        g = out.grad
        if g is None:
            return
        for p in parts:
            accumulate_grad(p, np.asarray(float(g)))

    record(bwd, out)
    return out
