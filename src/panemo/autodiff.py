"""Minimal reverse-mode autodiff over dense float64 arrays.

Operations execute eagerly on numpy arrays. While a Tape is active (used as
a context manager), every differentiable op appends a backward rule to it;
``backward(loss, tape)`` replays the rules in reverse to populate ``grad``
buffers. A tape is consumed by ``backward`` and cannot be replayed.

The op set is the model's: 2-D matrices, 1-D bias vectors broadcast over
rows, constant factors and offsets, the sigmoid head, feature concatenation
and the scalar loss terms. Ops that act on whole sequences, such as the
fused GRU layer, live with the model and record through ``record``; ops
that only the per-step reference oracles use live in ``verify``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import (
    DeterminismError,
    EmptySequenceError,
    ShapeError,
    TapeConsumedError,
)


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

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, trainable={self.trainable})"


class Tape:
    """Ordered record of backward rules for one forward pass.

    Forward execution order is a topological order of the graph, so replaying
    the records in reverse is a valid reverse-mode sweep. The tape is consumed
    by ``backward``; a second replay raises TapeConsumedError.
    """

    def __init__(self):
        self._records: list[Callable[[], None]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        if not _TAPE_STACK or _TAPE_STACK[-1] is not self:
            raise RuntimeError("tape context exited out of order")
        _TAPE_STACK.pop()
        return False

    def __len__(self):
        return len(self._records)


# Active tape stack. Ops record onto the innermost active tape; with no
# active tape they run forward-only (eval mode).
_TAPE_STACK: list[Tape] = []


def current_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


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

    ``loss`` must be a scalar produced through ``tape``. The tape is consumed.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if tape._consumed:
        raise TapeConsumedError("tape already consumed by a previous backward()")
    tape._consumed = True
    loss.grad = np.ones_like(loss.data)
    for fn in reversed(tape._records):
        fn()


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a @ b for 2-D operands."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data)

    def bwd():
        g = out.grad
        if g is None:
            return
        accumulate_grad(a, g @ b.data.T)
        accumulate_grad(b, a.data.T @ g)

    record(bwd, out)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1-D bias in ``b`` broadcast over rows."""
    if a.data.shape == b.data.shape:
        pass
    elif b.data.ndim == 1 and a.data.ndim == 2 and a.data.shape[1] == b.data.shape[0]:
        pass
    else:
        raise ShapeError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")
    out = Tensor(a.data + b.data)

    def bwd():
        g = out.grad
        if g is None:
            return
        accumulate_grad(a, g)
        if b.data.shape == a.data.shape:
            accumulate_grad(b, g)
        else:
            accumulate_grad(b, g.sum(axis=0))

    record(bwd, out)
    return out


def mul_const(a: Tensor, c) -> Tensor:
    """Multiply by a constant array or scalar (no gradient into the constant)."""
    c = np.asarray(c, dtype=np.float64)
    out = Tensor(a.data * c)

    def bwd():
        g = out.grad
        if g is None:
            return
        ga = g * c
        # undo any broadcasting of the constant over a's shape
        if ga.shape != a.data.shape:
            raise ShapeError(f"mul_const broadcast widened {a.data.shape} to {ga.shape}")
        accumulate_grad(a, ga)

    record(bwd, out)
    return out


def add_const(a: Tensor, c) -> Tensor:
    """Add a constant array (same shape). Gradient passes through unchanged.

    Used for Gaussian weight noise: the noisy forward differentiates back to
    the clean weight, and the noise itself is never stored in the parameter.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.shape != a.data.shape:
        raise ShapeError(f"add_const shape mismatch: {a.data.shape} + {c.shape}")
    out = Tensor(a.data + c)

    def bwd():
        g = out.grad
        if g is None:
            return
        accumulate_grad(a, g)

    record(bwd, out)
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function."""
    y = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(y)

    def bwd():
        g = out.grad
        if g is None:
            return
        accumulate_grad(x, g * y * (1.0 - y))

    record(bwd, out)
    return out


def concat_features(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis; all parts share leading dimensions."""
    if not parts:
        raise ShapeError("concat_features needs at least one part")
    lead = parts[0].data.shape[:-1]
    for p in parts:
        if p.data.shape[:-1] != lead:
            raise ShapeError(
                f"concat_features leading-dimension mismatch: "
                f"{parts[0].data.shape} vs {p.data.shape}"
            )
    out = Tensor(np.concatenate([p.data for p in parts], axis=-1))
    widths = [p.data.shape[-1] for p in parts]

    def bwd():
        g = out.grad
        if g is None:
            return
        offset = 0
        for p, w in zip(parts, widths):
            accumulate_grad(p, g[..., offset : offset + w])
            offset += w

    record(bwd, out)
    return out


def softmax_rows(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (B, T) scores over the positions where the 0/1
    mask is set, exactly zero elsewhere. The max valid score of each row is
    subtracted before exponentiating. Its gradient rule is
    ds = a * (g - sum(a * g)); attention pooling applies it in its own
    backward rule.
    """
    if np.any(m.sum(axis=1) == 0):
        raise EmptySequenceError("masked_softmax: a row has no valid positions")
    neg = np.where(m > 0, s, -np.inf)
    shifted = neg - neg.max(axis=1, keepdims=True)
    e = np.where(m > 0, np.exp(np.where(m > 0, shifted, 0.0)), 0.0)
    return e / e.sum(axis=1, keepdims=True)


def square_sum(x: Tensor) -> Tensor:
    """Sum of squared entries, as a scalar tensor (L2 building block)."""
    out = Tensor((x.data * x.data).sum())

    def bwd():
        g = out.grad
        if g is None:
            return
        accumulate_grad(x, 2.0 * float(g) * x.data)

    record(bwd, out)
    return out


def scale(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * c)

    def bwd():
        g = out.grad
        if g is None:
            return
        accumulate_grad(x, g * c)

    record(bwd, out)
    return out


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


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``f`` builds a scalar loss from the current ``.data`` of ``params``; it
    must be deterministic (any internal randomness fixed by seed). The
    analytic gradient comes from one taped forward/backward; the numeric one
    perturbs each parameter component in place by ±eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
    v0 = float(loss.data)
    v1 = float(f().data)
    if v0 != v1:
        raise DeterminismError(f"f is not deterministic: {v0!r} != {v1!r}")
    backward(loss, tape)

    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f().data)
            flat[i] = orig - eps
            fm = float(f().data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            denom = max(abs(aflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst
