"""Self-verification harnesses: the finite-difference gradient check and its
downsized runs (eval and train mode), invariant suites, reference oracles,
and a synthetic overfit dataset.

The oracles here are deliberately independent of the fast implementations
they check: the metric oracles are plain Python loops over individual cells,
the sequence-layer oracles build the GRU and attention pooling from
per-step, per-gate tape ops, the head oracle composes the dense head from
generic ones, and the tokenizer oracle applies every rule's regex to every
text and piece.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DeterminismError, ShapeError
from .metrics import f1_scores, jaccard_accuracy
from .model import (
    AttentionParams,
    GruDirectionParams,
    ModelConfig,
    ModelParams,
    Packing,
    attention_pool,
    bigru_layer,
    dropout_mask,
    forward,
    gru_layout,
    head,
    init_params,
    softmax_rows,
)
from .textprep import (
    _ELONGATION_RE,
    _HASHTAG_RE,
    _MENTION_RE,
    _NUMBER_RE,
    _PUNCT_SPLIT_RE,
    _URL_RE,
    Dataset,
    Example,
    NUM_EMOTIONS,
    random_embeddings,
    tokenize,
)
from .training import TrainingConfig, batch_loss, noisy_direction


# ---------------------------------------------------------------------------
# gradient check
# ---------------------------------------------------------------------------


# Step of the central differences; L2 coefficient of the downsized gradchecks.
GRADCHECK_EPS = 1e-5
GRADCHECK_L2 = 1e-3


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor]) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``f`` builds a scalar loss from the current ``.data`` of ``params``; it
    must be deterministic (any internal randomness fixed by seed). The
    analytic gradient comes from one taped forward/backward; the numeric one
    perturbs each parameter component in place by ±GRADCHECK_EPS.
    """
    for p in params:
        p.zero_grad()
    with ad.Tape() as tape:
        loss = f()
    v0 = float(loss.data)
    v1 = float(f().data)
    if v0 != v1:
        raise DeterminismError(f"f is not deterministic: {v0!r} != {v1!r}")
    ad.backward(loss, tape)

    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        aflat = analytic.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + GRADCHECK_EPS
            fp = float(f().data)
            flat[i] = orig - GRADCHECK_EPS
            fm = float(f().data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * GRADCHECK_EPS)
            denom = max(abs(aflat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(aflat[i] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# downsized model
# ---------------------------------------------------------------------------

DOWNSIZED = dict(vocab_size=20, d_emb=8, hidden=4, T=5, batch=2)


def build_downsized(seed: int, emb_scale: float = 0.05) -> ModelParams:
    emb = random_embeddings(DOWNSIZED["vocab_size"], DOWNSIZED["d_emb"], seed, scale=emb_scale)
    return init_params(emb, ModelConfig(d_emb=DOWNSIZED["d_emb"], hidden=DOWNSIZED["hidden"]), seed)


def _gradcheck(seed: int, regime: TrainingConfig, rngs: Callable[[], tuple]) -> float:
    """``grad_check`` of ``batch_loss`` under ``regime`` on the downsized
    params of ``seed`` and one ragged, PAD-filled batch with random labels;
    ``rngs`` gives each evaluation its noise, spatial and dense dropout streams."""
    cfg = DOWNSIZED
    params = build_downsized(seed)
    rng = np.random.default_rng(seed + 1)
    indices = rng.integers(0, cfg["vocab_size"], size=(cfg["batch"], cfg["T"]))
    mask = prefix_mask(rng.integers(2, cfg["T"] + 1, size=cfg["batch"]), cfg["T"])
    indices = indices * (mask.astype(np.int64))  # padded positions -> PAD
    labels = rng.integers(0, 2, size=(cfg["batch"], NUM_EMOTIONS)).astype(np.float64)
    trainable = [t for _, t in params.trainable_parameters()]
    return grad_check(lambda: batch_loss(params, indices, mask, labels, regime, *rngs()), trainable)


def downsized_gradcheck(seed: int = 0) -> float:
    """Max relative error of analytic vs central-difference gradients on a
    downsized model with all regularizer randomness disabled."""
    regime = TrainingConfig(dropout_dense=0.0, spatial_dropout=0.0, weight_noise_std=0.0, l2_coeff=GRADCHECK_L2)
    return _gradcheck(seed, regime, lambda: (None, None, None))


def train_mode_gradcheck(seed: int = 0) -> float:
    """``downsized_gradcheck`` through the train-mode loss of one step.

    Spatial dropout, dense dropout and Gaussian hidden-weight noise are on at
    the default training rates. Every evaluation of the loss draws them from
    freshly seeded streams, so all draws are held fixed while the finite
    differences move the clean weights underneath the noise.
    """
    regime = TrainingConfig(l2_coeff=GRADCHECK_L2)
    return _gradcheck(seed, regime, lambda: tuple(np.random.default_rng(seed + k) for k in (2, 3, 4)))


# ---------------------------------------------------------------------------
# tape ops that only the oracles use
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
        ad.accumulate_grad(a, g @ b.data.T)
        ad.accumulate_grad(b, a.data.T @ g)

    ad.record(bwd, out)
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
        ad.accumulate_grad(a, g)
        if b.data.shape == a.data.shape:
            ad.accumulate_grad(b, g)
        else:
            ad.accumulate_grad(b, g.sum(axis=0))

    ad.record(bwd, out)
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
        ad.accumulate_grad(a, ga)

    ad.record(bwd, out)
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function. Below -709, exp(-x) overflows to inf
    and y is 0, its limit, with no warning."""
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor(y)

    def bwd():
        g = out.grad
        if g is None:
            return
        ad.accumulate_grad(x, g * y * (1.0 - y))

    ad.record(bwd, out)
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
            ad.accumulate_grad(p, g[..., offset : offset + w])
            offset += w

    ad.record(bwd, out)
    return out


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)

    def bwd():
        if out.grad is not None:
            ad.accumulate_grad(x, out.grad * (1.0 - y * y))

    ad.record(bwd, out)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; ``b`` may be a (B, 1) column broadcast over features."""
    col = a.data.ndim == 2 and b.data.shape == (a.data.shape[0], 1)
    if a.data.shape != b.data.shape and not col:
        raise ShapeError(f"mul shape mismatch: {a.data.shape} * {b.data.shape}")
    out = Tensor(a.data * b.data)

    def bwd():
        g = out.grad
        if g is None:
            return
        ad.accumulate_grad(a, g * b.data)
        ad.accumulate_grad(b, (g * a.data).sum(axis=1, keepdims=True) if col else g * a.data)

    ad.record(bwd, out)
    return out


def tensor_sum(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())

    def bwd():
        if out.grad is not None:
            ad.accumulate_grad(x, np.full_like(x.data, float(out.grad)))

    ad.record(bwd, out)
    return out


def masked_softmax(scores: Tensor, mask) -> Tensor:
    """Row-wise softmax of (B, T) scores over the valid positions of the
    constant 0/1 ``mask``; masked positions are exactly zero, and a row
    without a valid position raises EmptySequenceError."""
    m = np.asarray(mask, dtype=np.float64)
    if m.ndim != 2 or m.shape != scores.data.shape:
        raise ShapeError(f"mask shape {m.shape} != (B, T) scores shape {scores.data.shape}")
    a = softmax_rows(scores.data, m)
    out = Tensor(a)

    def bwd():
        g = out.grad
        if g is not None:  # masked entries have a == 0
            ad.accumulate_grad(scores, a * (g - (a * g).sum(axis=1, keepdims=True)))

    ad.record(bwd, out)
    return out


# ---------------------------------------------------------------------------
# per-step tape oracles for the sequence layers
# ---------------------------------------------------------------------------


def gru_cell(x_t: Tensor, h_prev: Tensor, p: GruDirectionParams) -> Tensor:
    """One GRU step from per-gate tape ops.

    r = sigma(W_ir x + b_ir + W_hr h + b_hr)
    z = sigma(W_iz x + b_iz + W_hz h + b_hz)
    n = tanh(W_in x + b_in + r * (W_hn h + b_hn))   # r gates the affine hidden term
    h' = (1 - z) * n + z * h
    """
    r = sigmoid(
        add(add(matmul(x_t, p.W_ir), p.b_ir), add(matmul(h_prev, p.W_hr), p.b_hr))
    )
    z = sigmoid(
        add(add(matmul(x_t, p.W_iz), p.b_iz), add(matmul(h_prev, p.W_hz), p.b_hz))
    )
    n = tanh(
        add(
            add(matmul(x_t, p.W_in), p.b_in),
            mul(add(matmul(h_prev, p.W_hn), p.b_hn), r),
        )
    )
    # (1 - z) * n + z * h_prev, written without a standalone ones tensor
    return add(add(n, mul_const(mul(n, z), -1.0)), mul(h_prev, z))


def reference_bigru_layer(
    xs: list[Tensor], fwd: GruDirectionParams, bwd: GruDirectionParams, mask: np.ndarray
) -> list[Tensor]:
    """Oracle for ``model.bigru_layer``: T per-position (B, d_in) inputs in,
    T per-position (B, 2*hidden) outputs out, one ``gru_cell`` per step."""
    mask = np.asarray(mask, dtype=np.float64)
    T = len(xs)
    B = xs[0].data.shape[0]
    hidden = fwd.W_hr.data.shape[0]

    def scan(order, params):
        h = Tensor(np.zeros((B, hidden)))
        outs = {}
        for t in order:
            m_t = mask[:, t : t + 1]
            h_new = gru_cell(xs[t], h, params)
            # carried state: h_new where valid, previous h where masked
            h = add(mul_const(h_new, m_t), mul_const(h, 1.0 - m_t))
            outs[t] = mul_const(h_new, m_t)
        return [outs[t] for t in range(T)]

    hs_fwd = scan(range(T), fwd)
    hs_bwd = scan(range(T - 1, -1, -1), bwd)
    return [concat_features([hs_fwd[t], hs_bwd[t]]) for t in range(T)]


def reference_attention_pool(
    us: list[Tensor], p: AttentionParams, mask: np.ndarray
) -> tuple[Tensor, np.ndarray]:
    """Oracle for ``model.attention_pool`` over T per-position (B, d_u) inputs:
    one score per position, then a sum of per-position weighted terms."""
    T = len(us)
    scores = concat_features([add(matmul(u, p.w_a), p.b) for u in us])  # (B, T)
    weights = masked_softmax(scores, mask)
    pooled = None
    for t, u in enumerate(us):
        column = matmul(weights, Tensor(np.eye(T)[:, t : t + 1]))  # (B, 1)
        term = mul(u, column)
        pooled = term if pooled is None else add(pooled, term)
    return pooled, weights.data.copy()


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest absolute difference, relative to the largest reference entry."""
    scale = float(np.abs(want).max(initial=0.0))
    diff = float(np.abs(got - want).max(initial=0.0))
    return diff / scale if scale > 0.0 else diff


# Shape of the oracle checks' default case: T steps, B rows, D input
# features and HIDDEN units per GRU direction.
ORACLE_T, ORACLE_B, ORACLE_D, ORACLE_HIDDEN = 7, 5, 6, 4


def prefix_mask(lengths, T: int) -> np.ndarray:
    """The (len(lengths), T) float mask whose row i is 1 on [0, lengths[i]) and 0 after it."""
    return (np.arange(T) < np.asarray(lengths)[:, None]).astype(np.float64)


def _oracle_mask(rng, T: int, B: int) -> np.ndarray:
    """Ragged prefix masks with a full-length row, a length-1 row and random
    lengths in [1, T]."""
    return prefix_mask([T, 1, *rng.integers(1, T + 1, size=max(B - 2, 0))][:B], T)


def gru_direction(d_in: int, hidden: int, fill) -> GruDirectionParams:
    """A trainable GRU direction over ``d_in`` inputs whose tensors are
    ``fill(shape)``, called in field order."""
    return GruDirectionParams(
        **{name: Tensor(fill(shape), trainable=True) for name, shape in gru_layout(d_in, hidden).items()}
    )


def random_gru(rng, d_in: int, hidden: int, scale: float = 0.5) -> GruDirectionParams:
    """A GRU direction with uniform(-scale, scale) entries drawn from ``rng``."""
    return gru_direction(d_in, hidden, lambda shape: rng.uniform(-scale, scale, shape))


def random_attention(rng, d_u: int) -> AttentionParams:
    """A trainable attention scorer over ``d_u`` features with uniform(-1, 1)
    entries drawn from ``rng``: w_a, then b."""
    return AttentionParams(
        w_a=Tensor(rng.uniform(-1, 1, (d_u, 1)), trainable=True), b=Tensor(rng.uniform(-1, 1, 1), trainable=True)
    )


def unpack(pack: Packing, rows: np.ndarray) -> np.ndarray:
    """(N, ...) packed rows of ``pack`` as a (T, B, ...) array, zero where nothing is scanned."""
    if not pack.packed:
        return rows.reshape(pack.T, pack.B, *rows.shape[1:])
    out = np.zeros((pack.T * pack.B, *rows.shape[1:]))
    out[pack.index] = rows
    return out.reshape(pack.T, pack.B, *rows.shape[1:])


# Prefix masks that drive the packed scan off its common path: rows that
# must be re-ranked, rows that are never stepped, and batches where every row
# ends at T (packing is then the identity).
PACKING_MASKS = {
    name: prefix_mask(lengths, 7)
    for name, lengths in {
        "ascending lengths": [1, 2, 4, 6, 7],
        "empty rows": [3, 0, 7, 1, 0],
        "equal lengths": [7] * 5,
        "single short row": [3],
    }.items()
}


def random_ragged_mask(rng, T: int, B: int) -> np.ndarray:
    """A (B, T) ``prefix_mask`` of random lengths in [1, T]."""
    return prefix_mask(rng.integers(1, T + 1, B), T)


# (T, B) token id grids for ``check_fused_bigru``: ids repeated from a small
# table, every position with its own id, and one id at every position.
TOKEN_ID_GRIDS = {
    "repeated ids": lambda rng, T, B: rng.integers(0, 3, (T, B)),
    "distinct ids": lambda rng, T, B: rng.permutation(T * B).reshape(T, B),
    "one id": lambda rng, T, B: np.zeros((T, B), dtype=np.int64),
}


def check_fused_bigru(seed: int = 0, mask=None, ids=None) -> float:
    """Worst relative difference between ``model.bigru_layer`` and the per-step
    oracle: the outputs, dX and the gradients of all 24 gate tensors.

    By default the batch has the ragged prefix masks of ``_oracle_mask``; a
    given (B, T) prefix ``mask`` replaces them. Given ``ids``, one of
    ``TOKEN_ID_GRIDS``, x's rows are the rows of a random table at the
    grid's ids, and the fused layer gets the packed ids, so it projects each
    distinct id once. The hidden weights carry noise built as
    in a training step (``noisy_direction``), so the gate gradients reach the
    clean weights through the shared buffers.
    """
    rng = np.random.default_rng(seed)
    dirs = [random_gru(rng, ORACLE_D, ORACLE_HIDDEN) for _ in range(2)]
    if mask is None:
        mask = _oracle_mask(rng, ORACLE_T, ORACLE_B)
    B, T = mask.shape
    if ids is None:
        x = rng.uniform(-1, 1, (T, B, ORACLE_D)) * mask.T[:, :, None]
    else:
        grid = ids(rng, T, B)
        x = rng.uniform(-1, 1, (int(grid.max()) + 1, ORACLE_D))[grid] * mask.T[:, :, None]
    pack = Packing(mask)
    token_ids = None if ids is None else pack.pack(grid)
    probe = rng.uniform(-1, 1, (T, B, 2 * ORACLE_HIDDEN))  # loss = sum(probe * outputs)
    noise = [rng.normal(0.0, 0.1, (3, ORACLE_HIDDEN, ORACLE_HIDDEN)) for _ in dirs]

    def run(fused: bool):
        for p in dirs:
            for t in vars(p).values():
                t.zero_grad()
        with ad.Tape() as tape:
            fwd, bwd = map(noisy_direction, dirs, noise)
            if fused:
                xs = Tensor(pack.pack(x), trainable=True)
                out = bigru_layer(xs, fwd, bwd, mask, pack, ids=token_ids)
                loss = tensor_sum(mul_const(out, pack.pack(probe)))
                out = Tensor(unpack(pack, out.data))
            else:
                xs = [Tensor(x[t], trainable=True) for t in range(T)]
                outs = reference_bigru_layer(xs, fwd, bwd, mask)
                loss = ad.add_scalars(
                    [tensor_sum(mul_const(o, probe[t])) for t, o in enumerate(outs)]
                )
                out = Tensor(np.stack([o.data for o in outs]))
        ad.backward(loss, tape)
        dx = unpack(pack, xs.grad) if fused else np.stack([t.grad for t in xs])
        grads = [t.grad.copy() for p in dirs for t in vars(p).values()]
        return [out.data, dx] + grads

    return max(_relative_error(f, o) for f, o in zip(run(True), run(False)))


def token_projection_error(params: ModelParams, indices: np.ndarray, mask: np.ndarray) -> float:
    """Worst relative difference between the eval ``forward`` of a batch,
    whose layer 1 projects each distinct token once, and the same pass with
    an all-ones ``spatial_keep``, whose layer 1 projects every row: the
    scores and both attention maps."""
    y, a1, a2 = forward(indices, mask, params)
    y_rows, a1_rows, a2_rows = forward(indices, mask, params, spatial_keep=np.ones((len(mask), params.config.d_emb)))
    return max(_relative_error(*pair) for pair in [(y.data, y_rows.data), (a1, a1_rows), (a2, a2_rows)])


def check_token_projection(params: ModelParams, n_trials: int = 30, seed: int = 0) -> float:
    """Worst ``token_projection_error`` over random batches of ``params``'
    tokens, in turn ragged, of equal lengths and of one token per row."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(n_trials):
        T, B = int(rng.integers(1, 8)), int(rng.integers(1, 9))
        mask = (random_ragged_mask(rng, T, B), np.ones((B, T)), np.ones((B, 1)))[trial % 3]
        indices = rng.integers(0, params.embedding.data.shape[0], mask.shape)
        worst = max(worst, token_projection_error(params, indices, mask))
    return worst


def check_fused_attention(seed: int = 0, mask=None) -> float:
    """Worst relative difference between ``model.attention_pool`` and the
    per-position oracle: pooled output, weights, dU and the w_a gradient, on
    the same ragged masks as ``check_fused_bigru`` or on a given (B, T)
    prefix ``mask`` (every row with a valid position). The fused side gets u
    as the packed rows of two feature blocks, the second frozen as the
    embedding block is in the model.

    The true gradient of the bias b is 0 (softmax shift invariance) and both
    sides give rounding noise there, so it counts in absolute terms.
    """
    rng = np.random.default_rng(seed)
    if mask is None:
        mask = _oracle_mask(rng, ORACLE_T, ORACLE_B)
    B, T = mask.shape
    d = ORACLE_D
    pack = Packing(mask)
    u = rng.uniform(-1, 1, (T, B, d))
    split = d // 2
    p = random_attention(rng, d)
    probe = rng.uniform(-1, 1, (B, d))

    def run(fused: bool):
        p.w_a.zero_grad()
        p.b.zero_grad()
        with ad.Tape() as tape:
            if fused:
                us = [Tensor(pack.pack(u[..., :split]), trainable=True), Tensor(pack.pack(u[..., split:]))]
                pooled, weights = attention_pool(us, p, pack)
            else:
                us = [Tensor(u[t], trainable=True) for t in range(T)]
                pooled, weights = reference_attention_pool(us, p, mask)
            loss = tensor_sum(mul_const(pooled, probe))
        ad.backward(loss, tape)
        du = unpack(pack, us[0].grad) if fused else np.stack([t.grad for t in us])[..., :split]
        return [pooled.data, weights, du, p.w_a.grad.copy()], float(np.abs(p.b.grad).max())

    (fused, b_fused), (oracle, b_oracle) = run(True), run(False)
    worst = max(_relative_error(f, o) for f, o in zip(fused, oracle))
    return max(worst, b_fused, b_oracle)


def reference_head(v1: Tensor, v2: Tensor, W_d: Tensor, b_d: Tensor, dense_keep=None) -> Tensor:
    """Oracle for ``model.head`` composed from the generic tape ops."""
    v = concat_features([v1, v2])
    if dense_keep is not None:
        v = mul_const(v, dense_keep)
    return sigmoid(add(matmul(v, W_d), b_d))


# Scales of the pooled vectors in the head checks: at 1e3 the logits pass
# ±709, where exp(-z) overflows and y saturates.
HEAD_SCALES = (1.0, 1e3)


def compare_fused_head(seed: int, dropout: bool, scale: float) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """``model.head`` and ``reference_head`` on one random case: per side, y
    and the gradients of v1, v2, W_d and b_d under the loss sum(probe * y).

    The pooled vectors are uniform(-scale, scale); with ``dropout`` a dense
    keep mask is drawn at the training rate.
    """
    rng = np.random.default_rng(seed)
    B, d1, d2, n_labels = 6, 3, 5, 4
    arrays = [
        rng.uniform(-scale, scale, (B, d1)),
        rng.uniform(-scale, scale, (B, d2)),
        rng.uniform(-1, 1, (d1 + d2, n_labels)),
        rng.uniform(-1, 1, n_labels),
    ]
    keep = dropout_mask((B, d1 + d2), TrainingConfig().dropout_dense, rng) if dropout else None
    probe = rng.uniform(-1, 1, (B, n_labels))

    def run(head_op):
        tensors = [Tensor(a, trainable=True) for a in arrays]
        with ad.Tape() as tape:
            y = head_op(*tensors, keep)
            loss = tensor_sum(mul_const(y, probe))
        ad.backward(loss, tape)
        return [y.data] + [t.grad for t in tensors]

    return run(head), run(reference_head)


def check_fused_head(seeds: Sequence[int]) -> float:
    """Worst relative difference between ``model.head`` and its composed
    oracle over ``seeds``, dropout on and off, and ``HEAD_SCALES``."""
    cases = [(s, dropout, scale) for s in seeds for dropout in (False, True) for scale in HEAD_SCALES]
    return max(
        _relative_error(f, o) for case in cases for f, o in zip(*compare_fused_head(*case))
    )


# ---------------------------------------------------------------------------
# tokenizer oracle
# ---------------------------------------------------------------------------


def reference_tokenize(text: str) -> list[str]:
    """``textprep.tokenize`` without its shortcuts: every substitution runs on
    every text, and every whitespace piece goes through the number and
    punctuation regexes."""
    text = text.lower()
    text = _URL_RE.sub(" <url> ", text)
    text = _MENTION_RE.sub(" <user> ", text)
    text = _HASHTAG_RE.sub(r" <hashtag> \1 ", text)
    text = _ELONGATION_RE.sub(r"\1\1", text)

    tokens = []
    for piece in text.split():
        if _NUMBER_RE.match(piece):
            tokens.append("<number>")
            continue
        for tok in _PUNCT_SPLIT_RE.findall(piece):
            if tok in ("<url>", "<user>", "<hashtag>", "<number>"):
                tokens.append(tok)
            elif _NUMBER_RE.match(tok):
                tokens.append("<number>")
            else:
                tokens.append(tok)
    return tokens


# Fragments that reach the tokenizer's edge cases: URL, mention and hashtag
# triggers in both cases and without their pattern, numerals, typed
# placeholders, and non-ASCII letters and digits whose case mapping or
# character class differs from ASCII (titlecase, dotted I, sharp s,
# ligatures, Arabic-Indic and superscript digits, fullwidth forms, final
# sigma, the Kelvin sign).
_FUZZ_FRAGMENTS = (
    "http://t.co/AbC1", "HTTPS://Ex.com/a?b=1", "http:/", "httpx", "Www.Site.org", "WWW.", "wwwx.",
    "#", "##", "#_", "@", "a@b", "@_", "1,000.5", "+3", "-2", "12abc", "3.", ".5", "1..2", "1_000",
    "007", "_", "x_y", "<url>", "<<url>>", "<user>", "<hashtag>", "<number>", "<3", "<", ">",
    "ǅ", "İ", "ß", "ﬁ", "١٢٣", "²", "ＡＢＣ", "ｗｗｗ．", "café", "ΣΑΣ", "\u212a", "Ǉ",
)
_FUZZ_PUNCT = "!?.,;:'\"()-*&%$^~`|/\\[]{}=+#@<>"
_FUZZ_SEPARATORS = (" ", " ", " ", "", "  ", "\t", "\n", "\u200b", "\x1c")
_FUZZ_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def random_tweet_text(rng: random.Random) -> str:
    """A random tweet-like text: ASCII words (some elongated), punctuation
    runs, numbers and the fragments above, with optional "#", "@", "www." or
    "http://" prefixes, joined by spaces, tabs, newlines, zero-width spaces
    and \\x1c separators."""
    parts = []
    for _ in range(rng.randrange(12)):
        kind = rng.randrange(5)
        if kind == 0:
            part = "".join(rng.choices(_FUZZ_LETTERS, k=rng.randint(1, 8)))
        elif kind == 1:  # elongation, possibly mixed case
            part = rng.choice(_FUZZ_LETTERS) * rng.randint(2, 6) + rng.choice(("", "w", "!", "Y"))
        elif kind == 2:
            part = "".join(rng.choices(_FUZZ_PUNCT, k=rng.randint(1, 4)))
        elif kind == 3:
            part = str(rng.randint(-50, 5000)) + rng.choice(("", ".5", ",000", "abc", "%"))
        else:
            part = rng.choice(_FUZZ_FRAGMENTS)
        if rng.random() < 0.15:
            part = rng.choice(("#", "@", "www.", "http://", "HTTP://")) + part
        parts.append(part)
        parts.append(rng.choice(_FUZZ_SEPARATORS))
    return "".join(parts)


def check_tokenizer_oracle(n_trials: int = 5000, seed: int = 0) -> float:
    """Share of generated texts on which ``tokenize`` and ``reference_tokenize`` differ."""
    rng = random.Random(seed)
    texts = [random_tweet_text(rng) for _ in range(n_trials)]
    return sum(tokenize(text) != reference_tokenize(text) for text in texts) / n_trials


# ---------------------------------------------------------------------------
# synthetic keyword dataset (overfit oracle)
# ---------------------------------------------------------------------------


def make_synthetic_dataset(n: int = 64, T: int = 5, seed: int = 0) -> Dataset:
    """Random token sequences over the downsized vocabulary; label j is 1 iff
    keyword token (2 + j) appears.

    Indices 0/1 are PAD/UNK, 2..12 are the eleven keywords, the rest filler.
    """
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n):
        toks = rng.integers(2, DOWNSIZED["vocab_size"], size=T).tolist()
        labels = [1 if (2 + j) in toks else 0 for j in range(NUM_EMOTIONS)]
        examples.append(Example(indices=toks, mask=[1] * T, labels=labels))
    return Dataset(examples=examples)


def overfit_harness(seed: int = 1):
    """Downsized model + config tuned to memorize the synthetic keyword set.

    Embeddings use unit scale: at the pretrained-vector 0.05 scale the frozen
    random tokens are nearly indistinguishable and the loss plateaus.
    """
    dataset = make_synthetic_dataset(64, T=DOWNSIZED["T"], seed=seed)
    params = build_downsized(seed, emb_scale=1.0)
    config = TrainingConfig(
        batch_size=16,
        lr_init=0.02,
        lr_floor=0.002,
        dropout_dense=0.0,
        spatial_dropout=0.0,
        weight_noise_std=0.0,
        l2_coeff=0.0,
        max_epochs=300,
        early_stop_patience=300,
        seed=seed,
    )
    return dataset, params, config


# ---------------------------------------------------------------------------
# brute-force metric oracles (plain Python, cell by cell)
# ---------------------------------------------------------------------------


def brute_force_jaccard(pred, gold) -> float:
    total = 0.0
    n = len(pred)
    for row_p, row_g in zip(pred, gold):
        p = {i for i, v in enumerate(row_p) if v == 1}
        g = {i for i, v in enumerate(row_g) if v == 1}
        union = p | g
        total += len(p & g) / len(union) if union else 1.0
    return total / n


def brute_force_f1(pred, gold):
    n_classes = len(pred[0])
    f1s, tp_all, fp_all, fn_all = [], 0, 0, 0
    for c in range(n_classes):
        tp = fp = fn = 0
        for row_p, row_g in zip(pred, gold):
            if row_p[c] == 1 and row_g[c] == 1:
                tp += 1
            elif row_p[c] == 1 and row_g[c] == 0:
                fp += 1
            elif row_p[c] == 0 and row_g[c] == 1:
                fn += 1
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
    micro_p = tp_all / (tp_all + fp_all) if tp_all + fp_all else 0.0
    micro_r = tp_all / (tp_all + fn_all) if tp_all + fn_all else 0.0
    micro = 2 * micro_p * micro_r / (micro_p + micro_r) if micro_p + micro_r else 0.0
    return micro, sum(f1s) / n_classes


# ---------------------------------------------------------------------------
# invariant suites (used by the selftest command and the acceptance tests)
# ---------------------------------------------------------------------------


def check_softmax_invariants(n_trials: int = 500, seed: int = 0) -> float:
    """Worst deviation across softmax invariants over random masked inputs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        T = int(rng.integers(1, 12))
        n_valid = int(rng.integers(1, T + 1))
        mask = prefix_mask([n_valid], T)
        scores = ad.Tensor(rng.uniform(-5, 5, size=(1, T)))
        a = masked_softmax(scores, mask).data
        worst = max(worst, abs(a[mask > 0].sum() - 1.0))
        worst = max(worst, float(np.abs(a[mask == 0]).max(initial=0.0)))
        if a.min() < 0:
            worst = max(worst, -float(a.min()))
        # shift invariance over valid positions
        shifted = ad.Tensor(scores.data + 3.7)
        a2 = masked_softmax(shifted, mask).data
        worst = max(worst, float(np.abs(a - a2).max()))
    return worst


def check_attention_convex_hull(n_trials: int = 500, seed: int = 0) -> float:
    """How far any pooled component escapes the valid rows' min/max (0 = never)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        T = int(rng.integers(1, 8))
        d = int(rng.integers(1, 6))
        n_valid = int(rng.integers(1, T + 1))
        mask = prefix_mask([n_valid], T)
        u = rng.uniform(-2, 2, size=(T, 1, d))
        p = random_attention(rng, d)
        pack = Packing(mask)
        v, _ = attention_pool([ad.Tensor(pack.pack(u))], p, pack)
        valid = u[:n_valid, 0]
        lo, hi = valid.min(axis=0), valid.max(axis=0)
        worst = max(worst, float(np.maximum(lo - v.data[0], v.data[0] - hi).max(initial=0.0)))
    return worst


def check_padding_invariance(params: ModelParams, n_trials: int = 50, seed: int = 0) -> float:
    """Max |Δŷ| from appending 3 PAD tokens, eval mode.

    The padded row shares its batch with a row 3 tokens longer, so its PAD
    positions are packed out of the scan rather than trimmed away.
    """
    rng = np.random.default_rng(seed)
    vocab_size = params.embedding.data.shape[0]
    worst = 0.0
    for _ in range(n_trials):
        T = int(rng.integers(1, 7))
        idx = rng.integers(2, vocab_size, size=(1, T))
        mask = np.ones((1, T))
        y1, _, _ = forward(idx, mask, params)
        idx_pad = np.concatenate([idx, np.zeros((1, 3), dtype=np.int64)], axis=1)
        mask_pad = np.concatenate([mask, np.zeros((1, 3))], axis=1)
        longer = rng.integers(2, vocab_size, size=(1, T + 3))
        y2, _, _ = forward(
            np.concatenate([idx_pad, longer]), np.concatenate([mask_pad, np.ones((1, T + 3))]), params
        )
        worst = max(worst, float(np.abs(y1.data - y2.data[:1]).max()))
    return worst


METRIC_ORACLE_ROWS = 50  # rows of each random prediction/gold pair


def check_metric_oracles(n_trials: int = 1000, seed: int = 0) -> float:
    """Worst |fast - brute force| over random prediction/gold pairs.

    Includes all-zero rows (empty sets) and zero-support classes by
    construction of the random draws.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(n_trials):
        density = rng.uniform(0.05, 0.6)
        pred = (rng.random((METRIC_ORACLE_ROWS, NUM_EMOTIONS)) < density).astype(np.int64)
        gold = (rng.random((METRIC_ORACLE_ROWS, NUM_EMOTIONS)) < density).astype(np.int64)
        if trial % 10 == 0:
            pred[0] = 0
            gold[0] = 0  # empty/empty edge case
        if trial % 7 == 0:
            gold[:, trial % NUM_EMOTIONS] = 0  # zero-support class
        worst = max(worst, abs(jaccard_accuracy(pred, gold) - brute_force_jaccard(pred, gold)))
        micro, macro, _ = f1_scores(pred, gold)
        bf_micro, bf_macro = brute_force_f1(pred, gold)
        worst = max(worst, abs(micro - bf_micro), abs(macro - bf_macro))
    return worst


def run_selftest(seed: int = 0, quick: bool = False) -> list[tuple[str, float, float, bool]]:
    """Run the invariant suites; returns (name, worst_error, tolerance, passed)."""
    n = 100 if quick else 500
    n_metrics = 200 if quick else 1000
    oracle_seeds = range(seed, seed + (2 if quick else 10))
    params = build_downsized(seed)
    bigru = max(
        check_fused_bigru(s, mask=m) for s in oracle_seeds for m in [None, *PACKING_MASKS.values()]
    )
    rng = np.random.default_rng(seed)
    attention_masks = [m for m in PACKING_MASKS.values() if m.any(axis=1).all()]
    attention_masks += [
        random_ragged_mask(rng, int(rng.integers(1, 10)), int(rng.integers(1, 8))) for _ in oracle_seeds
    ]
    attention = max(check_fused_attention(s, mask=m) for s in oracle_seeds for m in [None, *attention_masks])
    token_projection = max(
        check_fused_bigru(s, mask=m, ids=ids)
        for s in oracle_seeds
        for m in [None, *PACKING_MASKS.values()]
        for ids in TOKEN_ID_GRIDS.values()
    )
    token_projection = max(token_projection, check_token_projection(params, max(n // 10, 30), seed))
    results = []
    for name, worst, tol in [
        ("masked_softmax invariants", check_softmax_invariants(n, seed), 1e-12),
        ("attention convex hull", check_attention_convex_hull(n, seed), 1e-12),
        ("padding invariance", check_padding_invariance(params, max(n // 10, 20), seed), 1e-12),
        ("metric oracle equivalence", check_metric_oracles(n_metrics, seed=seed), 1e-12),
        ("fused BiGRU vs per-step oracle", bigru, 1e-12),
        ("fused attention vs per-position oracle", attention, 1e-12),
        ("distinct-token projection vs per-step oracle and per-row GEMM", token_projection, 1e-12),
        ("dense head vs composed oracle ops", check_fused_head(oracle_seeds), 1e-12),
        ("tokenizer vs reference oracle", check_tokenizer_oracle(1000 if quick else 5000, seed), 1e-12),
    ]:
        results.append((name, worst, tol, worst < tol))
    return results
