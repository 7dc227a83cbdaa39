"""Self-verification harnesses: downsized gradient checks (eval and train
mode), invariant suites, reference oracles, and a synthetic overfit dataset.

The oracles here are deliberately independent of the fast implementations
they check: the metric oracles are plain Python loops over individual cells,
and the sequence-layer oracles build the GRU and attention pooling from
per-step, per-gate tape ops.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError
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
    init_params,
)
from .textprep import Dataset, Example, NUM_EMOTIONS, random_embeddings
from .training import (
    TrainingConfig,
    l2_penalty,
    perturb_hidden_weights,
    weighted_bce,
)


# ---------------------------------------------------------------------------
# downsized model + gradient check
# ---------------------------------------------------------------------------

DOWNSIZED = dict(vocab_size=20, d_emb=8, hidden=4, T=5, batch=2)


def build_downsized(seed: int, emb_scale: float = 0.05, **overrides) -> ModelParams:
    cfg = {**DOWNSIZED, **overrides}
    emb = random_embeddings(cfg["vocab_size"], cfg["d_emb"], seed, scale=emb_scale)
    return init_params(emb, ModelConfig(d_emb=cfg["d_emb"], hidden=cfg["hidden"]), seed)


def _gradcheck_batch(seed: int):
    """Downsized params and one ragged, PAD-filled batch with random labels."""
    cfg = DOWNSIZED
    params = build_downsized(seed)
    rng = np.random.default_rng(seed + 1)
    indices = rng.integers(0, cfg["vocab_size"], size=(cfg["batch"], cfg["T"]))
    lengths = rng.integers(2, cfg["T"] + 1, size=cfg["batch"])
    mask = np.array([[1.0] * n + [0.0] * (cfg["T"] - n) for n in lengths])
    indices = indices * (mask.astype(np.int64))  # padded positions -> PAD
    labels = rng.integers(0, 2, size=(cfg["batch"], NUM_EMOTIONS)).astype(np.float64)
    return params, indices, mask, labels


def downsized_gradcheck(seed: int = 0, eps: float = 1e-5, l2_coeff: float = 1e-3) -> float:
    """Max relative error of analytic vs central-difference gradients on a
    downsized model with all regularizer randomness disabled."""
    params, indices, mask, labels = _gradcheck_batch(seed)

    def loss_fn():
        yhat, _, _ = forward(indices, mask, params)
        return ad.add_scalars(
            [weighted_bce(yhat, labels, 2.0), l2_penalty(params, l2_coeff)]
        )

    trainable = [t for _, t in params.trainable_parameters()]
    return ad.grad_check(loss_fn, trainable, eps=eps)


def train_mode_gradcheck(seed: int = 0, eps: float = 1e-5, l2_coeff: float = 1e-3) -> float:
    """``downsized_gradcheck`` through the train-mode forward of one step.

    Spatial dropout, dense dropout and Gaussian hidden-weight noise are on at
    the default training rates. The dropout masks are drawn once, and every
    evaluation of the loss draws the noise from a freshly seeded stream, so
    all draws are held fixed while the finite differences move the clean
    weights underneath the noise.
    """
    params, indices, mask, labels = _gradcheck_batch(seed)
    regime = TrainingConfig()
    batch, config = len(indices), params.config
    spatial_keep = dropout_mask((batch, config.d_emb), regime.spatial_dropout, np.random.default_rng(seed + 3))
    dense_keep = dropout_mask((batch, config.d_v), regime.dropout_dense, np.random.default_rng(seed + 4))

    def loss_fn():
        noisy = perturb_hidden_weights(
            params, regime.weight_noise_std, np.random.default_rng(seed + 2)
        )
        yhat, _, _ = forward(indices, mask, noisy, spatial_keep, dense_keep)
        return ad.add_scalars(
            [weighted_bce(yhat, labels, 2.0), l2_penalty(params, l2_coeff)]
        )

    trainable = [t for _, t in params.trainable_parameters()]
    return ad.grad_check(loss_fn, trainable, eps=eps)


# ---------------------------------------------------------------------------
# tape ops that only the oracles use
# ---------------------------------------------------------------------------


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
    a = ad.softmax_rows(scores.data, m)
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
    r = ad.sigmoid(
        ad.add(ad.add(ad.matmul(x_t, p.W_ir), p.b_ir), ad.add(ad.matmul(h_prev, p.W_hr), p.b_hr))
    )
    z = ad.sigmoid(
        ad.add(ad.add(ad.matmul(x_t, p.W_iz), p.b_iz), ad.add(ad.matmul(h_prev, p.W_hz), p.b_hz))
    )
    n = tanh(
        ad.add(
            ad.add(ad.matmul(x_t, p.W_in), p.b_in),
            mul(ad.add(ad.matmul(h_prev, p.W_hn), p.b_hn), r),
        )
    )
    # (1 - z) * n + z * h_prev, written without a standalone ones tensor
    return ad.add(ad.add(n, ad.scale(mul(n, z), -1.0)), mul(h_prev, z))


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
            h = ad.add(ad.mul_const(h_new, m_t), ad.mul_const(h, 1.0 - m_t))
            outs[t] = ad.mul_const(h_new, m_t)
        return [outs[t] for t in range(T)]

    hs_fwd = scan(range(T), fwd)
    hs_bwd = scan(range(T - 1, -1, -1), bwd)
    return [ad.concat_features([hs_fwd[t], hs_bwd[t]]) for t in range(T)]


def reference_attention_pool(
    us: list[Tensor], p: AttentionParams, mask: np.ndarray
) -> tuple[Tensor, np.ndarray]:
    """Oracle for ``model.attention_pool`` over T per-position (B, d_u) inputs:
    one score per position, then a sum of per-position weighted terms."""
    T = len(us)
    scores = ad.concat_features([ad.add(ad.matmul(u, p.w_a), p.b) for u in us])  # (B, T)
    weights = masked_softmax(scores, mask)
    pooled = None
    for t, u in enumerate(us):
        column = ad.matmul(weights, Tensor(np.eye(T)[:, t : t + 1]))  # (B, 1)
        term = mul(u, column)
        pooled = term if pooled is None else ad.add(pooled, term)
    return pooled, weights.data.copy()


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest absolute difference, relative to the largest reference entry."""
    scale = float(np.abs(want).max(initial=0.0))
    diff = float(np.abs(got - want).max(initial=0.0))
    return diff / scale if scale > 0.0 else diff


def _oracle_mask(rng, T: int, B: int) -> np.ndarray:
    """Ragged prefix masks with a full-length row and a length-1 row; with
    T >= 3 and B >= 3 the third row also has a masked gap inside it, which a
    state must be carried across in both directions."""
    lengths = [T, 1] + [int(n) for n in rng.integers(1, T + 1, size=max(B - 2, 0))]
    mask = np.array([[1.0] * n + [0.0] * (T - n) for n in lengths[:B]])
    if T >= 3 and B >= 3:
        mask[2] = 1.0
        mask[2, T // 2] = 0.0
    return mask


def _random_gru(rng, d_in: int, hidden: int) -> GruDirectionParams:
    def t(*shape):
        return Tensor(rng.uniform(-0.5, 0.5, shape), trainable=True)

    return GruDirectionParams(
        W_ir=t(d_in, hidden), W_iz=t(d_in, hidden), W_in=t(d_in, hidden),
        W_hr=t(hidden, hidden), W_hz=t(hidden, hidden), W_hn=t(hidden, hidden),
        b_ir=t(hidden), b_iz=t(hidden), b_in=t(hidden),
        b_hr=t(hidden), b_hz=t(hidden), b_hn=t(hidden),
    )


# Masks that drive the packed scan off its common path: rows that must be
# re-ranked, rows that start masked, rows that are never stepped, and batches
# where every row ends at T (packing is then the identity).
PACKING_MASKS = {
    name: np.array([[float(c) for c in row] for row in rows])
    for name, rows in {
        "ascending lengths": ["1000000", "1100000", "1111000", "1111110", "1111111"],
        "leading masked positions": ["0011100", "1111000", "0000001", "0111111", "1100000"],
        "empty rows": ["1110000", "0000000", "1111111", "1000000", "0000000"],
        "equal lengths": ["1111111"] * 5,
        "equal ends with gaps": ["0111111", "1111111", "1101101", "0000001", "1111111"],
        "single short row": ["1110000"],
    }.items()
}


def random_ragged_mask(rng, T: int, B: int) -> np.ndarray:
    """A random (B, T) 0/1 mask with gaps and leading and trailing masked
    positions; every row has at least one valid position."""
    mask = (rng.random((B, T)) < rng.uniform(0.2, 0.9)).astype(np.float64)
    mask[np.arange(B), rng.integers(0, T, B)] = 1.0
    return mask


def check_fused_bigru(
    seed: int = 0, T: int = 7, B: int = 5, d_in: int = 6, hidden: int = 4, mask=None
) -> float:
    """Worst relative difference between ``model.bigru_layer`` and the per-step
    oracle: the outputs, dX and the gradients of all 24 gate tensors.

    By default the batch has ragged masks (a length-1 row, a row with a masked
    gap); a given (B, T) ``mask`` replaces them and sets T and B. The hidden
    weights carry ``add_const`` noise as in a training step, so the gate
    gradients reach the clean weights through the noise op.
    """
    rng = np.random.default_rng(seed)
    if mask is not None:
        B, T = mask.shape
    dirs = [_random_gru(rng, d_in, hidden) for _ in range(2)]
    if mask is None:
        mask = _oracle_mask(rng, T, B)
    x = rng.uniform(-1, 1, (T, B, d_in)) * mask.T[:, :, None]
    pack = Packing(mask)
    probe = rng.uniform(-1, 1, (T, B, 2 * hidden))  # loss = sum(probe * outputs)
    noise = [rng.normal(0.0, 0.1, (3, hidden, hidden)) for _ in dirs]

    def noisy(p, eps):
        return dataclasses.replace(
            p, W_hr=ad.add_const(p.W_hr, eps[0]), W_hz=ad.add_const(p.W_hz, eps[1]),
            W_hn=ad.add_const(p.W_hn, eps[2]),
        )

    def run(fused: bool):
        for p in dirs:
            for t in vars(p).values():
                t.zero_grad()
        with ad.Tape() as tape:
            fwd, bwd = (noisy(p, eps) for p, eps in zip(dirs, noise))
            if fused:
                xs = Tensor(pack.pack(x), trainable=True)
                out = bigru_layer(xs, fwd, bwd, mask, pack)
                loss = tensor_sum(ad.mul_const(out, pack.pack(probe)))
                out = Tensor(pack.unpack(out.data))
            else:
                xs = [Tensor(x[t], trainable=True) for t in range(T)]
                outs = reference_bigru_layer(xs, fwd, bwd, mask)
                loss = ad.add_scalars(
                    [tensor_sum(ad.mul_const(o, probe[t])) for t, o in enumerate(outs)]
                )
                out = Tensor(np.stack([o.data for o in outs]))
        ad.backward(loss, tape)
        dx = pack.unpack(xs.grad) if fused else np.stack([t.grad for t in xs])
        grads = [t.grad.copy() for p in dirs for t in vars(p).values()]
        return [out.data, dx] + grads

    return max(_relative_error(f, o) for f, o in zip(run(True), run(False)))


def check_fused_attention(seed: int = 0, T: int = 7, B: int = 5, d: int = 6, mask=None) -> float:
    """Worst relative difference between ``model.attention_pool`` and the
    per-position oracle: pooled output, weights, dU and the w_a gradient, on
    the same ragged masks as ``check_fused_bigru`` or on a given (B, T)
    ``mask`` (every row with a valid position). The fused side gets u as the
    packed rows of two feature blocks, the second frozen as the embedding
    block is in the model.

    The true gradient of the bias b is 0 (softmax shift invariance) and both
    sides give rounding noise there, so it counts in absolute terms.
    """
    rng = np.random.default_rng(seed)
    if mask is None:
        mask = _oracle_mask(rng, T, B)
    B, T = mask.shape
    pack = Packing(mask)
    u = rng.uniform(-1, 1, (T, B, d))
    split = d // 2
    p = AttentionParams(
        w_a=Tensor(rng.uniform(-1, 1, (d, 1)), trainable=True),
        b=Tensor(rng.uniform(-1, 1, 1), trainable=True),
    )
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
            loss = tensor_sum(ad.mul_const(pooled, probe))
        ad.backward(loss, tape)
        du = pack.unpack(us[0].grad) if fused else np.stack([t.grad for t in us])[..., :split]
        return [pooled.data, weights, du, p.w_a.grad.copy()], float(np.abs(p.b.grad).max())

    (fused, b_fused), (oracle, b_oracle) = run(True), run(False)
    worst = max(_relative_error(f, o) for f, o in zip(fused, oracle))
    return max(worst, b_fused, b_oracle)


# ---------------------------------------------------------------------------
# synthetic keyword dataset (overfit oracle)
# ---------------------------------------------------------------------------


def make_synthetic_dataset(n: int = 64, T: int = 5, vocab_size: int = 20, seed: int = 0) -> Dataset:
    """Random token sequences; label j is 1 iff keyword token (2 + j) appears.

    Indices 0/1 are PAD/UNK, 2..12 are the eleven keywords, the rest filler.
    """
    assert vocab_size >= 2 + NUM_EMOTIONS
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        toks = rng.integers(2, vocab_size, size=T).tolist()
        labels = [1 if (2 + j) in toks else 0 for j in range(NUM_EMOTIONS)]
        examples.append(Example(indices=toks, mask=[1] * T, labels=labels, id=f"syn-{i}"))
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
        mask = np.array([[1.0] * n_valid + [0.0] * (T - n_valid)])
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
        mask = np.array([[1.0] * n_valid + [0.0] * (T - n_valid)])
        u = rng.uniform(-2, 2, size=(T, 1, d))
        p = AttentionParams(
            w_a=ad.Tensor(rng.uniform(-1, 1, size=(d, 1)), trainable=True),
            b=ad.Tensor(rng.uniform(-1, 1, size=1), trainable=True),
        )
        pack = Packing(mask)
        v, _ = attention_pool([ad.Tensor(pack.pack(u))], p, pack)
        valid = u[:n_valid, 0]
        lo, hi = valid.min(axis=0), valid.max(axis=0)
        worst = max(worst, float(np.maximum(lo - v.data[0], v.data[0] - hi).max(initial=0.0)))
    return worst


def check_padding_invariance(params: ModelParams, n_trials: int = 50, seed: int = 0) -> float:
    """Max |Δŷ| from appending 3 PAD tokens, eval mode.

    The padded row shares its batch with a row 3 tokens longer, so its PAD
    positions are scanned as masked steps rather than trimmed away.
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


def check_metric_oracles(n_trials: int = 1000, n: int = 50, seed: int = 0) -> float:
    """Worst |fast - brute force| over random prediction/gold pairs.

    Includes all-zero rows (empty sets) and zero-support classes by
    construction of the random draws.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(n_trials):
        density = rng.uniform(0.05, 0.6)
        pred = (rng.random((n, NUM_EMOTIONS)) < density).astype(np.int64)
        gold = (rng.random((n, NUM_EMOTIONS)) < density).astype(np.int64)
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
    packed_attention = max(check_fused_attention(s, mask=m) for s in oracle_seeds for m in attention_masks)
    results = []
    for name, worst, tol in [
        ("masked_softmax invariants", check_softmax_invariants(n, seed), 1e-12),
        ("attention convex hull", check_attention_convex_hull(n, seed), 1e-12),
        ("padding invariance", check_padding_invariance(params, max(n // 10, 20), seed), 1e-12),
        ("metric oracle equivalence", check_metric_oracles(n_metrics, seed=seed), 1e-12),
        ("fused BiGRU vs per-step oracle", bigru, 1e-12),
        ("fused attention vs per-position oracle", max(map(check_fused_attention, oracle_seeds)), 1e-12),
        ("packed attention vs per-position oracle", packed_attention, 1e-12),
    ]:
        results.append((name, worst, tol, worst < tol))
    return results
