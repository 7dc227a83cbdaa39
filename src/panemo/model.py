"""Pyramid attention network forward pass.

Embedding lookup -> spatial dropout -> two stacked bidirectional GRU layers
(hidden size 50 per direction) -> two attention pooling layers, the first
over (H1, X) and the second over (H2, H1, X) -> concatenation -> dropout ->
dense sigmoid head over 11 emotion classes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError
from .textprep import EmbeddingMatrix, NUM_EMOTIONS, PAD_INDEX


@dataclass
class GruDirectionParams:
    """Gate weights and biases for one GRU scan direction."""

    W_ir: Tensor
    W_iz: Tensor
    W_in: Tensor
    W_hr: Tensor
    W_hz: Tensor
    W_hn: Tensor
    b_ir: Tensor
    b_iz: Tensor
    b_in: Tensor
    b_hr: Tensor
    b_hz: Tensor
    b_hn: Tensor

    def named(self, prefix: str):
        return [(f"{prefix}.{f.name}", getattr(self, f.name)) for f in fields(self)]


@dataclass
class AttentionParams:
    """Affine per-position scorer: e_i = u_i . w_a + b."""

    w_a: Tensor  # (d_u, 1)
    b: Tensor  # (1,)

    def named(self, prefix: str):
        return [(f"{prefix}.w_a", self.w_a), (f"{prefix}.b", self.b)]


@dataclass
class ModelConfig:
    d_emb: int = 300
    hidden: int = 50  # per direction
    n_labels: int = NUM_EMOTIONS

    @property
    def d_h(self) -> int:
        return 2 * self.hidden

    @property
    def d_u1(self) -> int:
        return self.d_h + self.d_emb

    @property
    def d_u2(self) -> int:
        return 2 * self.d_h + self.d_emb

    @property
    def d_v(self) -> int:
        return self.d_u1 + self.d_u2


@dataclass
class ModelParams:
    """All parameters: frozen embedding plus the trainable stack."""

    embedding: Tensor  # (|vocab|, d_emb), trainable=False
    gru1_fwd: GruDirectionParams
    gru1_bwd: GruDirectionParams
    gru2_fwd: GruDirectionParams
    gru2_bwd: GruDirectionParams
    attn1: AttentionParams
    attn2: AttentionParams
    W_d: Tensor
    b_d: Tensor
    config: ModelConfig

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """Every tensor once, in canonical checkpoint order."""
        out = [("embedding", self.embedding)]
        out += self.gru1_fwd.named("gru1.fwd")
        out += self.gru1_bwd.named("gru1.bwd")
        out += self.gru2_fwd.named("gru2.fwd")
        out += self.gru2_bwd.named("gru2.bwd")
        out += self.attn1.named("attn1")
        out += self.attn2.named("attn2")
        out += [("dense.W_d", self.W_d), ("dense.b_d", self.b_d)]
        return out

    def trainable_parameters(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self.named_parameters() if t.trainable]

    def weight_matrices(self) -> list[Tensor]:
        """Trainable 2-D weights (L2 targets); biases and embedding excluded."""
        return [t for n, t in self.trainable_parameters() if t.data.ndim == 2]


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _init_gru_direction(rng, d_in: int, hidden: int) -> GruDirectionParams:
    def w(fan_in, fan_out):
        return Tensor(_glorot(rng, fan_in, fan_out), trainable=True)

    def b():
        return Tensor(np.zeros(hidden), trainable=True)

    return GruDirectionParams(
        W_ir=w(d_in, hidden), W_iz=w(d_in, hidden), W_in=w(d_in, hidden),
        W_hr=w(hidden, hidden), W_hz=w(hidden, hidden), W_hn=w(hidden, hidden),
        b_ir=b(), b_iz=b(), b_in=b(), b_hr=b(), b_hz=b(), b_hn=b(),
    )


def init_params(embedding: EmbeddingMatrix, config: ModelConfig, seed: int) -> ModelParams:
    """Glorot-uniform matrices, zero biases, seeded; embedding frozen."""
    if embedding.dim != config.d_emb:
        raise ShapeError(
            f"embedding dim {embedding.dim} != configured d_emb {config.d_emb}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))  # init stream
    h = config.hidden
    return ModelParams(
        embedding=Tensor(embedding.weights, trainable=False),
        gru1_fwd=_init_gru_direction(rng, config.d_emb, h),
        gru1_bwd=_init_gru_direction(rng, config.d_emb, h),
        gru2_fwd=_init_gru_direction(rng, config.d_h, h),
        gru2_bwd=_init_gru_direction(rng, config.d_h, h),
        attn1=AttentionParams(
            w_a=Tensor(_glorot(rng, config.d_u1, 1), trainable=True),
            b=Tensor(np.zeros(1), trainable=True),
        ),
        attn2=AttentionParams(
            w_a=Tensor(_glorot(rng, config.d_u2, 1), trainable=True),
            b=Tensor(np.zeros(1), trainable=True),
        ),
        W_d=Tensor(_glorot(rng, config.d_v, config.n_labels), trainable=True),
        b_d=Tensor(np.zeros(config.n_labels), trainable=True),
        config=config,
    )


def embed(indices: np.ndarray, embedding: Tensor) -> Tensor:
    """Row lookup of a (B, T) index batch into a (T, B, d_emb) sequence.

    Equivalent to one-hot matmul against the embedding table. No gradient
    flows to the (frozen) table.
    """
    indices = np.asarray(indices)
    if indices.max(initial=0) >= embedding.data.shape[0] or indices.min(initial=0) < 0:
        raise IndexError(
            f"token index out of range for vocabulary of {embedding.data.shape[0]}"
        )
    return Tensor(embedding.data[indices.T])


def bigru_layer(
    x: Tensor,
    fwd: GruDirectionParams,
    bwd: GruDirectionParams,
    mask: np.ndarray,
) -> Tensor:
    """Bidirectional GRU scan over a (T, B, d_in) sequence, as one tape op.

    Returns (T, B, 2*hidden): [h_fwd ; h_bwd] per position. Per direction:

        r = sigma(W_ir x + b_ir + W_hr h + b_hr)
        z = sigma(W_iz x + b_iz + W_hz h + b_hz)
        n = tanh(W_in x + b_in + r * (W_hn h + b_hn))   # r gates the affine hidden term
        h' = (1 - z) * n + z * h

    Positions where the 0/1 ``mask`` (B, T) is 0 emit zeros and leave the
    carried hidden state unchanged, so batch padding cannot alter the valid
    prefix.

    The scan is packed. A row's end is its last valid position + 1, and no
    position past it is stepped. Rows are ranked by end, longest first, so
    scan step s works on the first k[s] ranks: time s in the forward
    direction and time end - 1 - s in the backward direction, which reads
    each row's own prefix reversed. The input projection of the N = sum(end)
    scanned positions of both directions is one GEMM; the two recurrences
    then run side by side as a (2, k[s], .) stack. The backward rule is
    hand-written BPTT: the input weights get one GEMM after the loop, the
    hidden weights one small GEMM per step, and the gradients are split back
    onto the 12 per-gate tensors of each direction (which may be weight-noise
    views of the clean parameters).
    """
    T, B, d_in = x.data.shape
    H = fwd.W_hr.data.shape[0]
    dirs = (fwd, bwd)
    W_i = np.concatenate([getattr(p, f"W_i{g}").data for p in dirs for g in "rzn"], axis=1)
    W_h = np.stack([np.concatenate([getattr(p, f"W_h{g}").data for g in "rzn"], axis=1) for p in dirs])
    # The biases are added per step: b_ir + b_hr and b_iz + b_hz onto the
    # r and z pre-activations, b_hn inside r * (W_hn h + b_hn), b_in after it.
    b_h = np.stack(
        [np.concatenate([p.b_ir.data + p.b_hr.data, p.b_iz.data + p.b_hz.data, p.b_hn.data]) for p in dirs]
    )[:, None]
    b_in = np.stack([p.b_in.data for p in dirs])[:, None]

    # Packed position off[s] + i is step s of rank i in both directions;
    # per-position arrays are (2, N, .), forward direction first.
    valid = np.asarray(mask).T > 0  # (T, B)
    ends = np.where(valid.any(axis=0), T - valid[::-1].argmax(axis=0), 0)
    order = np.argsort(-ends, kind="stable")
    k = np.count_nonzero(ends[order] > np.arange(ends.max(initial=0))[:, None], axis=1)
    off = np.concatenate([[0], np.cumsum(k)])
    S, N = k.size, int(off[-1])
    packed = N < T * B  # otherwise every row ends at T and packing is the identity
    x_rows = x.data.reshape(T * B, d_in)
    vf = valid.reshape(T * B)
    if packed:
        step = np.repeat(np.arange(S), k)
        rank = np.arange(N) - off[step]
        fidx = step * B + order[rank]  # (t, b) -> t * B + b of each forward-packed position
        perm = off[ends[order][rank] - 1 - step] + rank  # backward-packed -> forward-packed
        bidx = fidx[perm]
        x_rows, vf = x_rows[fidx], vf[fidx]
    masked = ~np.stack([vf, vf[perm] if packed else valid[::-1].reshape(N)])[..., None]
    ragged = np.logical_or.reduceat(masked.any(axis=0)[:, 0], off[:S])  # steps that carry a state
    k, off = k.tolist(), off.tolist()
    # the backward direction's step s is read at xb[boff[s]:]; unpacked, that
    # is time T-1-s of the projection itself
    boff = off[:S] if packed else off[S - 1 :: -1]

    xp = x_rows @ W_i  # (N, 6H), forward-packed
    xb = xp[perm, 3 * H :] if packed else xp[:, 3 * H :]
    # what the backward rule needs is kept only while a tape records
    keep = ad.current_tape() is not None
    RZ = np.empty((2, N if keep else B, 2 * H))
    if keep:
        # With h' = n + z (h - n) and a_g the pre-activation of gate g:
        # DN = dh'/da_n = (1 - z)(1 - n^2), and COEF holds dh'/d(h W_h + b_h)
        # per gate: [DN hn r (1 - r), (h - n) z (1 - z), DN r], hn = W_hn h + b_hn.
        DN = np.empty((2, N, H))
        COEF = np.empty((2, N, 3, H))
    C = np.empty((2, N, H))  # state after each packed position, h_prev of the next step
    h0 = np.zeros((2, B, H))
    n_buf = np.empty((2, B, H))
    hmn_buf = np.empty((2, B, H))

    for s in range(S):
        kk, bo = k[s], boff[s]
        rows = slice(off[s], off[s] + kk)
        h = C[:, off[s - 1] : off[s - 1] + kk] if s else h0[:, :kk]
        h_next = C[:, rows]
        rz = RZ[:, rows] if keep else RZ[:, :kk]
        r, z = rz[..., :H], rz[..., H:]
        n, h_minus_n = n_buf[:, :kk], hmn_buf[:, :kk]
        hp = np.matmul(h, W_h)
        hp += b_h
        np.add(xp[rows, : 2 * H], hp[0, :, : 2 * H], out=rz[0])
        np.add(xb[bo : bo + kk, : 2 * H], hp[1, :, : 2 * H], out=rz[1])
        np.negative(rz, out=rz)
        np.exp(rz, out=rz)
        rz += 1.0
        np.reciprocal(rz, out=rz)
        hn = hp[..., 2 * H :]
        np.multiply(hn, r, out=n)
        n += b_in
        n[0] += xp[rows, 2 * H : 3 * H]
        n[1] += xb[bo : bo + kk, 2 * H :]
        np.tanh(n, out=n)
        np.subtract(h, n, out=h_minus_n)
        np.multiply(z, h_minus_n, out=h_next)
        h_next += n
        if ragged[s]:
            np.copyto(h_next, h, where=masked[:, rows])
        if keep:
            dn, c_r, c_z, c_n = DN[:, rows], COEF[:, rows, 0], COEF[:, rows, 1], COEF[:, rows, 2]
            np.multiply(n, n, out=dn)
            np.subtract(1.0, dn, out=dn)
            np.subtract(1.0, z, out=c_z)
            dn *= c_z
            c_z *= z
            c_z *= h_minus_n
            np.multiply(dn, r, out=c_n)
            np.subtract(1.0, r, out=c_r)
            c_r *= c_n
            c_r *= hn

    if packed:
        y = Tensor(np.zeros((T, B, 2 * H)))
        y_rows = y.data.reshape(T * B, 2 * H)
        y_rows[fidx, :H] = C[0] * ~masked[0]
        y_rows[bidx, H:] = C[1] * ~masked[1]
    else:
        y = Tensor(np.empty((T, B, 2 * H)))
        np.multiply(C[0].reshape(T, B, H), valid[..., None], out=y.data[..., :H])
        np.multiply(C[1].reshape(T, B, H)[::-1], valid[..., None], out=y.data[..., H:])

    def backward():
        g = y.grad
        if g is None:
            return
        G = np.empty((2, N, H))
        if packed:
            g_rows = g.reshape(T * B, 2 * H)
            G[0] = g_rows[fidx, :H]
            G[1] = g_rows[bidx, H:]
        else:
            G[0].reshape(T, B, H)[...] = g[..., :H]
            G[1].reshape(T, B, H)[...] = g[::-1, :, H:]
        W_hT = W_h.transpose(0, 2, 1)
        D_xp = np.empty((N, 6 * H))  # d loss / d (x W_i + b_i), forward-packed
        D_b = np.empty((N, 3 * H)) if packed else D_xp[:, 3 * H :]  # its backward half, as xb
        dW_h = np.zeros((2, H, 3 * H))
        db_hn = np.zeros((2, H))
        # d loss / d h from the next step; ranks that end at this step get 0
        dh = np.zeros((2, B, H))
        d_new_buf = np.empty((2, B, H))
        d_hp_buf = np.empty((2, B, 3, H))  # d loss / d (h_prev W_h + b_h), per gate
        tmp = np.empty((2, B, H))
        for s in range(S - 1, -1, -1):
            kk, bo = k[s], boff[s]
            rows = slice(off[s], off[s] + kk)
            d_new, d_hp, dh_carry = d_new_buf[:, :kk], d_hp_buf[:, :kk], dh[:, :kk]
            np.add(G[:, rows], dh_carry, out=d_new)
            if ragged[s]:
                np.copyto(d_new, 0.0, where=masked[:, rows])
            np.multiply(d_new[:, :, None, :], COEF[:, rows], out=d_hp)
            d_hp3 = d_hp.reshape(2, kk, 3 * H)
            if s:  # the first step's h_prev is the zero initial state
                dW_h += np.matmul(C[:, off[s - 1] : off[s - 1] + kk].transpose(0, 2, 1), d_hp3)
                dh_prev = np.matmul(d_hp3, W_hT)
                np.multiply(d_new, RZ[:, rows, H:], out=tmp[:, :kk])
                dh_prev += tmp[:, :kk]
                if ragged[s]:
                    np.copyto(dh_prev, dh_carry, where=masked[:, rows])
                dh_carry[...] = dh_prev
            db_hn += d_hp[:, :, 2].sum(axis=1)
            # the r and z pre-activations take x and h alike; n's x part is unscaled by r
            D_xp[rows, : 2 * H] = d_hp3[0, :, : 2 * H]
            np.multiply(d_new[0], DN[0, rows], out=D_xp[rows, 2 * H : 3 * H])
            D_b[bo : bo + kk, : 2 * H] = d_hp3[1, :, : 2 * H]
            np.multiply(d_new[1], DN[1, rows], out=D_b[bo : bo + kk, 2 * H :])
        if packed:
            D_xp[perm, 3 * H :] = D_b

        dW_i = x_rows.T @ D_xp
        db_i = D_xp.sum(axis=0)
        if ad.needs_grad(x):
            dx = D_xp @ W_i.T
            if packed:
                dx_rows, dx = dx, np.zeros((T * B, d_in))
                dx[fidx] = dx_rows
            ad.accumulate_grad(x, dx.reshape(T, B, d_in))
        for d, p in enumerate(dirs):
            for j, gate in enumerate("rzn"):
                cols = slice((3 * d + j) * H, (3 * d + j + 1) * H)
                ad.accumulate_grad(getattr(p, f"W_i{gate}"), dW_i[:, cols])
                ad.accumulate_grad(getattr(p, f"b_i{gate}"), db_i[cols])
                ad.accumulate_grad(getattr(p, f"W_h{gate}"), dW_h[d][:, j * H : (j + 1) * H])
            ad.accumulate_grad(p.b_hr, db_i[3 * d * H : (3 * d + 1) * H])
            ad.accumulate_grad(p.b_hz, db_i[(3 * d + 1) * H : (3 * d + 2) * H])
            ad.accumulate_grad(p.b_hn, db_hn[d])

    ad.record(backward, y)
    return y


def _feature_bounds(us: list[Tensor]) -> list[tuple[int, int]]:
    """(start, end) column range of each block in u = concat(us)."""
    ends = np.cumsum([u.data.shape[2] for u in us]).tolist()
    return list(zip([0] + ends[:-1], ends))


def _attention_scores(us: list[Tensor], p: AttentionParams) -> Tensor:
    """Per-position scores e = u . w_a + b as (B, T), for u = concat(us)."""
    T, B, _ = us[0].data.shape
    flat = [u.data.reshape(T * B, -1) for u in us]
    bounds = _feature_bounds(us)
    w = p.w_a.data
    e = sum(f @ w[lo:hi] for f, (lo, hi) in zip(flat, bounds))
    out = Tensor(e.reshape(T, B).T + p.b.data)

    def backward():
        g = out.grad
        if g is None:
            return
        gT = np.ascontiguousarray(g.T)
        for u, (lo, hi) in zip(us, bounds):
            if ad.needs_grad(u):
                ad.accumulate_grad(u, gT[:, :, None] * w[lo:hi, 0])
        g_flat = gT.reshape(T * B, 1)
        ad.accumulate_grad(p.w_a, np.concatenate([f.T @ g_flat for f in flat]))
        ad.accumulate_grad(p.b, np.array([g.sum()]))

    ad.record(backward, out)
    return out


def _weighted_sum(us: list[Tensor], a: Tensor) -> Tensor:
    """sum_t a[b, t] * u[t, b, :] as (B, d_u), for u = concat(us) and (B, T) weights."""
    out = Tensor(np.concatenate([np.einsum("bt,tbd->bd", a.data, u.data) for u in us], axis=1))

    def backward():
        g = out.grad
        if g is None:
            return
        aT = a.data.T[:, :, None]
        da = np.zeros_like(a.data)
        for u, (lo, hi) in zip(us, _feature_bounds(us)):
            g_u = g[:, lo:hi]
            if ad.needs_grad(u):
                ad.accumulate_grad(u, aT * g_u)
            da += np.einsum("tbd,bd->bt", u.data, g_u)
        ad.accumulate_grad(a, da)

    ad.record(backward, out)
    return out


def attention_pool(
    us: list[Tensor], p: AttentionParams, mask: np.ndarray
) -> tuple[Tensor, np.ndarray]:
    """Softmax-weighted sum over the positions of a (T, B, d_u) sequence.

    The sequence u is given as its feature blocks ``us``, each (T, B, d_k),
    with u = concat(us) on the last axis; no concatenated copy is built.
    Returns the pooled (B, d_u) tensor and the (B, T) attention weights for
    inspection.
    """
    weights = ad.masked_softmax(_attention_scores(us, p), mask)
    return _weighted_sum(us, weights), weights.data.copy()


def forward(
    indices: np.ndarray,
    mask: np.ndarray,
    params: ModelParams,
    mode: str = "eval",
    dropout_dense: float = 0.0,
    spatial_dropout: float = 0.0,
    rng=None,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Full forward pass over a (B, T) batch.

    Returns (yhat (B, n_labels), attention weights layer 1 (B, T), layer 2).
    In train mode ``rng`` drives the dropout masks: either a single Generator
    or anything with ``.spatial`` / ``.dense`` Generator attributes. Both
    attention layers see the same post-spatial-dropout X that feeds GRU
    layer 1.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    from .training import dropout_mask, spatial_dropout_mask  # local: avoids cycle

    spatial_rng = getattr(rng, "spatial", rng)
    dense_rng = getattr(rng, "dense", rng)

    mask = np.asarray(mask, dtype=np.float64)
    T = mask.shape[1]
    # Positions past the batch's longest valid length are masked in every
    # row; masked steps carry h unchanged and emit zeros, so dropping them
    # leaves the result unchanged.
    valid = np.flatnonzero(mask.any(axis=0))
    length = int(valid[-1]) + 1 if valid.size else 1
    mask = mask[:, :length]
    x = embed(np.asarray(indices)[:, :length], params.embedding)

    if mode == "train" and spatial_dropout > 0.0:
        ch_mask = spatial_dropout_mask(
            (x.data.shape[1], params.config.d_emb), spatial_dropout, spatial_rng
        )
        # the embedding is frozen, so the dropped-out input needs no gradient
        x = Tensor(x.data * ch_mask)

    h1 = bigru_layer(x, params.gru1_fwd, params.gru1_bwd, mask)
    h2 = bigru_layer(h1, params.gru2_fwd, params.gru2_bwd, mask)

    v1, a1 = attention_pool([h1, x], params.attn1, mask)
    v2, a2 = attention_pool([h2, h1, x], params.attn2, mask)
    v = ad.concat_features([v1, v2])

    if mode == "train" and dropout_dense > 0.0:
        v = ad.mul_const(v, dropout_mask(v.data.shape, dropout_dense, dense_rng))

    yhat = ad.sigmoid(ad.add(ad.matmul(v, params.W_d), params.b_d))
    pad = ((0, 0), (0, T - length))
    return yhat, np.pad(a1, pad), np.pad(a2, pad)


def predict_scores(dataset_indices, dataset_mask, params, batch_size: int = 64):
    """Eval-mode scores over a whole dataset, batched."""
    n = dataset_indices.shape[0]
    out = np.zeros((n, params.config.n_labels))
    for start in range(0, n, batch_size):
        end = min(start + batch_size, n)
        yhat, _, _ = forward(dataset_indices[start:end], dataset_mask[start:end], params)
        out[start:end] = yhat.data
    return out
