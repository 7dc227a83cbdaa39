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
from .textprep import EmbeddingMatrix, NUM_EMOTIONS


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


def dropout_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout keep mask: survivors scaled by 1/(1-p)."""
    keep = rng.random(shape) >= p
    return keep.astype(np.float64) / (1.0 - p)


def row_ends(mask: np.ndarray) -> np.ndarray:
    """Each row's end in a (B, T) 0/1 mask: its last valid position + 1, or 0."""
    valid = np.asarray(mask) > 0
    return np.where(valid.any(axis=1), valid.shape[1] - valid[:, ::-1].argmax(axis=1), 0)


class Packing:
    """Step-major layout of the scanned positions of a (B, T) 0/1 mask.

    A row's end is its last valid position + 1, and no position past it is
    scanned. Rows are ranked by end, longest first (stable), so scan step s
    holds the first k[s] ranks. The N = sum(end) scanned positions are kept
    as N rows of a 2-D array: row off[s] + i is step s of rank i, which is
    time s of batch row order[i]. The sequence layers pass such (N, d) rows
    from one to the next, so no position past a row's end is stored or
    computed on.

    When every row ends at T the packing is the identity (``packed`` is
    False): row t * B + b is time t of batch row b, and each conversion
    below is a reshape instead of a gather.
    """

    def __init__(self, mask: np.ndarray):
        valid = np.asarray(mask).T > 0  # (T, B)
        T, B = valid.shape
        ends = row_ends(mask)
        order = np.argsort(-ends, kind="stable")
        k = np.count_nonzero(ends[order] > np.arange(ends.max(initial=0))[:, None], axis=1)
        off = np.concatenate([[0], np.cumsum(k)])
        S, N = k.size, int(off[-1])
        self.T, self.B, self.S, self.N = T, B, S, N
        self.packed = N < T * B
        self.order = order
        if self.packed:
            step = np.repeat(np.arange(S), k)
            rank = np.arange(N) - off[step]
            self.batch = order[rank]  # batch row of each packed row
            self.index = step * B + self.batch  # its position t * B + b
            self.cell = rank * S + step  # its cell of a (B, S) ranks-by-steps grid
            # The backward scan steps each row's own prefix reversed (time
            # end - 1 - s); bperm maps its packed rows to forward-packed ones.
            self.bperm = off[ends[order][rank] - 1 - step] + rank
            valid = valid.reshape(T * B)[self.index]
            bvalid = valid[self.bperm]
        else:
            bvalid = valid[::-1].reshape(N)
            valid = valid.reshape(N)
        self.grid_mask = self.to_grid(valid.astype(np.float64))
        # Masked positions of both scan directions, and the steps holding one:
        # only those steps carry a state past a position.
        self.masked = ~np.stack([valid, bvalid])[..., None]
        self.ragged = np.logical_or.reduceat(self.masked.any(axis=0)[:, 0], off[:S])
        self.k, self.off = k.tolist(), off.tolist()
        # Runs of steps that hold the same ranks, as (first row, end row,
        # steps, ranks): their rows form a regular (steps, ranks) block.
        firsts = np.flatnonzero(np.diff(k, prepend=-1)).tolist()
        self.runs = [
            (self.off[s0], self.off[s1], s1 - s0, self.k[s0]) for s0, s1 in zip(firsts, firsts[1:] + [S])
        ]
        # the backward scan's step s is read at this row of the forward-packed
        # projection; unpacked, that is time T - 1 - s
        self.boff = self.off[:S] if self.packed else self.off[S - 1 :: -1]

    def pack(self, a: np.ndarray) -> np.ndarray:
        """A (T, B, ...) per-position array as its (N, ...) packed rows."""
        rows = a.reshape(self.T * self.B, *a.shape[2:])
        return rows[self.index] if self.packed else rows

    def unpack(self, rows: np.ndarray) -> np.ndarray:
        """(N, ...) packed rows as a (T, B, ...) array, zero where nothing is scanned."""
        if not self.packed:
            return rows.reshape(self.T, self.B, *rows.shape[1:])
        out = np.zeros((self.T * self.B, *rows.shape[1:]))
        out[self.index] = rows
        return out.reshape(self.T, self.B, *rows.shape[1:])

    def to_grid(self, values: np.ndarray) -> np.ndarray:
        """(N,) per-row values as the (B, S) grid of ranks by steps, zero off the rows."""
        if not self.packed:
            return values.reshape(self.S, self.B).T
        grid = np.zeros(self.B * self.S)
        grid[self.cell] = values
        return grid.reshape(self.B, self.S)

    def from_grid(self, grid: np.ndarray) -> np.ndarray:
        """The (N,) per-row values of a (B, S) grid of ranks by steps."""
        if not self.packed:
            return grid.T.reshape(self.N)
        return grid.reshape(-1)[self.cell]

    def unrank(self, ranked: np.ndarray) -> np.ndarray:
        """A (B, ...) per-rank array in batch row order."""
        if not self.packed:
            return ranked
        out = np.empty_like(ranked)
        out[self.order] = ranked
        return out

    def scale(self, rows: np.ndarray, per_row: np.ndarray) -> np.ndarray:
        """(N, d) rows times the (B, d) factor of each one's batch row."""
        if self.packed:
            return rows * per_row[self.batch]
        return (rows.reshape(self.T, self.B, -1) * per_row).reshape(self.N, -1)


def embed(indices: np.ndarray, embedding: Tensor, pack: Packing) -> Tensor:
    """Row lookup of the scanned positions of a (B, T) index batch.

    Returns the (N, d_emb) packed rows of ``pack``, the packing of the
    batch's mask. Equivalent to one-hot matmul against the embedding table.
    No gradient flows to the (frozen) table.
    """
    indices = pack.pack(np.asarray(indices).T)
    if indices.max(initial=0) >= embedding.data.shape[0] or indices.min(initial=0) < 0:
        raise IndexError(
            f"token index out of range for vocabulary of {embedding.data.shape[0]}"
        )
    return Tensor(embedding.data[indices])


def bigru_layer(
    x: Tensor,
    fwd: GruDirectionParams,
    bwd: GruDirectionParams,
    mask: np.ndarray,
    pack: Packing,
) -> Tensor:
    """Bidirectional GRU scan over a sequence, as one tape op.

    ``x`` holds the (N, d_in) packed rows of ``pack``, the packing of the
    (B, T) 0/1 ``mask``. Returns the (N, 2*hidden) rows [h_fwd ; h_bwd] of
    the same packing. The scan reads only ``pack``; ``mask`` stays the
    fourth argument because the benchmark's probes read it there to count
    the valid positions of a step (``model.valid_position_ratio``). Per
    direction:

        r = sigma(W_ir x + b_ir + W_hr h + b_hr)
        z = sigma(W_iz x + b_iz + W_hz h + b_hz)
        n = tanh(W_in x + b_in + r * (W_hn h + b_hn))   # r gates the affine hidden term
        h' = (1 - z) * n + z * h

    Masked positions emit zeros and leave the carried hidden state
    unchanged, so batch padding cannot alter the valid prefix.

    Scan step s works on the first k[s] ranks: time s in the forward
    direction and time end - 1 - s in the backward direction, which reads
    each row's own prefix reversed. The input projection of both directions
    is one GEMM over the N rows; the two recurrences then run side by side
    as a (2, k[s], .) stack. The backward rule is hand-written BPTT: the
    input weights get one GEMM after the loop, the hidden weights one small
    GEMM per step, and the gradients are split back onto the 12 per-gate
    tensors of each direction (which may be weight-noise views of the clean
    parameters).
    """
    x_rows = x.data
    T, B, S, N = pack.T, pack.B, pack.S, pack.N
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

    # Per-position arrays are (2, N, .), forward direction first, each in its
    # own scan order: C[1] row off[s] + i is the backward scan's step s.
    k, off, boff, masked, ragged = pack.k, pack.off, pack.boff, pack.masked, pack.ragged
    xp = x_rows @ W_i  # (N, 6H), forward-packed
    xb = xp[pack.bperm, 3 * H :] if pack.packed else xp[:, 3 * H :]
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

    y = Tensor(np.empty((N, 2 * H)))
    np.multiply(C[0], ~masked[0], out=y.data[:, :H])
    if pack.packed:
        y.data[pack.bperm, H:] = C[1] * ~masked[1]
    else:  # the backward scan's step s is time T - 1 - s
        y_seq = y.data.reshape(T, B, 2 * H)
        np.multiply(C[1].reshape(T, B, H)[::-1], ~masked[0].reshape(T, B, 1), out=y_seq[..., H:])

    def backward():
        g = y.grad
        if g is None:
            return
        G = np.empty((2, N, H))
        G[0] = g[:, :H]
        if pack.packed:
            G[1] = g[pack.bperm, H:]
        else:
            G[1].reshape(T, B, H)[...] = g.reshape(T, B, 2 * H)[::-1, :, H:]
        W_hT = W_h.transpose(0, 2, 1)
        D_xp = np.empty((N, 6 * H))  # d loss / d (x W_i + b_i), forward-packed
        D_b = np.empty((N, 3 * H)) if pack.packed else D_xp[:, 3 * H :]  # its backward half, as xb
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
        if pack.packed:
            D_xp[pack.bperm, 3 * H :] = D_b

        dW_i = x_rows.T @ D_xp
        db_i = D_xp.sum(axis=0)
        if ad.needs_grad(x):
            ad.accumulate_grad(x, D_xp @ W_i.T)
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


def attention_pool(us: list[Tensor], p: AttentionParams, pack: Packing) -> tuple[Tensor, np.ndarray]:
    """Softmax-weighted sum over the valid positions of each batch row, as
    one tape op.

    The sequence u is given as its feature blocks ``us``, each holding the
    (N, d_k) packed rows of ``pack``, the packing of the batch's (B, T) mask,
    with u = concat(us) on the last axis; no concatenated copy is built.
    Scores e = u . w_a + b are one GEMV per block. The masked softmax runs
    on the small (B, S) grid of ranks by steps, so a row without a valid
    position raises EmptySequenceError. The weighted sum, and in the
    backward rule the gradients of the weights and of u, are computed per
    run of scan steps that hold the same ranks, on (steps, ranks, d) views
    of the rows. Returns the pooled (B, d_u) tensor and the (B, T) attention
    weights for inspection.
    """
    ends = np.cumsum([u.data.shape[1] for u in us]).tolist()
    bounds = list(zip([0] + ends[:-1], ends))
    w = p.w_a.data[:, 0]
    e = sum(u.data @ w[lo:hi] for u, (lo, hi) in zip(us, bounds))
    a = ad.softmax_rows(pack.to_grid(e) + p.b.data, pack.grid_mask)
    a_rows = pack.from_grid(a)
    runs = [(slice(r0, r1), a_rows[r0:r1].reshape(steps, kk), kk) for r0, r1, steps, kk in pack.runs]
    pooled = []  # per block, rows by rank
    for u in us:
        acc = np.zeros((pack.B, u.data.shape[1]))
        for rows, a_run, kk in runs:
            acc[:kk] += np.einsum("sk,skd->kd", a_run, u.data[rows].reshape(*a_run.shape, -1))
        pooled.append(acc)
    out = Tensor(pack.unrank(np.concatenate(pooled, axis=1)))
    weights = np.zeros((pack.B, pack.T))
    weights[:, : pack.S] = pack.unrank(a)

    def backward():
        g = out.grad
        if g is None:
            return
        g = g[pack.order] if pack.packed else g  # per rank
        gs = [np.ascontiguousarray(g[:, lo:hi]) for lo, hi in bounds]
        da = np.zeros(pack.N)
        for rows, a_run, kk in runs:
            da_run = da[rows].reshape(a_run.shape)
            for u, g_u in zip(us, gs):
                da_run += np.einsum("skd,kd->sk", u.data[rows].reshape(*a_run.shape, -1), g_u[:kk])
        da = pack.to_grid(da)
        de = pack.from_grid(a * (da - (a * da).sum(axis=1, keepdims=True)))
        for u, g_u, (lo, hi) in zip(us, gs, bounds):
            if ad.needs_grad(u):
                du = np.outer(de, w[lo:hi])
                for rows, a_run, kk in runs:
                    du[rows].reshape(*a_run.shape, -1)[...] += a_run[..., None] * g_u[:kk]
                ad.accumulate_grad(u, du)
        ad.accumulate_grad(p.w_a, np.concatenate([u.data.T @ de for u in us])[:, None])
        ad.accumulate_grad(p.b, np.array([de.sum()]))

    ad.record(backward, out)
    return out, weights


def forward(
    indices: np.ndarray,
    mask: np.ndarray,
    params: ModelParams,
    spatial_keep: np.ndarray | None = None,
    dense_keep: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Full forward pass over a (B, T) batch.

    Returns (yhat (B, n_labels), attention weights layer 1 (B, T), layer 2).
    A training step passes inverted-dropout keep masks from ``dropout_mask``:
    ``spatial_keep`` (B, d_emb) scales each example's embedding channels at
    every position, ``dense_keep`` (B, d_v) the pooled vector before the
    head. Without them the pass is the eval forward. Both attention layers
    see the same post-spatial-dropout X that feeds GRU layer 1.
    """
    mask = np.asarray(mask, dtype=np.float64)
    T = mask.shape[1]
    # Positions past the batch's longest valid length are masked in every
    # row and never scanned. Trimming them makes a batch whose rows all end
    # at the same position an unpacked one, with no gather.
    valid = np.flatnonzero(mask.any(axis=0))
    length = int(valid[-1]) + 1 if valid.size else 1
    mask = mask[:, :length]
    pack = Packing(mask)
    x = embed(np.asarray(indices)[:, :length], params.embedding, pack)
    if spatial_keep is not None:
        # the embedding is frozen, so the dropped-out input needs no gradient
        x = Tensor(pack.scale(x.data, spatial_keep))

    h1 = bigru_layer(x, params.gru1_fwd, params.gru1_bwd, mask, pack)
    h2 = bigru_layer(h1, params.gru2_fwd, params.gru2_bwd, mask, pack)

    v1, a1 = attention_pool([h1, x], params.attn1, pack)
    v2, a2 = attention_pool([h2, h1, x], params.attn2, pack)
    v = ad.concat_features([v1, v2])
    if dense_keep is not None:
        v = ad.mul_const(v, dense_keep)
    yhat = ad.sigmoid(ad.add(ad.matmul(v, params.W_d), params.b_d))
    pad = ((0, 0), (0, T - length))
    return yhat, np.pad(a1, pad), np.pad(a2, pad)


def predict_scores(dataset_indices, dataset_mask, params, batch_size: int = 64) -> np.ndarray:
    """Eval-mode (n, n_labels) scores over a whole dataset, in its row order.

    Rows are batched by length: ranked by end (stable, longest first), that
    order is cut into ceil(n / batch_size) batches of about equal scanned
    positions, so each batch scans only as far as its own longest row and
    holds at most max(end) + total / n_batches positions. The scores are
    scattered back to input order. When every row has the same end and n is
    a multiple of batch_size, the batches are the file-order blocks of
    batch_size rows.
    """
    n = dataset_indices.shape[0]
    out = np.zeros((n, params.config.n_labels))
    if n == 0:
        return out
    ends = row_ends(dataset_mask)
    order = np.argsort(-ends, kind="stable")
    n_batches = -(-n // batch_size)
    cum = np.cumsum(ends[order])
    # a batch ends at the first row whose cumulative end reaches its share
    cuts = np.searchsorted(cum, cum[-1] * np.arange(1, n_batches) / n_batches) + 1
    for rows in np.split(order, cuts):
        if rows.size:  # a row longer than a whole share leaves the next batch empty
            yhat, _, _ = forward(dataset_indices[rows], dataset_mask[rows], params)
            out[rows] = yhat.data
    return out
