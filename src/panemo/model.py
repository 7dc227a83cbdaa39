"""Pyramid attention network forward pass.

Embedding lookup -> spatial dropout -> two stacked bidirectional GRU layers
(hidden size 50 per direction) -> two attention pooling layers, the first
over (H1, X) and the second over (H2, H1, X) -> concatenation -> dropout ->
dense sigmoid head over 11 emotion classes.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import EmptySequenceError, ShapeError
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


@dataclass
class AttentionParams:
    """Affine per-position scorer: e_i = u_i . w_a + b."""

    w_a: Tensor  # (d_u, 1)
    b: Tensor  # (1,)


@dataclass
class ModelConfig:
    d_emb: int = 300
    hidden: int = 50  # per direction

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
        """Every tensor once, named and ordered as in ``param_layout``: the
        fields in order, each group's own fields in their order."""
        tensors = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                tensors.append(value)
            elif not isinstance(value, ModelConfig):
                tensors += [getattr(value, g.name) for g in fields(value)]
        return list(zip(param_layout(self.config, len(self.embedding.data)), tensors, strict=True))

    def trainable_parameters(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self.named_parameters() if t.trainable]

    def weight_matrices(self) -> list[Tensor]:
        """Trainable 2-D weights (L2 targets); biases and embedding excluded."""
        return [t for n, t in self.trainable_parameters() if t.data.ndim == 2]


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def gru_layout(d_in: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """Field -> shape of one GRU direction's tensors, in field order: the
    input weights W_i* are (d_in, hidden), the hidden weights W_h*
    (hidden, hidden) and the biases (hidden,)."""
    weights = {"W_i": (d_in, hidden), "W_h": (hidden, hidden)}
    return {f.name: weights.get(f.name[:3], (hidden,)) for f in fields(GruDirectionParams)}


def param_layout(config: ModelConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every tensor of a model over ``vocab_size`` tokens,
    in checkpoint record order: the embedding, the four GRU directions (each
    as ``gru_layout``), the two attention scorers and the dense head."""
    layout = {"embedding": (vocab_size, config.d_emb)}
    for layer, d_in in (("gru1", config.d_emb), ("gru2", config.d_h)):
        for direction in ("fwd", "bwd"):
            for name, shape in gru_layout(d_in, config.hidden).items():
                layout[f"{layer}.{direction}.{name}"] = shape
    for layer, d_u in (("attn1", config.d_u1), ("attn2", config.d_u2)):
        layout[f"{layer}.w_a"], layout[f"{layer}.b"] = (d_u, 1), (1,)
    layout["dense.W_d"], layout["dense.b_d"] = (config.d_v, NUM_EMOTIONS), (NUM_EMOTIONS,)
    return layout


def params_from_arrays(arrays: Mapping[str, np.ndarray], config: ModelConfig) -> ModelParams:
    """The ModelParams holding ``arrays``, keyed by the names of
    ``param_layout``. Every tensor is trainable but the frozen embedding."""

    def tensor(name: str) -> Tensor:
        return Tensor(arrays[name], trainable=name != "embedding")

    def group(cls, prefix: str):
        return cls(**{f.name: tensor(f"{prefix}.{f.name}") for f in fields(cls)})

    return ModelParams(
        embedding=tensor("embedding"),
        gru1_fwd=group(GruDirectionParams, "gru1.fwd"),
        gru1_bwd=group(GruDirectionParams, "gru1.bwd"),
        gru2_fwd=group(GruDirectionParams, "gru2.fwd"),
        gru2_bwd=group(GruDirectionParams, "gru2.bwd"),
        attn1=group(AttentionParams, "attn1"),
        attn2=group(AttentionParams, "attn2"),
        W_d=tensor("dense.W_d"),
        b_d=tensor("dense.b_d"),
        config=config,
    )


def init_params(embedding: EmbeddingMatrix, config: ModelConfig, seed: int) -> ModelParams:
    """Glorot-uniform matrices drawn from one seeded stream in
    ``param_layout`` order, zero biases; embedding frozen."""
    if embedding.dim != config.d_emb:
        raise ShapeError(
            f"embedding dim {embedding.dim} != configured d_emb {config.d_emb}"
        )
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))  # init stream

    def init(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name == "embedding":
            return embedding.weights
        return _glorot(rng, *shape) if len(shape) == 2 else np.zeros(shape)

    layout = param_layout(config, len(embedding.weights))
    return params_from_arrays({name: init(name, shape) for name, shape in layout.items()}, config)


def dropout_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout keep mask: survivors scaled by 1/(1-p)."""
    keep = rng.random(shape) >= p
    return keep.astype(np.float64) / (1.0 - p)


def row_ends(mask: np.ndarray) -> np.ndarray:
    """Each row's valid count in a (B, T) 0/1 mask.

    The mask contract of this module: every row is valid on a prefix
    [0, end) and padded after it, as ``textprep.encode`` right-pads each
    tweet. A row with a padded position before a valid one raises ShapeError.
    """
    valid = np.asarray(mask) > 0
    not_prefix = np.flatnonzero((valid[:, 1:] > valid[:, :-1]).any(axis=1))
    if not_prefix.size:
        raise ShapeError(
            f"mask row {not_prefix[0]} is not a prefix: a padded position precedes a valid one"
        )
    return np.count_nonzero(valid, axis=1)


class Packing:
    """Step-major layout of the valid positions of a (B, T) 0/1 mask.

    Each row is valid on a prefix [0, end) and padded after it; a mask of
    any other shape raises ShapeError (``row_ends``). Rows are ranked by
    end, longest first (stable), so scan step s holds the first k[s] ranks.
    The N = sum(end) valid positions are kept as N rows of a 2-D array: row
    off[s] + i is step s of rank i, which is time s of batch row order[i].
    The sequence layers pass such (N, d) rows from one to the next, so no
    padded position is stored or computed on.

    When every row ends at T the packing is the identity (``packed`` is
    False): row t * B + b is time t of batch row b, and each conversion
    below is a reshape instead of a gather.
    """

    def __init__(self, mask: np.ndarray):
        B, T = np.shape(mask)
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
            bperm = off[ends[order][rank] - 1 - step] + rank
            # Of (N, 2d) forward-packed rows viewed as (2N, d), the backward
            # halves of the backward scan's rows: a gather or scatter through
            # these indices moves whole contiguous rows and builds no copy.
            self.bhalf = 2 * bperm + 1
        self.grid_mask = self.to_grid(np.ones(N))
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


def embed(ids: np.ndarray, embedding: Tensor) -> Tensor:
    """Row lookup of (N,) token ids, such as the packed rows of a batch's
    index grid (``Packing.pack``). Returns the (N, d_emb) rows. Equivalent
    to one-hot matmul against the embedding table. No gradient flows to the
    (frozen) table.
    """
    if ids.max(initial=0) >= embedding.data.shape[0] or ids.min(initial=0) < 0:
        raise IndexError(
            f"token index out of range for vocabulary of {embedding.data.shape[0]}"
        )
    return Tensor(embedding.data[ids])


class Workspace:
    """Grow-only float64 buffers for the BiGRU layers' per-step arrays.

    ``take(key, shape)`` returns a C-contiguous view of the first
    prod(shape) entries of the buffer named ``key``, replacing the buffer
    with a larger one when it is too small; the view holds whatever the last
    user of the key left there. A train loop that keeps one workspace across
    its steps fills the same memory every step instead of allocating it anew.

    A workspace serves one taped forward at a time. The backward rule of a
    BiGRU layer reads the buffers its forward filled, so a second forward on
    the same workspace before ``backward`` overwrites them. A layer's output
    and saved state are workspace views that live only within a step;
    ``yhat``, the attention maps and every ``.grad`` are separate arrays.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size)
        return buf[:size].reshape(shape)


def bigru_layer(
    x: Tensor,
    fwd: GruDirectionParams,
    bwd: GruDirectionParams,
    mask: np.ndarray,
    pack: Packing,
    ws: Workspace | None = None,
    layer: str = "gru",
    ids: np.ndarray | None = None,
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

    Each row is valid on a prefix [0, end) (``row_ends``). Positions past
    its end are never scanned and emit zeros (the packed rows hold none of
    them), so batch padding cannot alter the valid prefix.

    Scan step s works on the first k[s] ranks: time s in the forward
    direction and time end - 1 - s in the backward direction, which reads
    each row's own prefix reversed. The input projection of both directions
    is one GEMM over the N rows; the two recurrences then run side by side
    as a (2, k[s], .) stack. The backward rule is hand-written BPTT: the
    input weights get one GEMM after the loop, the hidden weights one small
    GEMM per step, and the gradients are split back onto the 12 per-gate
    tensors of each direction (which may be weight-noise views of the clean
    parameters).

    Given ``ids``, the (N,) token id of each row of ``x``, rows with the
    same id must be equal: the input projection is then computed once per
    distinct id and gathered to the N rows. The backward rule is unchanged.

    The arrays are taken from ``ws`` (a throwaway workspace when None). What
    the backward rule reads, and the output, sit under keys prefixed with
    ``layer``; the other keys hold arrays that are dead when the forward or
    the backward rule returns, and both layers share them.
    """
    if ws is None:
        ws = Workspace()
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
    k, off, boff = pack.k, pack.off, pack.boff
    xp = ws.take("xp", (N, 6 * H))  # forward-packed
    if ids is None:
        np.matmul(x_rows, W_i, out=xp)
    else:  # rows of one id are equal; mode="clip" lets np.take write straight into out
        _, first, inv = np.unique(ids, return_index=True, return_inverse=True)
        np.take(x_rows[first] @ W_i, inv, axis=0, mode="clip", out=xp)
    if pack.packed:  # mode="clip" lets np.take write straight into out; the rows are all valid
        xb = np.take(xp.reshape(2 * N, 3 * H), pack.bhalf, axis=0, mode="clip", out=ws.take("xb", (N, 3 * H)))
    else:
        xb = xp[:, 3 * H :]
    # what the backward rule needs is kept only while a tape records
    keep = ad.current_tape() is not None
    RZ = ws.take(f"{layer}.RZ", (2, N if keep else B, 2 * H))
    if keep:
        # With h' = n + z (h - n) and a_g the pre-activation of gate g:
        # DN = dh'/da_n = (1 - z)(1 - n^2), and COEF holds dh'/d(h W_h + b_h)
        # per gate: [DN hn r (1 - r), (h - n) z (1 - z), DN r], hn = W_hn h + b_hn.
        DN = ws.take(f"{layer}.DN", (2, N, H))
        COEF = ws.take(f"{layer}.COEF", (2, N, 3, H))
    C = ws.take(f"{layer}.C", (2, N, H))  # state after each packed position, h_prev of the next step
    h0 = ws.take("h0", (2, B, H))
    h0.fill(0.0)
    n_buf = ws.take("n", (2, B, H))
    hmn_buf = ws.take("h-n", (2, B, H))
    hp_buf = ws.take("hp", (2, B, 3 * H))

    # A large negative r or z pre-activation overflows exp to inf, and the
    # gate reads 1 / inf = 0, its limit: the overflow is not an error.
    with np.errstate(over="ignore"):
        for s in range(S):
            kk, bo = k[s], boff[s]
            rows = slice(off[s], off[s] + kk)
            h = C[:, off[s - 1] : off[s - 1] + kk] if s else h0[:, :kk]
            h_next = C[:, rows]
            rz = RZ[:, rows] if keep else RZ[:, :kk]
            r, z = rz[..., :H], rz[..., H:]
            n, h_minus_n = n_buf[:, :kk], hmn_buf[:, :kk]
            hp = np.matmul(h, W_h, out=hp_buf[:, :kk])
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

    y = Tensor(ws.take(f"{layer}.y", (N, 2 * H)))
    y.data[:, :H] = C[0]
    if pack.packed:
        y.data.reshape(2 * N, H)[pack.bhalf] = C[1]
    else:  # the backward scan's step s is time T - 1 - s
        y.data.reshape(T, B, 2 * H)[..., H:] = C[1].reshape(T, B, H)[::-1]

    def backward():
        g = y.grad
        if g is None:
            return
        G = ws.take("G", (2, N, H))
        G[0] = g[:, :H]
        if pack.packed:
            np.take(g.reshape(2 * N, H), pack.bhalf, axis=0, mode="clip", out=G[1])
        else:
            G[1].reshape(T, B, H)[...] = g.reshape(T, B, 2 * H)[::-1, :, H:]
        W_hT = W_h.transpose(0, 2, 1)
        D_xp = ws.take("xp", (N, 6 * H))  # d loss / d (x W_i + b_i), forward-packed
        D_b = ws.take("xb", (N, 3 * H)) if pack.packed else D_xp[:, 3 * H :]  # its backward half, as xb
        dW_h = np.zeros((2, H, 3 * H))
        db_hn = np.zeros((2, H))
        # d loss / d h from the next step; ranks that end at this step get 0
        dh = ws.take("dh", (2, B, H))
        dh.fill(0.0)
        d_new_buf = ws.take("d_new", (2, B, H))
        d_hp_buf = ws.take("d_hp", (2, B, 3, H))  # d loss / d (h_prev W_h + b_h), per gate
        dh_prev_buf = ws.take("dh_prev", (2, B, H))
        tmp = ws.take("tmp", (2, B, H))
        dW_h_s = ws.take("dW_h_s", (2, H, 3 * H))
        for s in range(S - 1, -1, -1):
            kk, bo = k[s], boff[s]
            rows = slice(off[s], off[s] + kk)
            d_new, d_hp, dh_carry = d_new_buf[:, :kk], d_hp_buf[:, :kk], dh[:, :kk]
            np.add(G[:, rows], dh_carry, out=d_new)
            np.multiply(d_new[:, :, None, :], COEF[:, rows], out=d_hp)
            d_hp3 = d_hp.reshape(2, kk, 3 * H)
            if s:  # the first step's h_prev is the zero initial state
                dW_h += np.matmul(C[:, off[s - 1] : off[s - 1] + kk].transpose(0, 2, 1), d_hp3, out=dW_h_s)
                dh_prev = np.matmul(d_hp3, W_hT, out=dh_prev_buf[:, :kk])
                np.multiply(d_new, RZ[:, rows, H:], out=tmp[:, :kk])
                dh_prev += tmp[:, :kk]
                dh_carry[...] = dh_prev
            db_hn += d_hp[:, :, 2].sum(axis=1)
            # the r and z pre-activations take x and h alike; n's x part is unscaled by r
            D_xp[rows, : 2 * H] = d_hp3[0, :, : 2 * H]
            np.multiply(d_new[0], DN[0, rows], out=D_xp[rows, 2 * H : 3 * H])
            D_b[bo : bo + kk, : 2 * H] = d_hp3[1, :, : 2 * H]
            np.multiply(d_new[1], DN[1, rows], out=D_b[bo : bo + kk, 2 * H :])
        if pack.packed:
            D_xp.reshape(2 * N, 3 * H)[pack.bhalf] = D_b

        dW_i = np.matmul(x_rows.T, D_xp, out=ws.take("dW_i", W_i.shape))
        db_i = D_xp.sum(axis=0)
        if ad.needs_grad(x):
            ad.accumulate_grad(x, np.matmul(D_xp, W_i.T, out=ws.take("dX", x_rows.shape)))
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


def softmax_rows(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (B, T) scores over the positions where the 0/1
    mask is set, exactly zero elsewhere. The max valid score of each row is
    subtracted before exponentiating. Its gradient rule is
    ds = a * (g - sum(a * g)); attention pooling applies it in its own
    backward rule, and ``verify.masked_softmax`` wraps it as a tape op.
    """
    if np.any(m.sum(axis=1) == 0):
        raise EmptySequenceError("masked_softmax: a row has no valid positions")
    neg = np.where(m > 0, s, -np.inf)
    shifted = neg - neg.max(axis=1, keepdims=True)
    e = np.where(m > 0, np.exp(np.where(m > 0, shifted, 0.0)), 0.0)
    return e / e.sum(axis=1, keepdims=True)


def attention_pool(us: list[Tensor], p: AttentionParams, pack: Packing) -> tuple[Tensor, np.ndarray]:
    """Softmax-weighted sum over the valid positions of each batch row, as
    one tape op.

    The sequence u is given as its feature blocks ``us``, each holding the
    (N, d_k) packed rows of ``pack``, the packing of the batch's (B, T) mask,
    with u = concat(us) on the last axis; no concatenated copy is built.
    Scores e = u . w_a + b are one GEMV per block. The softmax over the
    valid positions runs on the small (B, S) grid of ranks by steps, so a
    row without a valid position raises EmptySequenceError. The weighted
    sum, and in the backward rule the gradients of the weights and of u,
    are computed per run of scan steps that hold the same ranks, on
    (steps, ranks, d) views of the rows. Returns the pooled (B, d_u) tensor
    and the (B, T) attention weights for inspection.
    """
    ends = np.cumsum([u.data.shape[1] for u in us]).tolist()
    bounds = list(zip([0] + ends[:-1], ends))
    w = p.w_a.data[:, 0]
    e = sum(u.data @ w[lo:hi] for u, (lo, hi) in zip(us, bounds))
    a = softmax_rows(pack.to_grid(e) + p.b.data, pack.grid_mask)
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


def head(v1: Tensor, v2: Tensor, W_d: Tensor, b_d: Tensor, dense_keep: np.ndarray | None = None) -> Tensor:
    """The dense sigmoid head over the two pooled vectors, as one tape op.

    v = [v1 ; v2], times the inverted-dropout keep mask ``dense_keep`` when
    one is given; y = 1 / (1 + exp(-(v W_d + b_d))). Below -709, exp(-z)
    overflows to inf and y is 0, its limit, with no warning. The backward
    rule computes gz = g y (1 - y) once, then the gradients of W_d, b_d and
    the two slices of v.
    """
    v = np.concatenate([v1.data, v2.data], axis=-1)
    if dense_keep is not None:
        v = v * dense_keep
    with np.errstate(over="ignore"):
        y = 1.0 / (1.0 + np.exp(-(v @ W_d.data + b_d.data)))
    out = Tensor(y)

    def backward():
        g = out.grad
        if g is None:
            return
        gz = g * y * (1.0 - y)
        ad.accumulate_grad(W_d, v.T @ gz)
        ad.accumulate_grad(b_d, gz.sum(axis=0))
        gv = gz @ W_d.data.T
        if dense_keep is not None:
            gv = gv * dense_keep
        d1 = v1.data.shape[-1]
        ad.accumulate_grad(v1, gv[:, :d1])
        ad.accumulate_grad(v2, gv[:, d1:])

    ad.record(backward, out)
    return out


def forward(
    indices: np.ndarray,
    mask: np.ndarray,
    params: ModelParams,
    spatial_keep: np.ndarray | None = None,
    dense_keep: np.ndarray | None = None,
    ws: Workspace | None = None,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Full forward pass over a (B, T) batch.

    Returns (yhat (B, NUM_EMOTIONS), attention weights layer 1 (B, T), layer 2).
    A training step passes inverted-dropout keep masks from ``dropout_mask``:
    ``spatial_keep`` (B, d_emb) scales each example's embedding channels at
    every position, ``dense_keep`` (B, d_v) the pooled vector before the
    head. Without them the pass is the eval forward. Both attention layers
    see the same post-spatial-dropout X that feeds GRU layer 1. Without
    ``spatial_keep``, X holds unscaled embedding rows, so layer 1 gets their
    token ids and projects each distinct token of the batch once. A train loop
    passes the ``Workspace`` it keeps across steps as ``ws``; without one,
    each BiGRU layer allocates its arrays afresh.
    """
    mask = np.asarray(mask, dtype=np.float64)
    T = mask.shape[1]
    # Positions past the batch's longest valid length are padding in every
    # row and never scanned. Trimming them makes a batch whose rows all end
    # at the same position an unpacked one, with no gather.
    length = max(int(row_ends(mask).max(initial=0)), 1)
    mask = mask[:, :length]
    pack = Packing(mask)
    ids = pack.pack(np.asarray(indices)[:, :length].T)
    x = embed(ids, params.embedding)
    if spatial_keep is not None:
        # the embedding is frozen, so the dropped-out input needs no gradient
        x = Tensor(pack.scale(x.data, spatial_keep))
        ids = None  # scaled rows of one token differ between batch rows

    h1 = bigru_layer(x, params.gru1_fwd, params.gru1_bwd, mask, pack, ws, "gru1", ids)
    h2 = bigru_layer(h1, params.gru2_fwd, params.gru2_bwd, mask, pack, ws, "gru2")

    v1, a1 = attention_pool([h1, x], params.attn1, pack)
    v2, a2 = attention_pool([h2, h1, x], params.attn2, pack)
    yhat = head(v1, v2, params.W_d, params.b_d, dense_keep)
    pad = ((0, 0), (0, T - length))
    return yhat, np.pad(a1, pad), np.pad(a2, pad)


def predict_scores(dataset_indices, dataset_mask, params, batch_size: int = 64) -> np.ndarray:
    """Eval-mode (n, NUM_EMOTIONS) scores over a whole dataset, in its row order.

    Rows are batched by length: ranked by end (stable, longest first), that
    order is cut into ceil(n / batch_size) batches of about equal scanned
    positions, so each batch scans only as far as its own longest row and
    holds at most max(end) + total / n_batches positions. The scores are
    scattered back to input order. When every row has the same end and n is
    a multiple of batch_size, the batches are the file-order blocks of
    batch_size rows.
    """
    n = dataset_indices.shape[0]
    out = np.zeros((n, NUM_EMOTIONS))
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
