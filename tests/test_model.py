import numpy as np
import pytest

from panemo import autodiff as ad
from panemo.autodiff import Tensor
from panemo import model, verify
from panemo.errors import EmptySequenceError
from panemo.model import (
    AttentionParams,
    GruDirectionParams,
    ModelConfig,
    Packing,
    attention_pool,
    bigru_layer,
    embed,
    forward,
    init_params,
    predict_scores,
    row_ends,
)
from panemo.textprep import random_embeddings
from panemo.verify import build_downsized, gru_cell, tensor_sum


def packed(a, mask):
    """A (T, B, d) sequence as the tensor of its packed rows."""
    return Tensor(Packing(mask).pack(a))


def unpacked(t, mask):
    """The (T, B, d) sequence held by a tensor of packed rows."""
    return Packing(mask).unpack(t.data)


def zero_gru(d_in, hidden):
    z = lambda *s: Tensor(np.zeros(s), trainable=True)
    return GruDirectionParams(
        W_ir=z(d_in, hidden), W_iz=z(d_in, hidden), W_in=z(d_in, hidden),
        W_hr=z(hidden, hidden), W_hz=z(hidden, hidden), W_hn=z(hidden, hidden),
        b_ir=z(hidden), b_iz=z(hidden), b_in=z(hidden),
        b_hr=z(hidden), b_hz=z(hidden), b_hn=z(hidden),
    )


def random_gru(rng, d_in, hidden, scale=0.5):
    r = lambda *s: Tensor(rng.uniform(-scale, scale, s), trainable=True)
    return GruDirectionParams(
        W_ir=r(d_in, hidden), W_iz=r(d_in, hidden), W_in=r(d_in, hidden),
        W_hr=r(hidden, hidden), W_hz=r(hidden, hidden), W_hn=r(hidden, hidden),
        b_ir=r(hidden), b_iz=r(hidden), b_in=r(hidden),
        b_hr=r(hidden), b_hz=r(hidden), b_hn=r(hidden),
    )


class TestEmbed:
    def test_pad_row_is_zero(self):
        emb = Tensor(random_embeddings(10, 4, seed=0).weights)
        mask = np.ones((1, 2))
        xs = unpacked(embed(np.array([[0, 3]]), emb, Packing(mask)), mask)
        np.testing.assert_array_equal(xs[0], np.zeros((1, 4)))

    def test_equivalent_to_one_hot_matmul(self):
        emb = Tensor(random_embeddings(12, 5, seed=1).weights)
        rng = np.random.default_rng(2)
        idx = rng.integers(0, 12, size=(1, 20))
        mask = np.ones((1, 20))
        xs = unpacked(embed(idx, emb, Packing(mask)), mask)
        for t in range(20):
            one_hot = np.zeros((1, 12))
            one_hot[0, idx[0, t]] = 1.0
            np.testing.assert_array_equal(xs[t], one_hot @ emb.data)

    def test_identical_sequences_identical_slices(self):
        emb = Tensor(random_embeddings(8, 3, seed=3).weights)
        idx = np.array([[2, 4, 6], [2, 4, 6]])
        mask = np.ones((2, 3))
        xs = unpacked(embed(idx, emb, Packing(mask)), mask)
        for x in xs:
            np.testing.assert_array_equal(x[0], x[1])

    def test_out_of_range_index(self):
        emb = Tensor(random_embeddings(5, 3, seed=0).weights)
        with pytest.raises(IndexError):
            embed(np.array([[7]]), emb, Packing(np.ones((1, 1))))


class TestGruCell:
    def test_zero_weights(self):
        p = zero_gru(3, 4)
        h_prev = Tensor(np.full((1, 4), 0.8))
        h = gru_cell(Tensor(np.ones((1, 3))), h_prev, p)
        # r = z = sigmoid(0) = 0.5, n = tanh(0) = 0, h = 0.5 * h_prev
        np.testing.assert_allclose(h.data, np.full((1, 4), 0.4), atol=1e-15)

    def test_update_gate_saturated_keeps_state(self):
        p = zero_gru(3, 4)
        p.b_iz.data[...] = 30.0
        p.b_hz.data[...] = 30.0
        h_prev = Tensor(np.array([[0.1, -0.2, 0.3, 0.5]]))
        h = gru_cell(Tensor(np.ones((1, 3))), h_prev, p)
        np.testing.assert_allclose(h.data, h_prev.data, atol=1e-12)

    def test_against_straight_line_transcription(self):
        rng = np.random.default_rng(6)
        p = random_gru(rng, 3, 4, scale=0.3)
        x = rng.uniform(-1, 1, (2, 3))
        h0 = rng.uniform(-1, 1, (2, 4))
        got = gru_cell(Tensor(x), Tensor(h0), p).data

        # independent transcription of the gate equations
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        r = sig(x @ p.W_ir.data + p.b_ir.data + h0 @ p.W_hr.data + p.b_hr.data)
        z = sig(x @ p.W_iz.data + p.b_iz.data + h0 @ p.W_hz.data + p.b_hz.data)
        n = np.tanh(x @ p.W_in.data + p.b_in.data + r * (h0 @ p.W_hn.data + p.b_hn.data))
        expected = (1.0 - z) * n + z * h0
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_gate_ranges_and_bounded_state(self):
        rng = np.random.default_rng(7)
        p = random_gru(rng, 3, 4, scale=2.0)
        h = Tensor(np.zeros((1, 4)))
        for _ in range(10):
            h = gru_cell(Tensor(rng.uniform(-1, 1, (1, 3))), h, p)
            assert np.all(np.abs(h.data) < 1.0)  # convex combination from h0 = 0


class TestBigruLayer:
    def test_single_step(self):
        rng = np.random.default_rng(8)
        fwd, bwd = random_gru(rng, 3, 4), random_gru(rng, 3, 4)
        x = Tensor(rng.uniform(-1, 1, (1, 3)))
        mask = np.ones((1, 1))
        out = bigru_layer(packed(x.data[None], mask), fwd, bwd, mask, Packing(mask))
        h0 = Tensor(np.zeros((1, 4)))
        expected = np.concatenate(
            [gru_cell(x, h0, fwd).data, gru_cell(x, h0, bwd).data], axis=1
        )
        np.testing.assert_allclose(unpacked(out, mask)[0], expected, atol=1e-15)

    def test_masked_suffix_matches_short_sequence(self):
        rng = np.random.default_rng(9)
        fwd, bwd = random_gru(rng, 3, 4), random_gru(rng, 3, 4)
        xs_short = rng.uniform(-1, 1, (3, 1, 3))
        pad = np.zeros((2, 1, 3))
        short, padded = np.ones((1, 3)), np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
        out_short = unpacked(bigru_layer(packed(xs_short, short), fwd, bwd, short, Packing(short)), short)
        out_padded = unpacked(
            bigru_layer(packed(np.concatenate([xs_short, pad]), padded), fwd, bwd, padded, Packing(padded)),
            padded,
        )
        for t in range(3):
            np.testing.assert_allclose(out_padded[t], out_short[t], atol=1e-12)
        for t in (3, 4):
            np.testing.assert_array_equal(out_padded[t], np.zeros((1, 8)))

    def test_zero_input_zero_params(self):
        fwd, bwd = zero_gru(3, 4), zero_gru(3, 4)
        mask = np.ones((2, 4))
        out = bigru_layer(packed(np.zeros((4, 2, 3)), mask), fwd, bwd, mask, Packing(mask))
        for o in unpacked(out, mask):
            np.testing.assert_array_equal(o, np.zeros((2, 8)))


class TestFusedOracle:
    """The fused sequence layers against the per-step tape oracles in verify."""

    @pytest.mark.parametrize("seed", range(3))
    def test_bigru_matches_per_step_oracle(self, seed):
        assert verify.check_fused_bigru(seed=seed) <= 1e-12

    @pytest.mark.parametrize("T, B", [(1, 2), (7, 1)])
    def test_bigru_without_masked_steps(self, T, B):
        # a single step, and a single full-length row: no step keeps a state
        assert verify.check_fused_bigru(seed=3, T=T, B=B) <= 1e-12

    @pytest.mark.parametrize("name", sorted(verify.PACKING_MASKS))
    def test_bigru_packing_layouts(self, name):
        # re-ranked rows, leading masked steps, empty rows, unpacked batches, B = 1
        for seed in range(3):
            assert verify.check_fused_bigru(seed=seed, mask=verify.PACKING_MASKS[name]) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_attention_matches_per_position_oracle(self, seed):
        assert verify.check_fused_attention(seed=seed) <= 1e-12

    @pytest.mark.parametrize(
        "name", sorted(n for n, m in verify.PACKING_MASKS.items() if m.any(axis=1).all())
    )
    def test_attention_packing_layouts(self, name):
        for seed in range(3):
            assert verify.check_fused_attention(seed=seed, mask=verify.PACKING_MASKS[name]) <= 1e-12

    def test_attention_random_ragged_masks(self):
        rng = np.random.default_rng(19)
        for seed in range(5):
            mask = verify.random_ragged_mask(rng, int(rng.integers(1, 10)), int(rng.integers(1, 8)))
            assert verify.check_fused_attention(seed=seed, mask=mask) <= 1e-12

    def test_attention_row_without_valid_position_raises(self):
        mask = verify.PACKING_MASKS["empty rows"]
        u = packed(np.ones((mask.shape[1], mask.shape[0], 2)), mask)
        p = AttentionParams(w_a=Tensor(np.ones((2, 1))), b=Tensor(np.zeros(1)))
        with pytest.raises(EmptySequenceError):
            attention_pool([u], p, Packing(mask))

    def test_frozen_input_gets_no_gradient(self):
        rng = np.random.default_rng(16)
        fwd, bwd = random_gru(rng, 3, 4), random_gru(rng, 3, 4)
        mask = np.ones((2, 3))
        x = packed(rng.uniform(-1, 1, (3, 2, 3)), mask)
        with ad.Tape() as tape:
            loss = tensor_sum(bigru_layer(x, fwd, bwd, mask, Packing(mask)))
        ad.backward(loss, tape)
        assert x.grad is None
        assert np.abs(fwd.W_ir.grad).max() > 0.0


class TestPacking:
    def test_identity_when_every_row_ends_at_t(self):
        mask = np.ones((3, 4))
        mask[1, 2] = 0.0  # a gap does not move the row's end
        pack = Packing(mask)
        assert not pack.packed and pack.N == 12 and pack.runs == [(0, 12, 4, 3)]
        seq = np.arange(24.0).reshape(4, 3, 2)
        assert np.shares_memory(pack.pack(seq), seq)  # a reshape, not a gather
        np.testing.assert_array_equal(pack.unpack(pack.pack(seq)), seq)

    @pytest.mark.parametrize("name", sorted(verify.PACKING_MASKS))
    def test_round_trips(self, name):
        mask = verify.PACKING_MASKS[name]
        B, T = mask.shape
        ends = np.where(mask.any(axis=1), T - np.argmax(mask[:, ::-1] > 0, axis=1), 0)
        scanned = np.arange(T)[:, None] < ends  # (T, B)
        pack = Packing(mask)
        assert pack.N == ends.sum() and pack.S == ends.max()
        seq = np.random.default_rng(0).uniform(-1, 1, (T, B, 3))
        np.testing.assert_array_equal(pack.unpack(pack.pack(seq)), seq * scanned[..., None])
        per_row = np.random.default_rng(1).uniform(-1, 1, (B, 3))
        np.testing.assert_array_equal(pack.scale(pack.pack(seq), per_row), pack.pack(seq * per_row))
        values = np.arange(1.0, pack.N + 1)
        np.testing.assert_array_equal(pack.from_grid(pack.to_grid(values)), values)
        assert pack.grid_mask.sum() == mask.sum()
        assert [r[0] for r in pack.runs] == [0] + [r[1] for r in pack.runs[:-1]]
        assert sum(steps * kk for _, _, steps, kk in pack.runs) == pack.N


class TestAttentionPool:
    def make_params(self, rng, d):
        return AttentionParams(
            w_a=Tensor(rng.uniform(-1, 1, (d, 1)), trainable=True),
            b=Tensor(rng.uniform(-1, 1, 1), trainable=True),
        )

    def test_single_position(self):
        rng = np.random.default_rng(10)
        u = rng.uniform(-1, 1, (1, 1, 5))
        mask = np.ones((1, 1))
        v, a = attention_pool([packed(u, mask)], self.make_params(rng, 5), Packing(mask))
        np.testing.assert_allclose(v.data, u[0], atol=1e-15)
        np.testing.assert_allclose(a, [[1.0]])

    def test_identical_rows(self):
        rng = np.random.default_rng(11)
        row = rng.uniform(-1, 1, (1, 4))
        mask = np.ones((1, 5))
        us = packed(np.stack([row] * 5), mask)
        v, _ = attention_pool([us], self.make_params(rng, 4), Packing(mask))
        np.testing.assert_allclose(v.data, row, atol=1e-12)

    def test_hand_set_scores(self):
        # scores ln2 and 0 -> weights 2/3, 1/3
        u1, u2 = np.array([[1.0, 0.0]]), np.array([[0.0, 3.0]])
        p = AttentionParams(w_a=Tensor(np.zeros((2, 1))), b=Tensor(np.zeros(1)))
        mask = np.ones((1, 2))
        us = packed(np.stack([u1, u2]), mask)
        # score u1 via w_a so that e1 = ln2, e2 = 0
        p.w_a.data[0, 0] = np.log(2.0)
        v, a = attention_pool([us], p, Packing(mask))
        np.testing.assert_allclose(a, [[2 / 3, 1 / 3]], atol=1e-15)
        np.testing.assert_allclose(v.data, (2 / 3) * u1 + (1 / 3) * u2, atol=1e-15)

    def test_bias_shift_invariance(self):
        rng = np.random.default_rng(12)
        mask = np.ones((1, 4))
        us = packed(rng.uniform(-1, 1, (4, 1, 4)), mask)
        p = self.make_params(rng, 4)
        v1, a1 = attention_pool([us], p, Packing(mask))
        p.b.data[...] += 17.0
        v2, a2 = attention_pool([us], p, Packing(mask))
        np.testing.assert_allclose(a1, a2, atol=1e-12)
        np.testing.assert_allclose(v1.data, v2.data, atol=1e-12)

    def test_convex_hull(self):
        rng = np.random.default_rng(13)
        mask = np.ones((1, 6))
        us = packed(rng.uniform(-2, 2, (6, 1, 3)), mask)
        v, _ = attention_pool([us], self.make_params(rng, 3), Packing(mask))
        stacked = us.data
        assert np.all(v.data[0] >= stacked.min(axis=0) - 1e-12)
        assert np.all(v.data[0] <= stacked.max(axis=0) + 1e-12)


class TestForward:
    def test_zero_head_gives_half(self):
        params = build_downsized(seed=0)
        params.W_d.data[...] = 0.0
        params.b_d.data[...] = 0.0
        yhat, _, _ = forward(np.array([[2, 3, 4, 0, 0]]), np.array([[1, 1, 1, 0, 0]]), params)
        np.testing.assert_allclose(yhat.data, np.full((1, 11), 0.5), atol=1e-15)

    def test_shapes(self):
        params = build_downsized(seed=0)
        rng = np.random.default_rng(14)
        idx = rng.integers(2, 20, size=(2, 7))
        yhat, a1, a2 = forward(idx, np.ones((2, 7)), params)
        assert yhat.data.shape == (2, 11)
        assert a1.shape == (2, 7) and a2.shape == (2, 7)
        assert np.all((yhat.data > 0) & (yhat.data < 1))

    def test_padding_invariance_eval(self):
        params = build_downsized(seed=0)
        rng = np.random.default_rng(15)
        idx = rng.integers(2, 20, size=(1, 4))
        y1, _, _ = forward(idx, np.ones((1, 4)), params)
        idx_p = np.concatenate([idx, np.zeros((1, 3), dtype=np.int64)], axis=1)
        msk_p = np.concatenate([np.ones((1, 4)), np.zeros((1, 3))], axis=1)
        y2, _, _ = forward(idx_p, msk_p, params)
        assert np.abs(y1.data - y2.data).max() < 1e-12

    def test_trimmed_batch_keeps_input_length(self):
        params = build_downsized(seed=0)
        idx = np.array([[2, 3, 0, 0, 0, 0], [4, 5, 6, 0, 0, 0]])
        msk = (idx > 0).astype(float)
        yhat, a1, a2 = forward(idx, msk, params)
        y_short, b1, b2 = forward(idx[:, :3], msk[:, :3], params)
        assert yhat.data.tobytes() == y_short.data.tobytes()
        assert a1.shape == (2, 6) and a2.shape == (2, 6)
        np.testing.assert_array_equal(a1[:, :3], b1)
        np.testing.assert_array_equal(a2[:, 3:], np.zeros((2, 3)))

    def test_row_permutation_permutes_outputs(self):
        params = build_downsized(seed=0)
        rng = np.random.default_rng(18)
        lengths = [3, 7, 1, 5, 2, 7]
        msk = np.array([[1.0] * n + [0.0] * (7 - n) for n in lengths])
        idx = rng.integers(2, 20, size=(6, 7)) * msk.astype(np.int64)
        perm = rng.permutation(6)
        y, a1, a2 = forward(idx, msk, params)
        y_p, a1_p, a2_p = forward(idx[perm], msk[perm], params)
        np.testing.assert_allclose(y_p.data, y.data[perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(a1_p, a1[perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(a2_p, a2[perm], rtol=0, atol=1e-12)

    def test_batch_without_valid_position_raises(self):
        params = build_downsized(seed=0)
        with pytest.raises(EmptySequenceError):
            forward(np.zeros((2, 4), dtype=np.int64), np.zeros((2, 4)), params)

    def test_eval_deterministic(self):
        params = build_downsized(seed=0)
        idx = np.array([[2, 5, 9]])
        msk = np.ones((1, 3))
        y1, _, _ = forward(idx, msk, params)
        y2, _, _ = forward(idx, msk, params)
        assert y1.data.tobytes() == y2.data.tobytes()

    def test_dimension_chain_full_size(self):
        config = ModelConfig()  # d_emb 300, hidden 50
        assert config.d_h == 100
        assert config.d_u1 == 400
        assert config.d_u2 == 500
        assert config.d_v == 900
        params = init_params(random_embeddings(30, 300, seed=0), config, seed=0)
        assert params.attn1.w_a.data.shape == (400, 1)
        assert params.attn2.w_a.data.shape == (500, 1)
        assert params.W_d.data.shape == (900, 11)

    def test_init_deterministic(self):
        a = build_downsized(seed=5)
        b = build_downsized(seed=5)
        for (n1, t1), (n2, t2) in zip(a.named_parameters(), b.named_parameters()):
            assert n1 == n2
            assert t1.data.tobytes() == t2.data.tobytes()


def ragged_rows(rng, n, T, lengths=None):
    """(indices, mask) of n rows with the given or random lengths in [1, T], PAD after."""
    lengths = rng.integers(1, T + 1, size=n) if lengths is None else np.asarray(lengths)
    msk = (np.arange(T) < lengths[:, None]).astype(np.float64)
    return rng.integers(2, 20, size=(n, T)) * msk.astype(np.int64), msk


def file_order_scores(idx, msk, params, batch_size=64):
    """Oracle: eval scores of consecutive blocks of batch_size rows in file order."""
    blocks = [
        forward(idx[i : i + batch_size], msk[i : i + batch_size], params)[0].data
        for i in range(0, len(idx), batch_size)
    ]
    return np.concatenate(blocks)


def recorded_batches(monkeypatch):
    """The (indices, mask) of every forward call that predict_scores makes."""
    calls = []

    def recording_forward(indices, mask, params, *args, **kwargs):
        calls.append((indices, mask))
        return forward(indices, mask, params, *args, **kwargs)

    monkeypatch.setattr(model, "forward", recording_forward)
    return calls


class TestPredictScores:
    def test_matches_file_order_batches(self):
        params = build_downsized(seed=0)
        idx, msk = ragged_rows(np.random.default_rng(30), 150, 12)
        got = predict_scores(idx, msk, params)
        assert np.abs(got - file_order_scores(idx, msk, params)).max() <= 1e-12

    def test_permutation_equivariant(self):
        params = build_downsized(seed=1)
        rng = np.random.default_rng(31)
        idx, msk = ragged_rows(rng, 130, 9)
        perm = rng.permutation(130)
        got = predict_scores(idx[perm], msk[perm], params)
        assert np.abs(got - predict_scores(idx, msk, params)[perm]).max() <= 1e-12

    def test_equal_lengths_keep_file_order_blocks(self, monkeypatch):
        params = build_downsized(seed=2)
        idx, msk = ragged_rows(np.random.default_rng(32), 192, 8, lengths=[6] * 192)
        calls = recorded_batches(monkeypatch)
        got = predict_scores(idx, msk, params)
        assert len(calls) == 3
        for i, (b_idx, b_msk) in enumerate(calls):
            assert np.array_equal(b_idx, idx[64 * i : 64 * (i + 1)])
            assert np.array_equal(b_msk, msk[64 * i : 64 * (i + 1)])
        assert got.tobytes() == file_order_scores(idx, msk, params).tobytes()

    @pytest.mark.parametrize(
        "n, T, lengths",
        [
            (150, 12, None),  # random lengths in [1, 12]
            (256, 50, "semeval"),  # mostly short, a few long
            (65, 60, [60] * 2 + [1] * 63),  # two rows near a batch's share
            (129, 500, [500] + [1] * 128),  # one row longer than two shares
            (64, 12, None),
        ],
    )
    def test_batches_balance_scanned_positions(self, monkeypatch, n, T, lengths):
        params = build_downsized(seed=3)
        rng = np.random.default_rng(33)
        if lengths == "semeval":
            lengths = np.minimum(rng.geometric(0.06, size=n), T)
        idx, msk = ragged_rows(rng, n, T, lengths)
        calls = recorded_batches(monkeypatch)
        got = predict_scores(idx, msk, params)
        ends = row_ends(msk)
        n_batches = -(-n // 64)
        bound = ends.max() + -(-ends.sum() // n_batches)
        assert 1 <= len(calls) <= n_batches
        assert all(len(b_idx) for b_idx, _ in calls)  # no empty batch
        assert sorted(np.concatenate([b_idx for b_idx, _ in calls]).tolist()) == sorted(idx.tolist())
        for _, b_msk in calls:
            assert row_ends(b_msk).sum() <= bound
        assert np.abs(got - file_order_scores(idx, msk, params)).max() <= 1e-12

    def test_empty_input(self):
        params = build_downsized(seed=0)
        out = predict_scores(np.zeros((0, 5), dtype=np.int64), np.zeros((0, 5)), params)
        assert out.shape == (0, 11)

    def test_row_ends(self):
        msk = np.array([[1, 1, 0, 0], [0, 1, 0, 1], [0, 0, 0, 0], [1, 1, 1, 1]])
        assert row_ends(msk).tolist() == [2, 4, 0, 4]


def test_full_model_gradients_vs_finite_differences_small():
    """A very small taped end-to-end gradient check (full check in acceptance)."""
    params = build_downsized(seed=2, T=3)
    idx = np.array([[2, 3, 0]])
    msk = np.array([[1.0, 1.0, 0.0]])

    def f():
        yhat, _, _ = forward(idx, msk, params)
        return tensor_sum(yhat)

    subset = [params.gru1_fwd.W_hn, params.attn1.w_a, params.W_d, params.gru2_bwd.b_hz]
    # end-to-end tolerance; per-op checks at 1e-6 live in test_autodiff
    assert ad.grad_check(f, subset, eps=1e-5) < 1e-4
