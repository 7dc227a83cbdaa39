import numpy as np
import pytest

from panemo import autodiff as ad
from panemo.autodiff import Tape, Tensor, backward
from panemo.errors import ShapeError
from panemo.model import Packing, dropout_mask, forward
from panemo.training import (
    AdamState,
    EpochRecord,
    TrainingConfig,
    TrainingLog,
    adam_step,
    early_stop_check,
    evaluate_loss,
    l2_penalty,
    lr_schedule_update,
    perturb_hidden_weights,
    train,
    weighted_bce,
)
from panemo.textprep import Dataset, Example
from panemo.verify import (
    build_downsized,
    make_synthetic_dataset,
    overfit_harness,
    train_mode_gradcheck,
)


class TestWeightedBce:
    def test_perfect_fit_near_zero(self):
        y = np.ones((1, 11))
        yhat = Tensor(np.full((1, 11), 1.0 - 1e-9))
        assert float(weighted_bce(yhat, y, 2.0).data) < 1e-7

    def test_all_half_gives_ln2(self):
        y = np.zeros((1, 11))
        yhat = Tensor(np.full((1, 11), 0.5))
        np.testing.assert_allclose(float(weighted_bce(yhat, y, 2.0).data), np.log(2.0), atol=1e-12)

    def test_single_positive_term_by_term(self):
        # y1=1 with yhat1=0.25, the other ten y=0 with yhat=0.5
        y = np.zeros((1, 11))
        y[0, 0] = 1.0
        yhat = np.full((1, 11), 0.5)
        yhat[0, 0] = 0.25
        expected = (2.0 * np.log(4.0) + 10.0 * np.log(2.0)) / 11.0
        got = float(weighted_bce(Tensor(yhat), y, 2.0).data)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_loss_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.integers(0, 2, (4, 11)).astype(float)
            yhat = Tensor(rng.uniform(1e-6, 1 - 1e-6, (4, 11)))
            assert float(weighted_bce(yhat, y, 2.0).data) >= 0.0

    def test_gradient_matches_closed_form(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, (3, 11)).astype(float)
        p = rng.uniform(0.05, 0.95, (3, 11))
        yhat = Tensor(p, trainable=True)
        with Tape() as tape:
            loss = weighted_bce(yhat, y, 2.0)
        backward(loss, tape)
        expected = -(2.0 * y / p - (1.0 - y) / (1.0 - p)) / (11 * 3)
        np.testing.assert_allclose(yhat.grad, expected, atol=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            weighted_bce(Tensor(np.full((1, 11), 0.5)), np.zeros((2, 11)), 2.0)


class TestL2Penalty:
    def test_zero_coeff(self):
        params = build_downsized(seed=0)
        assert float(l2_penalty(params, 0.0).data) == 0.0

    def test_single_matrix(self):
        t = Tensor(np.array([[3.0, 4.0]]), trainable=True)
        assert float(ad.square_sum(t).data) == 25.0

    def test_matches_flattening_oracle(self):
        params = build_downsized(seed=1)
        lam = 0.5
        got = float(l2_penalty(params, lam).data)
        expected = lam * sum(
            float((t.data.reshape(-1) ** 2).sum())
            for _, t in params.trainable_parameters()
            if t.data.ndim == 2
        )
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_biases_and_embedding_excluded(self):
        params = build_downsized(seed=2)
        base = float(l2_penalty(params, 1.0).data)
        params.b_d.data[...] += 100.0
        params.embedding.data[...] += 100.0
        assert float(l2_penalty(params, 1.0).data) == base


class TestDropout:
    def test_p_zero_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        rng = np.random.default_rng(0)
        assert np.array_equal(x * dropout_mask(x.shape, 0.0, rng), x)

    def test_inverted_scaling(self):
        rng = np.random.default_rng(1)
        x = np.ones((100, 100))
        out = x * dropout_mask(x.shape, 0.2, rng)
        survivors = out[out != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.8)

    def test_spatial_drops_whole_channels(self):
        rng = np.random.default_rng(2)
        mask = np.ones((4, 50))
        mask[1, 20:] = 0.0
        pack = Packing(mask)
        rows = np.ones((pack.N, 30))  # packed (positions, d) rows of four examples
        out = pack.unpack(pack.scale(rows, dropout_mask((4, 30), 0.4, rng)))
        for b, length in enumerate([50, 20, 50, 50]):
            for c in range(30):
                col = out[:length, b, c]
                assert np.all(col == 0.0) or np.all(col == 1.0 / 0.6)

    def test_spatial_drop_fraction_monte_carlo(self):
        rng = np.random.default_rng(3)
        mask = dropout_mask((100000,), 0.4, rng)
        frac = float((mask == 0).mean())
        assert abs(frac - 0.4) < 0.01


class TestWeightNoise:
    def test_sigma_zero_is_identity(self):
        params = build_downsized(seed=0)
        assert perturb_hidden_weights(params, 0.0, None) is params

    def test_noise_moments_monte_carlo(self):
        params = build_downsized(seed=1)
        rng = np.random.default_rng(4)
        samples = []
        while sum(s.size for s in samples) < 1_000_000:
            noisy = perturb_hidden_weights(params, 0.1, rng)
            for gru_name in ("gru1_fwd", "gru1_bwd", "gru2_fwd", "gru2_bwd"):
                clean = getattr(params, gru_name)
                pert = getattr(noisy, gru_name)
                for w in ("W_hr", "W_hz", "W_hn"):
                    samples.append(getattr(pert, w).data - getattr(clean, w).data)
        noise = np.concatenate([s.reshape(-1) for s in samples])[:1_000_000]
        assert abs(noise.mean()) < 0.001
        assert abs(noise.std() - 0.1) < 0.001

    def test_only_hidden_weights_perturbed(self):
        params = build_downsized(seed=2)
        noisy = perturb_hidden_weights(params, 0.1, np.random.default_rng(5))
        assert noisy.gru1_fwd.W_ir is params.gru1_fwd.W_ir
        assert noisy.W_d is params.W_d
        assert not np.array_equal(noisy.gru1_fwd.W_hr.data, params.gru1_fwd.W_hr.data)

    def test_lr_zero_noise_not_persisted(self):
        dataset = make_synthetic_dataset(8, seed=0)
        params = build_downsized(seed=3)
        before = {n: t.data.copy() for n, t in params.named_parameters()}
        config = TrainingConfig(
            batch_size=4, lr_init=0.0, lr_floor=0.0, weight_noise_std=0.1,
            max_epochs=2, seed=0,
        )
        params, _ = train(dataset, dataset, config, params)
        for name, t in params.named_parameters():
            assert t.data.tobytes() == before[name].tobytes(), name


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = Tensor(np.array([1.0, -2.0]), trainable=True)
        state = AdamState.for_params([p])
        before = p.data.copy()
        adam_step([p], state, lr=0.001)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude(self):
        p = Tensor(np.array([5.0]), trainable=True)
        p.grad[...] = 0.3
        state = AdamState.for_params([p])
        adam_step([p], state, lr=0.001)
        # m_hat = g, sqrt(v_hat) = |g| >> eps, so the step is ~ -lr * sign(g)
        np.testing.assert_allclose(p.data[0], 5.0 - 0.001, atol=1e-7)

    def test_five_steps_vs_independent_transcription(self):
        p = Tensor(np.array([1.5]), trainable=True)
        state = AdamState.for_params([p])
        # independent transcription of the update recurrences
        theta, m, v = 1.5, 0.0, 0.0
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        for t in range(1, 6):
            g = 2.0 * p.data[0]  # f = theta^2
            p.grad[...] = g
            adam_step([p], state, lr)

            g_ref = 2.0 * theta
            m = b1 * m + (1 - b1) * g_ref
            v = b2 * v + (1 - b2) * g_ref**2
            theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            np.testing.assert_allclose(p.data[0], theta, atol=1e-12)


def make_log(val_losses, lr_init=0.001):
    """Run the schedule over a validation-loss sequence, returning lr history."""
    config = TrainingConfig(lr_init=lr_init, seed=0)
    log = TrainingLog()
    lr = lr_init
    lrs = []
    for epoch, vl in enumerate(val_losses, start=1):
        log.epochs.append(EpochRecord(epoch, 0.0, vl, lr, 0.0))
        lr = lr_schedule_update(log, lr, config)
        lrs.append(lr)
        if vl < log.best_val_loss:
            log.best_val_loss = vl
            log.best_epoch = epoch
    return log, lrs


class TestLrSchedule:
    def test_all_successes_keep_lr(self):
        _, lrs = make_log([1.0, 0.9, 0.8])
        assert lrs == [0.001, 0.001, 0.001]

    def test_three_failures_halve(self):
        _, lrs = make_log([1.0, 1.1, 1.2, 1.3])
        assert lrs == [0.001, 0.001, 0.001, 0.0005]

    def test_twelve_failures_hit_floor(self):
        _, lrs = make_log([1.0] + [1.0 + 0.1 * i for i in range(1, 13)])
        assert lrs[-1] == 0.0001
        distinct = sorted(set(lrs), reverse=True)
        assert distinct == [0.001, 0.0005, 0.00025, 0.000125, 0.0001]

    def test_success_resets_counter(self):
        _, lrs = make_log([1.0, 1.1, 1.2, 0.9, 1.0, 1.1, 1.2])
        # two failures, success, then three more failures before a halve
        assert lrs == [0.001] * 6 + [0.0005]

    def test_lr_non_increasing(self):
        rng = np.random.default_rng(6)
        _, lrs = make_log(list(rng.uniform(0.5, 1.5, 30)))
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert min(lrs) >= 0.0001


class TestEarlyStop:
    def test_monotone_never_stops(self):
        log, _ = make_log([1.0, 0.9, 0.8, 0.7])
        assert not early_stop_check(log, patience=10)

    def test_counting(self):
        losses = [1.0, 0.9, 0.8] + [0.85] * 10
        log, _ = make_log(losses)
        # best at epoch 3, 10 stale epochs -> stop after epoch 13
        assert early_stop_check(log, patience=10)
        log.epochs.pop()
        assert not early_stop_check(log, patience=10)


class TestTrain:
    def test_lr_zero_params_unchanged(self):
        dataset = make_synthetic_dataset(8, seed=1)
        params = build_downsized(seed=1)
        before = {n: t.data.copy() for n, t in params.named_parameters()}
        config = TrainingConfig(batch_size=4, lr_init=0.0, lr_floor=0.0, max_epochs=3, seed=1)
        params, _ = train(dataset, dataset, config, params)
        for name, t in params.named_parameters():
            assert t.data.tobytes() == before[name].tobytes(), name

    def test_same_seed_identical_log(self):
        dataset = make_synthetic_dataset(12, seed=2)
        config = TrainingConfig(batch_size=4, lr_init=0.01, lr_floor=0.001, max_epochs=3, seed=2)
        logs = []
        for _ in range(2):
            params = build_downsized(seed=2)
            _, log = train(dataset, dataset, config, params)
            logs.append([(r.epoch, r.train_loss, r.val_loss, r.lr) for r in log.epochs])
        assert logs[0] == logs[1]

    def test_restored_model_reproduces_best_val_loss(self):
        dataset = make_synthetic_dataset(12, seed=3)
        config = TrainingConfig(
            batch_size=4, lr_init=0.01, lr_floor=0.001, max_epochs=5, seed=3
        )
        params = build_downsized(seed=3)
        params, log = train(dataset, dataset, config, params)
        recomputed = evaluate_loss(dataset, params, config)
        np.testing.assert_allclose(recomputed, log.best_val_loss, atol=1e-12)

    def test_embedding_frozen(self):
        dataset = make_synthetic_dataset(12, seed=4)
        config = TrainingConfig(batch_size=4, lr_init=0.01, lr_floor=0.001, max_epochs=2, seed=4)
        params = build_downsized(seed=4)
        before = params.embedding.data.copy()
        params, _ = train(dataset, dataset, config, params)
        assert params.embedding.data.tobytes() == before.tobytes()

    def test_log_tsv_format(self, tmp_path):
        dataset = make_synthetic_dataset(8, seed=5)
        config = TrainingConfig(batch_size=4, max_epochs=2, seed=5)
        params = build_downsized(seed=5)
        path = tmp_path / "log.tsv"
        _, log = train(dataset, dataset, config, params, log_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch\ttrain_loss\tval_loss\tlr\telapsed_seconds"
        assert len(lines) == 1 + len(log.epochs)

    def test_empty_dataset_rejected(self):
        from panemo.textprep import Dataset

        config = TrainingConfig(seed=0)
        with pytest.raises(ValueError):
            train(Dataset(), make_synthetic_dataset(4), config, build_downsized(seed=0))


def per_batch_loss(dataset, params, config):
    """Oracle: the mean of per-batch weighted losses over file-order batches."""
    idx, msk, lab = dataset.arrays()
    n, total = len(dataset), 0.0
    for start in range(0, n, config.batch_size):
        end = min(start + config.batch_size, n)
        yhat, _, _ = forward(idx[start:end], msk[start:end], params)
        total += float(weighted_bce(yhat, lab[start:end], config.pos_weight).data) * (end - start)
    return total / n


@pytest.mark.parametrize("n, batch_size", [(150, 64), (37, 8), (5, 64)])
def test_evaluate_loss_matches_per_batch_loop(n, batch_size):
    rng = np.random.default_rng(n)
    examples = []
    for i in range(n):
        length = int(rng.integers(1, 10))
        tokens = rng.integers(2, 20, size=length).tolist()
        labels = rng.integers(0, 2, size=11).tolist()
        examples.append(Example(tokens + [0] * (9 - length), [1] * length + [0] * (9 - length), labels))
    dataset = Dataset(examples)
    params = build_downsized(seed=8)
    config = TrainingConfig(batch_size=batch_size, pos_weight=3.0)
    want = per_batch_loss(dataset, params, config)
    assert abs(evaluate_loss(dataset, params, config) - want) <= 1e-12 * want


def test_train_eval_asymmetry_vanishes_without_regularizers():
    """Keep masks that keep everything give the eval forward's scores exactly."""
    params = build_downsized(seed=6)
    idx = np.array([[2, 7, 11, 3, 0]])
    msk = np.array([[1.0, 1, 1, 1, 0]])
    config = params.config
    y_eval, _, _ = forward(idx, msk, params)
    y_train, _, _ = forward(idx, msk, params, np.ones((1, config.d_emb)), np.ones((1, config.d_v)))
    assert np.array_equal(y_eval.data, y_train.data)


def test_train_mode_gradient_check():
    """Dropout, spatial dropout and weight noise on, with their draws held fixed."""
    assert train_mode_gradcheck(seed=0) < 1e-4
