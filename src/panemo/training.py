"""Loss, regularization, Adam, LR schedule, early stopping, and the epoch loop."""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError, TrainingDivergedError
from .model import ModelParams, dropout_mask, forward, predict_scores
from .textprep import Dataset

# Subsystem PRNG streams, derived from the root seed with SeedSequence so
# enabling one regularizer never perturbs another's draws.
STREAM_SHUFFLE = 0
STREAM_DROPOUT = 1
STREAM_SPATIAL = 2
STREAM_NOISE = 3


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


# The allowed values of each TrainingConfig field; a float must also be finite.
_FIELD_RANGES = {
    "batch_size": (lambda v: v >= 1, ">= 1"),
    "lr_init": (lambda v: v >= 0, ">= 0"),
    "lr_floor": (lambda v: v >= 0, ">= 0"),
    "lr_halve_patience": (lambda v: v >= 1, ">= 1"),
    "pos_weight": (lambda v: v > 0, "> 0"),
    "dropout_dense": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "spatial_dropout": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "weight_noise_std": (lambda v: v >= 0, ">= 0"),
    "l2_coeff": (lambda v: v >= 0, ">= 0"),
    "early_stop_patience": (lambda v: v >= 1, ">= 1"),
    "max_epochs": (lambda v: v >= 1, ">= 1"),
    "threshold": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "seed": (lambda v: v >= 0, ">= 0"),
}


@dataclass
class TrainingConfig:
    batch_size: int = 64
    lr_init: float = 0.001
    lr_floor: float = 0.0001
    lr_halve_patience: int = 3
    pos_weight: float = 2.0
    dropout_dense: float = 0.2
    spatial_dropout: float = 0.4
    weight_noise_std: float = 0.1
    l2_coeff: float = 1e-5
    early_stop_patience: int = 10
    max_epochs: int = 50
    threshold: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            allowed, words = _FIELD_RANGES[f.name]
            if (isinstance(value, float) and not math.isfinite(value)) or not allowed(value):
                raise ConfigError(f"{f.name}={value} must be finite and {words}")
        if self.lr_floor > self.lr_init:
            raise ConfigError(f"lr_floor={self.lr_floor} exceeds lr_init={self.lr_init}")


def weighted_bce(yhat: Tensor, y: np.ndarray, w: float) -> Tensor:
    """Weighted binary cross-entropy, averaged over the batch.

    Per example: -(1/m) sum_i [w * y_i * log(yhat_i) + (1 - y_i) * log(1 - yhat_i)]
    with m the number of labels. Log arguments are clamped to >= 1e-12.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != yhat.data.shape:
        raise ShapeError(f"labels shape {y.shape} != predictions shape {yhat.data.shape}")
    batch, m = y.shape
    p = np.clip(yhat.data, 1e-12, 1.0 - 1e-12)
    per_term = w * y * np.log(p) + (1.0 - y) * np.log(1.0 - p)
    out = Tensor(-per_term.sum() / (m * batch))

    def bwd():
        g = out.grad
        if g is None:
            return
        dp = -(w * y / p - (1.0 - y) / (1.0 - p)) / (m * batch)
        ad.accumulate_grad(yhat, float(g) * dp)

    ad.record(bwd, out)
    return out


def l2_penalty(params: ModelParams, coeff: float) -> Tensor:
    """coeff * sum of squared entries over trainable weight matrices."""
    if coeff < 0:
        raise ValueError("l2 coefficient must be >= 0")
    if coeff == 0.0:
        return Tensor(0.0)
    terms = [ad.square_sum(w) for w in params.weight_matrices()]
    return ad.scale(ad.add_scalars(terms), coeff)


_NOISY_WEIGHTS = ("W_hr", "W_hz", "W_hn")


def perturb_hidden_weights(params: ModelParams, sigma: float, rng) -> ModelParams:
    """Noisy view of params for one step: N(0, sigma^2) on GRU hidden weights.

    Gradients flow through the perturbed forward back to the clean weights;
    the noise itself is never stored. Eval always uses the clean params.
    """
    if sigma == 0.0:
        return params
    noisy = copy.copy(params)
    for gru_name in ("gru1_fwd", "gru1_bwd", "gru2_fwd", "gru2_bwd"):
        direction = copy.copy(getattr(params, gru_name))
        for w_name in _NOISY_WEIGHTS:
            clean = getattr(direction, w_name)
            noise = rng.normal(0.0, sigma, size=clean.data.shape)
            setattr(direction, w_name, ad.add_const(clean, noise))
        setattr(noisy, gru_name, direction)
    return noisy


@dataclass
class AdamState:
    """First/second moment buffers mirroring the trainable parameters."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        return cls(
            m=[np.zeros_like(p.data) for p in params],
            v=[np.zeros_like(p.data) for p in params],
        )


def adam_step(params: list[Tensor], state: AdamState, lr: float):
    """One Adam update in place, reading each parameter's grad buffer."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    for i, p in enumerate(params):
        g = p.grad
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        m_hat = state.m[i] / (1.0 - b1**state.t)
        v_hat = state.v[i] / (1.0 - b2**state.t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + state.eps)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float
    elapsed_seconds: float


@dataclass
class TrainingLog:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_val_loss: float = float("inf")
    best_epoch: int = -1
    consecutive_failures: int = 0

    def to_tsv(self) -> str:
        lines = ["epoch\ttrain_loss\tval_loss\tlr\telapsed_seconds"]
        for r in self.epochs:
            lines.append(
                f"{r.epoch}\t{r.train_loss:.10g}\t{r.val_loss:.10g}"
                f"\t{r.lr:.10g}\t{r.elapsed_seconds:.3f}"
            )
        return "\n".join(lines) + "\n"


def lr_schedule_update(log: TrainingLog, lr: float, config: TrainingConfig) -> float:
    """Halve the rate after `lr_halve_patience` consecutive validation failures.

    A failure is a validation loss not strictly below the best so far; the
    counter resets on success or on a halving. The rate never drops below
    ``lr_floor``. Call once per epoch, after the epoch record is appended
    and before ``best_val_loss`` is updated with the current epoch.
    """
    latest = log.epochs[-1].val_loss
    if latest < log.best_val_loss:
        log.consecutive_failures = 0
    else:
        log.consecutive_failures += 1
        if log.consecutive_failures >= config.lr_halve_patience:
            lr = max(lr / 2.0, config.lr_floor)
            log.consecutive_failures = 0
    return lr


def early_stop_check(log: TrainingLog, patience: int) -> bool:
    """True when validation loss has not improved for `patience` epochs."""
    return log.epochs[-1].epoch - log.best_epoch >= patience


def _snapshot(params: ModelParams) -> dict[str, np.ndarray]:
    """Copies of the trainable tensors; the frozen embedding never changes."""
    return {name: t.data.copy() for name, t in params.trainable_parameters()}


def _restore(params: ModelParams, snap: dict[str, np.ndarray]):
    for name, t in params.trainable_parameters():
        t.data[...] = snap[name]


def _keep_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray | None:
    """A dropout keep mask, drawn only when the rate is above 0."""
    return dropout_mask(shape, p, rng) if p > 0.0 else None


def evaluate_loss(dataset: Dataset, params: ModelParams, config: TrainingConfig) -> float:
    """Eval-mode weighted BCE over a dataset (no L2, no regularizer noise)."""
    idx, msk, lab = dataset.arrays()
    yhat = predict_scores(idx, msk, params, config.batch_size)
    return float(weighted_bce(Tensor(yhat), lab, config.pos_weight).data)


def train(
    train_set: Dataset,
    dev_set: Dataset,
    config: TrainingConfig,
    params: ModelParams,
    log_path=None,
) -> tuple[ModelParams, TrainingLog]:
    """Full training loop; returns params restored to the best-epoch snapshot.

    Deterministic given (config.seed, data): shuffling, dropout, and weight
    noise each draw from their own seeded stream.
    """
    if len(train_set) == 0 or len(dev_set) == 0:
        raise ValueError("train and dev sets must be non-empty")

    idx, msk, lab = train_set.arrays()
    n = len(train_set)
    embedding_before = params.embedding.data.copy()

    trainable = [t for _, t in params.trainable_parameters()]
    d_emb, d_v = params.config.d_emb, params.config.d_v
    state = AdamState.for_params(trainable)
    shuffle_rng = stream_rng(config.seed, STREAM_SHUFFLE)
    dropout_rng = stream_rng(config.seed, STREAM_DROPOUT)
    spatial_rng = stream_rng(config.seed, STREAM_SPATIAL)
    noise_rng = stream_rng(config.seed, STREAM_NOISE)

    log = TrainingLog()
    lr = config.lr_init
    best_snapshot = _snapshot(params)
    t0 = time.monotonic()

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            sel = order[start : start + config.batch_size]
            for t in trainable:
                t.zero_grad()
            with ad.Tape() as tape:
                noisy = perturb_hidden_weights(params, config.weight_noise_std, noise_rng)
                # passed straight in, so the spatial mask is freed with the forward
                yhat, _, _ = forward(
                    idx[sel],
                    msk[sel],
                    noisy,
                    _keep_mask((len(sel), d_emb), config.spatial_dropout, spatial_rng),
                    _keep_mask((len(sel), d_v), config.dropout_dense, dropout_rng),
                )
                loss = ad.add_scalars(
                    [
                        weighted_bce(yhat, lab[sel], config.pos_weight),
                        l2_penalty(params, config.l2_coeff),
                    ]
                )
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            ad.backward(loss, tape)
            adam_step(trainable, state, lr)
            epoch_loss += loss_val * len(sel)
        epoch_loss /= n

        val_loss = evaluate_loss(dev_set, params, config)
        log.epochs.append(
            EpochRecord(epoch, epoch_loss, val_loss, lr, time.monotonic() - t0)
        )
        # schedule compares against the best of *previous* epochs
        lr = lr_schedule_update(log, lr, config)
        if val_loss < log.best_val_loss:
            log.best_val_loss = val_loss
            log.best_epoch = epoch
            best_snapshot = _snapshot(params)
        if early_stop_check(log, config.early_stop_patience):
            break

    _restore(params, best_snapshot)
    if not np.array_equal(embedding_before, params.embedding.data):
        raise AssertionError("frozen embedding was modified during training")
    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as fh:
            fh.write(log.to_tsv())
    return params, log
