"""Loss, regularization, the train-mode batch loss, Adam, and the epoch loop
with its learning-rate halving and early stopping."""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError, TrainingDivergedError
from .metrics import valid_threshold
from .model import ModelConfig, ModelParams, Workspace, dropout_mask, forward, predict_scores
from .textprep import NUM_EMOTIONS, Dataset, split_lines, write_file

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
    "threshold": (valid_threshold, "in [0, 1]"),
    "seed": (lambda v: v >= 0, ">= 0"),
}


# Characters of a value that an error message shows: a longer value is cut
# there and its length given.
SHOWN_CHARS = 40


def _shown(value, quote: bool = False) -> str:
    """``value`` as an error message shows it, cut at SHOWN_CHARS characters
    and as a repr when ``quote``."""
    text = str(value)
    head = repr(text[:SHOWN_CHARS]) if quote else text[:SHOWN_CHARS]
    return head if len(text) <= SHOWN_CHARS else f"{head}... ({len(text)} characters)"


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
                raise ConfigError(f"{f.name}={_shown(value)} must be finite and {words}")
        if self.lr_floor > self.lr_init:
            raise ConfigError(f"lr_floor={self.lr_floor} exceeds lr_init={self.lr_init}")


# The default of each integer setting outside TrainingConfig: the sizes of
# the model, of its head (fixed by the data format) and of the data.
SIZE_DEFAULTS = {
    "d_emb": ModelConfig.d_emb,
    "hidden": ModelConfig.hidden,
    "n_labels": NUM_EMOTIONS,
    "max_len": 50,
    "min_count": 1,
}
# Largest max_len read: every row is padded to max_len, while a 280-character
# tweet yields at most 280 tokens.
MAX_LEN_CEILING = 10_000
_FIELD_TYPES = {f.name: type(f.default) for f in fields(TrainingConfig)}


def read_settings(text: str, source, error: type[Exception], keys=None) -> dict:
    """The ``key=value`` lines of ``text``, typed: a TrainingConfig field takes
    its default's type and is range-checked by constructing a TrainingConfig,
    a key of SIZE_DEFAULTS is an integer >= 1, max_len is at most
    MAX_LEN_CEILING, and any other key keeps its text. Empty lines
    and lines starting with ``#`` are skipped. Given ``keys``, a key outside
    them is an error; so is a key set twice. Errors raise ``error`` naming
    ``source`` and show a long key or value only by its first SHOWN_CHARS
    characters."""
    settings, line_of = {}, {}
    for lineno, line in enumerate(split_lines(text), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if keys is not None and (not sep or key not in keys):
            raise error(f"{source}: line {lineno}: unknown config key {_shown(key, quote=True)}")
        if key in line_of:
            first = line_of[key]
            raise error(f"{source}: line {lineno}: config key {_shown(key, quote=True)} already set on line {first}")
        line_of[key] = lineno
        kind = int if key in SIZE_DEFAULTS else _FIELD_TYPES.get(key, str)
        try:
            settings[key] = kind(value)
        except ValueError:
            raise error(f"{source}: {key}={_shown(value, quote=True)} is not a valid {kind.__name__}") from None
        if key in SIZE_DEFAULTS and settings[key] < 1:
            raise error(f"{source}: {key}={_shown(value)} must be >= 1")
        if key == "max_len" and settings[key] > MAX_LEN_CEILING:
            raise error(f"{source}: max_len={_shown(value)} must be <= {MAX_LEN_CEILING}")
    try:
        TrainingConfig(**{key: value for key, value in settings.items() if key in _FIELD_TYPES})
    except ConfigError as exc:
        raise error(f"{source}: {exc}") from None
    return settings


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
    """coeff * sum of squared entries over trainable weight matrices, as one
    tape op whose rule adds 2 * coeff * w to the gradient of each matrix w."""
    if coeff < 0:
        raise ValueError("l2 coefficient must be >= 0")
    if coeff == 0.0:
        return Tensor(0.0)
    weights = params.weight_matrices()
    # a diverging run's weights square to inf; train() reports the loss
    with np.errstate(over="ignore"):
        out = Tensor(sum(float((w.data * w.data).sum()) for w in weights) * coeff)

    def bwd():
        g = out.grad
        if g is None:
            return
        c = 2.0 * (float(g) * coeff)
        for w in weights:
            ad.accumulate_grad(w, c * w.data)

    ad.record(bwd, out)
    return out


def perturb_hidden_weights(params: ModelParams, sigma: float, rng) -> list[tuple[np.ndarray, ...]] | None:
    """One step's N(0, sigma^2) noise on the GRU hidden weights, or None when
    sigma is 0: per direction in field order, the (H, H) noise of W_hr, W_hz
    and W_hn, drawn in that order. ``bigru_layer`` adds each gate's noise to
    its clean weight, so the gradients of the noisy forward land on the clean
    weights; the draw records nothing on the tape and the noise is never
    stored. Eval always uses the clean params.
    """
    if sigma == 0.0:
        return None
    H = params.config.hidden
    return [tuple(rng.normal(0.0, sigma, size=(H, H)) for _ in "rzn") for _ in range(4)]  # 4 GRU directions


# Adam's moment decay rates and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment buffers mirroring the trainable parameters."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        return cls(
            m=[np.zeros_like(p.data) for p in params],
            v=[np.zeros_like(p.data) for p in params],
        )


def adam_step(params: list[Tensor], state: AdamState, lr: float):
    """One Adam update in place, reading each parameter's grad buffer. A
    moment that overflows is left infinite, for train() to report."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    with np.errstate(over="ignore"):
        for i, p in enumerate(params):
            g = p.grad
            state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
            state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
            m_hat = state.m[i] / (1.0 - b1**state.t)
            v_hat = state.v[i] / (1.0 - b2**state.t)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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

    def to_tsv(self) -> str:
        lines = ["epoch\ttrain_loss\tval_loss\tlr\telapsed_seconds"]
        for r in self.epochs:
            lines.append(
                f"{r.epoch}\t{r.train_loss:.10g}\t{r.val_loss:.10g}"
                f"\t{r.lr:.10g}\t{r.elapsed_seconds:.3f}"
            )
        return "\n".join(lines) + "\n"


def _snapshot(params: ModelParams) -> dict[str, np.ndarray]:
    """Copies of the trainable tensors; the frozen embedding never changes."""
    return {name: t.data.copy() for name, t in params.trainable_parameters()}


def _restore(params: ModelParams, snap: dict[str, np.ndarray]):
    for name, t in params.trainable_parameters():
        t.data[...] = snap[name]


def _digest(a: np.ndarray) -> bytes:
    """SHA-256 of an array's bytes; unlike a copy, it holds no memory."""
    return hashlib.sha256(np.ascontiguousarray(a).data).digest()


def _keep_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray | None:
    """A dropout keep mask, drawn only when the rate is above 0."""
    return dropout_mask(shape, p, rng) if p > 0.0 else None


def batch_loss(
    params: ModelParams, indices: np.ndarray, mask: np.ndarray, labels: np.ndarray, config: TrainingConfig,
    noise_rng, spatial_rng, dropout_rng, ws: Workspace | None = None,
) -> Tensor:
    """The train-mode loss of one batch, on the active tape: the hidden-weight
    noise, then the spatial and dense dropout masks, each drawn from its own
    stream; the forward with all three; weighted BCE plus L2 on the clean
    weights."""
    batch, shapes = len(indices), params.config
    noise = perturb_hidden_weights(params, config.weight_noise_std, noise_rng)
    # the draws are passed straight in, so they are freed with the forward
    yhat, _, _ = forward(
        indices, mask, params,
        _keep_mask((batch, shapes.d_emb), config.spatial_dropout, spatial_rng),
        _keep_mask((batch, shapes.d_v), config.dropout_dense, dropout_rng),
        ws,
        noise,
    )
    return ad.add_scalars([weighted_bce(yhat, labels, config.pos_weight), l2_penalty(params, config.l2_coeff)])


def evaluate_loss(dataset: Dataset, params: ModelParams, config: TrainingConfig) -> float:
    """Eval-mode weighted BCE over a dataset (no L2, no regularizer noise)."""
    idx, msk = dataset.arrays()
    yhat = predict_scores(idx, msk, params, config.batch_size)
    return float(weighted_bce(Tensor(yhat), dataset.label_matrix(), config.pos_weight).data)


def train(
    train_set: Dataset,
    dev_set: Dataset,
    config: TrainingConfig,
    params: ModelParams,
    log_path=None,
) -> tuple[ModelParams, TrainingLog]:
    """Full training loop; returns params restored to the best-epoch snapshot.

    Each epoch ends with one dev evaluation. A dev loss strictly below the
    best so far makes the epoch the best one; any other counts as a failure,
    and ``lr_halve_patience`` failures in a row halve the rate (never below
    ``lr_floor``) and restart the count. Training stops once
    ``early_stop_patience`` epochs have passed since the best one.

    Deterministic given (config.seed, data): shuffling, dropout, and weight
    noise each draw from their own seeded stream.
    """
    if len(train_set) == 0 or len(dev_set) == 0:
        raise ValueError("train and dev sets must be non-empty")

    idx, msk = train_set.arrays()
    lab = train_set.label_matrix()
    n = len(train_set)
    embedding_before = _digest(params.embedding.data)

    trainable = [t for _, t in params.trainable_parameters()]
    state = AdamState.for_params(trainable)
    shuffle_rng = stream_rng(config.seed, STREAM_SHUFFLE)
    dropout_rng = stream_rng(config.seed, STREAM_DROPOUT)
    spatial_rng = stream_rng(config.seed, STREAM_SPATIAL)
    noise_rng = stream_rng(config.seed, STREAM_NOISE)

    def run_epoch(epoch: int, lr: float) -> float:
        """One shuffled pass of optimizer steps; returns the mean training loss.

        The steps share one BiGRU workspace. It is freed when the pass
        returns, so it does not stay alive through the dev evaluation.
        """
        ws = Workspace()
        order = shuffle_rng.permutation(n)
        total = 0.0
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            sel = order[start : start + config.batch_size]
            for t in trainable:
                t.zero_grad()
            with ad.Tape() as tape:
                loss = batch_loss(params, idx[sel], msk[sel], lab[sel], config, noise_rng, spatial_rng, dropout_rng, ws)
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise TrainingDivergedError(
                    f"training diverged: non-finite loss at epoch {epoch}, batch {batch_no}, lr={lr:g}"
                )
            ad.backward(loss, tape)
            adam_step(trainable, state, lr)
            total += loss_val * len(sel)
        return total / n

    log = TrainingLog()
    lr = config.lr_init
    best_snapshot = _snapshot(params)
    failures = 0
    t0 = time.monotonic()

    for epoch in range(1, config.max_epochs + 1):
        epoch_loss = run_epoch(epoch, lr)
        # an infinite second moment freezes its weights at every later step
        if not all(np.isfinite(v).all() for v in state.v):
            raise TrainingDivergedError(f"training diverged: non-finite Adam second moment at epoch {epoch}, lr={lr:g}")
        val_loss = evaluate_loss(dev_set, params, config)
        log.epochs.append(
            EpochRecord(epoch, epoch_loss, val_loss, lr, time.monotonic() - t0)
        )
        if val_loss < log.best_val_loss:
            log.best_val_loss = val_loss
            log.best_epoch = epoch
            best_snapshot = _snapshot(params)
            failures = 0
        else:
            failures += 1
            if failures == config.lr_halve_patience:
                lr, failures = max(lr / 2.0, config.lr_floor), 0
        if epoch - log.best_epoch >= config.early_stop_patience:
            break

    _restore(params, best_snapshot)
    if _digest(params.embedding.data) != embedding_before:
        raise AssertionError("frozen embedding was modified during training")
    if log_path is not None:
        write_file(log_path, log.to_tsv().encode("utf-8"))
    return params, log
