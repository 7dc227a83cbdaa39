"""Binary checkpoint container for model parameters, vocabulary, and config.

Layout (all integers little-endian):

    magic: 8 bytes "PANCKPT1"
    u32 record count
    per record, in canonical parameter order:
        u32 name length, UTF-8 name
        u32 rank, u64 per dimension
        float64 values (row-major)
    u32 vocabulary block length, UTF-8 tokens joined by "\\n" (index order)
    u32 config block length, UTF-8 "key=value" lines
    float64 best validation loss

Two saves of equal content are byte-identical.
"""

from __future__ import annotations

import ast
import struct
from dataclasses import fields

import numpy as np

from .errors import CheckpointError
from .model import (
    AttentionParams,
    GruDirectionParams,
    ModelConfig,
    ModelParams,
)
from .autodiff import Tensor
from .textprep import Vocabulary
from .training import TrainingConfig

MAGIC = b"PANCKPT1"

# sanity bound: no tensor in this model has a dimension anywhere near this
_MAX_DIM = 1 << 32

# config keys that fix the model's tensor shapes
_MODEL_KEYS = ("d_emb", "hidden", "n_labels")


def _write_block(out: bytearray, payload: bytes):
    out += struct.pack("<I", len(payload))
    out += payload


def save_checkpoint(
    params: ModelParams,
    vocab: Vocabulary,
    train_config: TrainingConfig,
    best_val_loss: float,
    path,
    extra_config: dict | None = None,
):
    records = params.named_parameters()
    out = bytearray(MAGIC)
    out += struct.pack("<I", len(records))
    for name, tensor in records:
        name_bytes = name.encode("utf-8")
        out += struct.pack("<I", len(name_bytes))
        out += name_bytes
        out += struct.pack("<I", tensor.data.ndim)
        for dim in tensor.data.shape:
            out += struct.pack("<Q", dim)
        out += np.ascontiguousarray(tensor.data, dtype="<f8").tobytes()

    _write_block(out, "\n".join(vocab.tokens).encode("utf-8"))

    config_lines = [f"{f.name}={getattr(train_config, f.name)!r}" for f in fields(TrainingConfig)]
    config_lines += [
        f"d_emb={params.config.d_emb}",
        f"hidden={params.config.hidden}",
        f"n_labels={params.config.n_labels}",
    ]
    for key, val in sorted((extra_config or {}).items()):
        config_lines.append(f"{key}={val!r}")
    _write_block(out, "\n".join(config_lines).encode("utf-8"))

    out += struct.pack("<d", best_val_loss)
    with open(path, "wb") as fh:
        fh.write(bytes(out))


class _Reader:
    def __init__(self, data: bytes, context: str):
        self.data = data
        self.pos = 0
        self.context = context

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError(f"{self.context}: truncated while reading {what}")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def text(self, n: int, what: str) -> str:
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{self.context}: {what} is not UTF-8") from None


def load_checkpoint(path):
    """Load a checkpoint; returns (ModelParams, Vocabulary, config dict, best_val_loss)."""
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data, str(path))
    if r.take(len(MAGIC), "magic") != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")

    n_records = r.u32("record count")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_records):
        name_len = r.u32("record name length")
        name = r.text(name_len, "record name")
        rank = r.u32(f"rank of {name}")
        dims = []
        for d in range(rank):
            dim = r.u64(f"dim {d} of {name}")
            if dim == 0 or dim > _MAX_DIM:
                raise CheckpointError(f"{path}: record {name} has invalid dim {dim}")
            dims.append(dim)
        count = int(np.prod(dims)) if dims else 1
        raw = r.take(count * 8, f"values of {name}")
        values = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)
        if name in tensors:
            raise CheckpointError(f"{path}: duplicate record {name}")
        tensors[name] = values

    vocab_block = r.text(r.u32("vocabulary length"), "vocabulary")
    config_block = r.text(r.u32("config length"), "config")
    best_val_loss = struct.unpack("<d", r.take(8, "best validation loss"))[0]

    tokens = vocab_block.split("\n")
    vocab = Vocabulary(tokens[2:])  # PAD and UNK are re-added by the constructor

    config: dict[str, object] = {}
    for line in config_block.splitlines():
        key, _, val = line.partition("=")
        config[key] = _parse_value(val)

    sizes = {}
    for key in _MODEL_KEYS:
        if key not in config:
            raise CheckpointError(f"{path}: config is missing key {key!r}")
        value = config[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise CheckpointError(f"{path}: config key {key}={value!r} is not a positive integer")
        sizes[key] = value
    model_config = ModelConfig(**sizes)
    embedding = tensors.get("embedding")
    if embedding is not None and embedding.shape[:1] != (len(vocab),):
        raise CheckpointError(
            f"{path}: vocabulary has {len(vocab)} tokens but record embedding has shape {embedding.shape}"
        )
    params = _rebuild_params(tensors, model_config, len(vocab), str(path))
    return params, vocab, config, best_val_loss


def _parse_value(text: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _expected_shapes(config: ModelConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """The shape of every record of a model of ``config``."""
    h = config.hidden
    shapes = {"embedding": (vocab_size, config.d_emb)}
    for layer, d_in in (("gru1", config.d_emb), ("gru2", config.d_h)):
        for direction in ("fwd", "bwd"):
            for gate in "rzn":
                prefix = f"{layer}.{direction}"
                shapes[f"{prefix}.W_i{gate}"] = (d_in, h)
                shapes[f"{prefix}.W_h{gate}"] = (h, h)
                shapes[f"{prefix}.b_i{gate}"] = (h,)
                shapes[f"{prefix}.b_h{gate}"] = (h,)
    shapes.update({
        "attn1.w_a": (config.d_u1, 1),
        "attn1.b": (1,),
        "attn2.w_a": (config.d_u2, 1),
        "attn2.b": (1,),
        "dense.W_d": (config.d_v, config.n_labels),
        "dense.b_d": (config.n_labels,),
    })
    return shapes


def _rebuild_params(tensors, config: ModelConfig, vocab_size: int, context: str) -> ModelParams:
    shapes = _expected_shapes(config, vocab_size)

    def get(name: str, trainable=True) -> Tensor:
        if name not in tensors:
            raise CheckpointError(f"{context}: missing record {name}")
        values = tensors.pop(name)
        if values.shape != shapes[name]:
            raise CheckpointError(
                f"{context}: record {name} has shape {values.shape}, expected {shapes[name]}"
            )
        if not np.isfinite(values).all():
            raise CheckpointError(f"{context}: record {name} has a non-finite value")
        return Tensor(values, trainable=trainable)

    def gru(prefix: str) -> GruDirectionParams:
        names = [f.name for f in fields(GruDirectionParams)]
        return GruDirectionParams(**{n: get(f"{prefix}.{n}") for n in names})

    params = ModelParams(
        embedding=get("embedding", trainable=False),
        gru1_fwd=gru("gru1.fwd"),
        gru1_bwd=gru("gru1.bwd"),
        gru2_fwd=gru("gru2.fwd"),
        gru2_bwd=gru("gru2.bwd"),
        attn1=AttentionParams(w_a=get("attn1.w_a"), b=get("attn1.b")),
        attn2=AttentionParams(w_a=get("attn2.w_a"), b=get("attn2.b")),
        W_d=get("dense.W_d"),
        b_d=get("dense.b_d"),
        config=config,
    )
    if tensors:
        raise CheckpointError(f"{context}: unexpected records {sorted(tensors)}")
    return params
