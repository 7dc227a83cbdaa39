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

Two saves of equal content are byte-identical. A save replaces the file
whole (``textprep.write_file``), so an interrupted one keeps the old file.
"""

from __future__ import annotations

import math
import struct
from dataclasses import fields

import numpy as np

from .errors import CheckpointError
from .model import ModelConfig, ModelParams, param_layout, params_from_arrays
from .textprep import NUM_EMOTIONS, Vocabulary, write_file
from .training import TrainingConfig, read_settings

MAGIC = b"PANCKPT1"

# sanity bound: no tensor in this model has a dimension anywhere near this
_MAX_DIM = 1 << 32

# config keys that fix the model's tensor shapes; n_labels, the head's width,
# is fixed by the data format, so any value but NUM_EMOTIONS is rejected
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
        f"n_labels={NUM_EMOTIONS}",
    ]
    for key, val in sorted((extra_config or {}).items()):
        config_lines.append(f"{key}={val!r}")
    _write_block(out, "\n".join(config_lines).encode("utf-8"))

    out += struct.pack("<d", best_val_loss)
    write_file(path, out)


class _Reader:
    def __init__(self, data: bytes, context: str):
        self.data = memoryview(data)  # slices are views; a record's values are copied once, by astype
        self.pos = 0
        self.context = context

    def take(self, n: int, what: str) -> memoryview:
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
            return str(self.take(n, what), "utf-8")
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
        count = math.prod(dims)  # exact, so an oversized record reads as truncated
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

    config = read_settings(config_block, path, CheckpointError)
    for key in _MODEL_KEYS:
        if key not in config:
            raise CheckpointError(f"{path}: config is missing key {key!r}")
    if config["n_labels"] != NUM_EMOTIONS:
        raise CheckpointError(f"{path}: n_labels={config['n_labels']} is not {NUM_EMOTIONS}, the number of emotions")
    model_config = ModelConfig(d_emb=config["d_emb"], hidden=config["hidden"])
    embedding = tensors.get("embedding")
    if embedding is not None and embedding.shape[:1] != (len(vocab),):
        raise CheckpointError(
            f"{path}: vocabulary has {len(vocab)} tokens but record embedding has shape {embedding.shape}"
        )
    arrays = {}
    for name, shape in param_layout(model_config, len(vocab)).items():
        if name not in tensors:
            raise CheckpointError(f"{path}: missing record {name}")
        values = tensors.pop(name)
        if values.shape != shape:
            raise CheckpointError(f"{path}: record {name} has shape {values.shape}, expected {shape}")
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: record {name} has a non-finite value")
        arrays[name] = values
    if tensors:
        raise CheckpointError(f"{path}: unexpected records {sorted(tensors)}")
    return params_from_arrays(arrays, model_config), vocab, config, best_val_loss
