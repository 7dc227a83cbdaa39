import struct

import numpy as np
import pytest

from panemo.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from panemo.cli import main
from panemo.errors import CheckpointError
from panemo.textprep import build_vocabulary
from panemo.training import TrainingConfig
from panemo.verify import build_downsized


@pytest.fixture
def setup(tmp_path):
    params = build_downsized(seed=0)
    vocab = build_vocabulary([[f"tok{i}" for i in range(18)]])
    config = TrainingConfig(seed=0)
    path = tmp_path / "model.ckpt"
    return params, vocab, config, path


def test_roundtrip_bitwise(setup):
    params, vocab, config, path = setup
    save_checkpoint(params, vocab, config, 0.123, path, extra_config={"max_len": 5})
    loaded, vocab2, cfg2, best = load_checkpoint(path)
    assert best == 0.123
    assert vocab2.tokens == vocab.tokens
    assert cfg2["max_len"] == 5
    assert cfg2["batch_size"] == 64
    for (n1, t1), (n2, t2) in zip(params.named_parameters(), loaded.named_parameters()):
        assert n1 == n2
        assert t1.data.tobytes() == t2.data.tobytes()
        assert t1.trainable == t2.trainable


def test_two_saves_byte_identical(setup):
    params, vocab, config, path = setup
    save_checkpoint(params, vocab, config, 0.5, path)
    first = path.read_bytes()
    save_checkpoint(params, vocab, config, 0.5, path)
    assert path.read_bytes() == first


def test_save_load_save_byte_identical(setup):
    params, vocab, config, path = setup
    save_checkpoint(params, vocab, config, 0.5, path, extra_config={"max_len": 5})
    first = path.read_bytes()
    loaded, vocab2, cfg2, best = load_checkpoint(path)
    tcfg = TrainingConfig(
        **{k: cfg2[k] for k in TrainingConfig.__dataclass_fields__ if k in cfg2}
    )
    save_checkpoint(loaded, vocab2, tcfg, best, path, extra_config={"max_len": cfg2["max_len"]})
    assert path.read_bytes() == first


def test_bad_magic(setup, tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_file_no_partial_model(setup):
    params, vocab, config, path = setup
    save_checkpoint(params, vocab, config, 0.5, path)
    data = path.read_bytes()
    for cut in (len(MAGIC) + 2, len(data) // 2, len(data) - 3):
        path.write_bytes(data[:cut])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)


def test_missing_record_named(setup):
    params, vocab, config, path = setup
    save_checkpoint(params, vocab, config, 0.5, path)
    data = bytearray(path.read_bytes())
    # rename the first record so a required name goes missing
    idx = data.find(b"embedding")
    data[idx : idx + 9] = b"embeddinX"
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="embedding"):
        load_checkpoint(path)


def test_loaded_parameters_are_separate_aligned_arrays(setup):
    """Each record is copied into its own array: a read-only or unaligned view
    of the file would push matmul off BLAS, and a shared buffer would alias
    two parameters."""
    params, vocab, config, path = setup
    save_checkpoint(params, vocab, config, 0.5, path)
    arrays = [t.data for _, t in load_checkpoint(path)[0].named_parameters()]
    for a in arrays:
        assert a.dtype == np.float64
        assert a.flags.c_contiguous and a.flags.aligned and a.flags.writeable
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])


def test_truncated_or_oversized_record_exits_1(setup, capsys):
    params, vocab, config, path = setup
    save_checkpoint(params, vocab, config, 0.5, path, extra_config={"max_len": 5})
    data = path.read_bytes()
    name = b"dense.b_d"
    head = name + struct.pack("<IQ", 1, params.b_d.data.size)
    values_at = data.index(head) + len(head)
    for mutant in (
        data[: values_at + 12],  # cut inside the record's values
        data.replace(head, name + struct.pack("<IQ", 1, 10**6)),  # dims past the end of the file
    ):
        path.write_bytes(mutant)
        assert main(["evaluate", "--checkpoint", str(path), "--data", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: truncated while reading values of dense.b_d\n"
