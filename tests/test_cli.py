import io
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from panemo import cli, textprep
from panemo.autodiff import Tensor
from panemo.checkpoint import MAGIC, save_checkpoint
from panemo.cli import _PATH_KEYS, _load_for_inference, load_run_config, main
from panemo.errors import ConfigError
from panemo.textprep import EMOTIONS, Vocabulary
from panemo.model import ModelConfig
from panemo.training import SHOWN_CHARS, SIZE_DEFAULTS, TrainingConfig
from panemo.verify import build_downsized


SRC = Path(__file__).resolve().parents[1] / "src"
WORDS = ["happy", "angry", "sad", "calm", "wow", "meh", "yay", "ugh"]


def write_tsv(path, n_rows, seed):
    rng = np.random.default_rng(seed)
    header = "ID\tTweet\t" + "\t".join(EMOTIONS)
    rows = []
    for i in range(n_rows):
        words = rng.choice(WORDS, size=4)
        labels = rng.integers(0, 2, 11)
        rows.append(f"t-{i}\t{' '.join(words)}\t" + "\t".join(map(str, labels)))
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


@pytest.fixture
def workspace(tmp_path):
    train_tsv = tmp_path / "train.tsv"
    dev_tsv = tmp_path / "dev.tsv"
    write_tsv(train_tsv, 12, seed=0)
    write_tsv(dev_tsv, 6, seed=1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"train_path={train_tsv}\n"
        f"dev_path={dev_tsv}\n"
        f"checkpoint_path={tmp_path / 'best.ckpt'}\n"
        f"log_path={tmp_path / 'log.tsv'}\n"
        "d_emb=8\nhidden=4\nmax_len=6\n"
        "batch_size=4\nmax_epochs=2\nseed=3\n"
    )
    return tmp_path


def set_config(workspace, lines: str):
    """Append the ``key=value`` ``lines`` to the workspace's run config,
    first dropping its line of each key they set."""
    cfg = workspace / "run.cfg"
    keys = {line.partition("=")[0] for line in lines.splitlines()}
    kept = [line for line in cfg.read_text().splitlines(keepends=True) if line.partition("=")[0] not in keys]
    cfg.write_text("".join(kept) + lines)


def test_train_evaluate_predict_pipeline(workspace, capsys):
    assert main(["train", "--config", str(workspace / "run.cfg")]) == 0
    out = capsys.readouterr().out
    assert "checkpoint written" in out
    assert (workspace / "best.ckpt").exists()
    log_lines = (workspace / "log.tsv").read_text().splitlines()
    assert log_lines[0].split("\t") == ["epoch", "train_loss", "val_loss", "lr", "elapsed_seconds"]

    assert main([
        "evaluate", "--checkpoint", str(workspace / "best.ckpt"),
        "--data", str(workspace / "dev.tsv"),
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Jaccard\t")
    assert "Micro\t" in out and "Macro\t" in out
    for emotion in EMOTIONS:
        assert emotion in out

    tweets = workspace / "tweets.txt"
    tweets.write_text("The best revenge is massive success.\n")
    assert main([
        "predict", "--checkpoint", str(workspace / "best.ckpt"), "--input", str(tweets),
    ]) == 0
    out = capsys.readouterr().out
    scores = [float(part.split("=")[1]) for part in out.strip().split("\t")[2].split(" ")]
    assert len(scores) == 11
    assert all(0.0 < s < 1.0 for s in scores)


def stdin_bytes(monkeypatch, data: bytes):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))


def test_predict_batch_matches_line_by_line(workspace, capsys, monkeypatch):
    assert main(["train", "--config", str(workspace / "run.cfg")]) == 0
    capsys.readouterr()
    lines = ["happy happy wow", "", "ugh angry sad meh calm yay happy", "   ", "calm"]
    tweets = workspace / "tweets.txt"
    tweets.write_text("\n".join(lines) + "\n")
    ckpt = str(workspace / "best.ckpt")
    assert main(["predict", "--checkpoint", ckpt, "--input", str(tweets)]) == 0
    batched = capsys.readouterr().out
    stdin_bytes(monkeypatch, tweets.read_bytes())
    assert main(["predict", "--checkpoint", ckpt]) == 0
    assert capsys.readouterr().out == batched
    single = []
    for line in (line for line in lines if line.strip()):
        tweets.write_text(line + "\n")
        assert main(["predict", "--checkpoint", ckpt, "--input", str(tweets)]) == 0
        single.append(capsys.readouterr().out)
    assert batched == "".join(single)
    assert [row.split("\t")[0] for row in batched.splitlines()] == [l for l in lines if l.strip()]


def test_evaluate_reproduces_training_val_loss(workspace, capsys):
    # pipeline consistency: metrics recomputed from the checkpoint are stable
    main(["train", "--config", str(workspace / "run.cfg")])
    capsys.readouterr()
    main(["evaluate", "--checkpoint", str(workspace / "best.ckpt"), "--data", str(workspace / "dev.tsv")])
    first = capsys.readouterr().out
    main(["evaluate", "--checkpoint", str(workspace / "best.ckpt"), "--data", str(workspace / "dev.tsv")])
    assert capsys.readouterr().out == first


def test_gradcheck_deterministic(capsys):
    assert main(["gradcheck", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gradcheck", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("max relative error:")


def test_gradcheck_train_mode(capsys):
    assert main(["gradcheck", "--train-mode", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("max relative error:")
    assert float(out.split(":")[1]) < 1e-4


def test_selftest_quick(capsys):
    assert main(["selftest", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 9


@pytest.mark.parametrize(
    "argv, message",
    [
        (["predict", "--chekpoint", "x"], "the following arguments are required: --checkpoint"),
        ([], "the following arguments are required: command"),
        (["gradcheck", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["gradcheck", "--eps", "1e-4"], "unrecognized arguments: --eps 1e-4"),
    ],
    ids=["misspelt option", "no command", "non-integer seed", "no eps option"],
)
def test_usage_error_is_user_error(capsys, argv, message):
    """argparse's usage line, then one error line, and exit status 1."""
    assert main(argv) == 1
    usage, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: panemo")
    assert error == f"error: {message}"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: panemo")


def test_same_bits_cli_case_matches_fixture(workspace, tmp_path, monkeypatch):
    """The "cli" case of ``tools/same_bits.py`` is the workspace of this
    file: the same TSV bytes and model and training lines. All four of its
    cases build their inputs."""
    # sys.path is restored at teardown, with the paths same_bits prepends on import
    monkeypatch.syspath_prepend(str(SRC.parent / "tools"))
    import same_bits

    for n_rows, seed in [(12, 0), (6, 1)]:
        write_tsv(tmp_path / "fixture.tsv", n_rows, seed)
        same_bits.write_cli_tsv(tmp_path / "tool.tsv", n_rows, seed)
        assert (tmp_path / "tool.tsv").read_bytes() == (tmp_path / "fixture.tsv").read_bytes()
    fixture = [line for line in (workspace / "run.cfg").read_text().splitlines() if "_path=" not in line]
    assert same_bits.CLI_CONFIG.splitlines() == fixture

    (tmp_path / "inputs").mkdir()
    cases = same_bits.make_cases(tmp_path / "inputs")
    assert sorted(cases) == sorted(["cli", *same_bits.worker.WORKLOADS])
    for case in cases.values():
        assert all(case[key].is_file() for key in ("config", "data", "lines", "stdin"))
        run = load_run_config(case["config"])
        assert all(Path(run[key]).is_file() for key in _PATH_KEYS if key in run)


def test_same_bits_prints_changed_lines(monkeypatch):
    """A differing UTF-8 output shows its removed and added lines, at most
    DIFF_LINES of them; an output that is not UTF-8 shows none."""
    monkeypatch.syspath_prepend(str(SRC.parent / "tools"))
    import same_bits

    want = b"exit 0\n--- stdout\nPASS  a: 1\nPASS  b: 2\nPASS  c: 3\n"
    got = b"exit 0\n--- stdout\nPASS  a: 1\nPASS  c: 4\n"
    assert same_bits.changed_lines(want, got) == ["- PASS  b: 2", "- PASS  c: 3", "+ PASS  c: 4"]
    many = "".join(f"{i}\n" for i in range(100)).encode()
    assert len(same_bits.changed_lines(many, b"")) == same_bits.DIFF_LINES
    assert same_bits.changed_lines(b"PANCKPT1\x00\xff\n", b"PANCKPT1\x00\xfe\n") == []


def test_same_bits_hides_temporary_root(monkeypatch):
    """Every mention of the random temporary root reads ``<tmp>``, so two runs
    hash and print the same outputs."""
    monkeypatch.syspath_prepend(str(SRC.parent / "tools"))
    import same_bits

    got = {"train": b"test set at best epoch 2: /work/same_bits-x1y2/inputs/t/test.tsv\n", "ckpt": b"\x00\xff"}
    assert same_bits.without_tmp(got, Path("/work/same_bits-x1y2")) == {
        "train": b"test set at best epoch 2: <tmp>/inputs/t/test.tsv\n",
        "ckpt": b"\x00\xff",
    }


def test_byte_order_mark_is_not_text(workspace, capsys, monkeypatch):
    """A run config, predict input or stdin that starts with a UTF-8
    byte-order mark reads as the same text without it."""
    config, ckpt = workspace / "run.cfg", workspace / "best.ckpt"
    assert main(["train", "--config", str(config)]) == 0
    plain_ckpt = ckpt.read_bytes()
    config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
    assert main(["train", "--config", str(config)]) == 0
    assert ckpt.read_bytes() == plain_ckpt
    tweets, marked = workspace / "tweets.txt", workspace / "marked.txt"
    tweets.write_text("I love it\nsad ugh\n")
    marked.write_bytes(b"\xef\xbb\xbf" + tweets.read_bytes())
    capsys.readouterr()
    assert main(["predict", "--checkpoint", str(ckpt), "--input", str(tweets)]) == 0
    plain = capsys.readouterr().out
    assert main(["predict", "--checkpoint", str(ckpt), "--input", str(marked)]) == 0
    assert capsys.readouterr().out == plain
    stdin_bytes(monkeypatch, marked.read_bytes())
    assert main(["predict", "--checkpoint", str(ckpt)]) == 0
    assert capsys.readouterr().out == plain


def test_predict_keeps_unicode_line_boundaries_in_their_line(workspace, capsys):
    """One output row per input line: U+2028 and U+0085 do not end a line."""
    assert main(["train", "--config", str(workspace / "run.cfg")]) == 0
    capsys.readouterr()
    lines = ["happy\u2028wow", "sad\x85ugh meh"]
    tweets = workspace / "tweets.txt"
    tweets.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["predict", "--checkpoint", str(workspace / "best.ckpt"), "--input", str(tweets)]) == 0
    rows = capsys.readouterr().out.split("\n")
    assert rows.pop() == "" and len(rows) == len(lines)
    for row, line in zip(rows, lines):
        assert row.startswith(line + "\t")


EMPTY_TWEET_ROW = "t-9\t   \t" + "\t".join(["0"] * 11) + "\n"


@pytest.mark.parametrize(
    "config_line, dev_row, message",
    [
        ("seed=abc\n", "", "seed"),
        ("dropout_dense=1.5\n", "", "dropout_dense"),
        ("", EMPTY_TWEET_ROW, "row 8 has an empty tweet"),
        ("batch_size=0\n", "", "batch_size=0"),
        ("seed=-1\n", "", "seed=-1"),
        ("l2_coeff=-1\n", "", "l2_coeff=-1"),
        ("weight_noise_std=-1\n", "", "weight_noise_std=-1"),
        ("lr_init=nan\n", "", "lr_init=nan"),
        ("lr_init=inf\n", "", "lr_init=inf"),
        ("pos_weight=-3\n", "", "pos_weight=-3"),
        ("threshold=7\n", "", "threshold=7"),
        ("max_epochs=0\n", "", "max_epochs=0"),
        ("max_len=1000000000000\n", "", "max_len=1000000000000 must be <= 10000"),
        ("d_emb=1000000000000000\n", "", "Unable to allocate"),
        pytest.param(
            "seed=" + "7" * 100_000 + "\n", "", f"seed='{'7' * SHOWN_CHARS}'... (100000 characters) is not a valid int",
            id="seed of 100000 digits",
        ),
        pytest.param(
            "seed=-" + "7" * 1000 + "\n", "", f"seed=-{'7' * (SHOWN_CHARS - 1)}... (1001 characters) must be finite",
            id="seed of -1000 digits",
        ),
        ("log_path=/nonexistent/panemo/log.tsv\n", "", "log_path"),
        ("checkpoint_path=/nonexistent/panemo/best.ckpt\n", "", "checkpoint_path"),
        ("test_path=/nonexistent/panemo/test.tsv\n", "", "test TSV not found: /nonexistent/panemo/test.tsv"),
        ("lr_init=1e300\n", "", "training diverged: non-finite loss at epoch 1, batch 1, lr=1e+300"),
        ("l2_coeff=1e300\n", "", "training diverged: non-finite Adam second moment at epoch 1, lr=0.001"),
        ("pos_weight=1e300\n", "", "training diverged: non-finite Adam second moment at epoch 1, lr=0.001"),
        ("dev_path={ws}/empty.tsv\n", "", "empty.tsv: empty file, expected a header row"),
        pytest.param(
            "seed=3\nseed=4\n", "", "run.cfg: line 11: config key 'seed' already set on line 10", id="repeated key"
        ),
    ],
)
def test_bad_input_is_user_error(workspace, capsys, config_line, dev_row, message):
    """Each exits 1 with one error line on stderr and no numpy warning; a
    diverging run's overflow is reported only as the divergence."""
    (workspace / "empty.tsv").touch()
    set_config(workspace, config_line.format(ws=workspace))
    with open(workspace / "dev.tsv", "a") as fh:
        fh.write(dev_row)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["train", "--config", str(workspace / "run.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and err.count("\n") == 1
    assert len(err) < len(str(workspace)) + 200
    assert not (workspace / "best.ckpt").exists()
    assert not (workspace / "log.tsv").exists()


@pytest.mark.parametrize(
    "config_line, message",
    [
        ("log_path={ws}\n", "log_path={ws}: is a directory"),
        ("checkpoint_path={ws}/dev.tsv\n", "checkpoint_path={ws}/dev.tsv: is the same file as dev_path"),
        ("log_path={ws}/best.ckpt\n", "is the same file as log_path"),
        ("checkpoint_path={ws}/run.cfg\n", "checkpoint_path={ws}/run.cfg: is the same file as the run config"),
    ],
    ids=["log is a directory", "checkpoint is the dev TSV", "log is the checkpoint", "checkpoint is the run config"],
)
def test_bad_output_path_is_user_error(workspace, capsys, config_line, message):
    """An output path that is a directory, an input or the other output
    exits 1 with one error line before any data is read, and writes nothing."""
    set_config(workspace, config_line.format(ws=workspace))
    dev = (workspace / "dev.tsv").read_bytes()
    assert main(["train", "--config", str(workspace / "run.cfg")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and message.format(ws=workspace) in err and err.count("\n") == 1
    assert not (workspace / "best.ckpt").exists()
    assert not (workspace / "log.tsv").exists()
    assert (workspace / "dev.tsv").read_bytes() == dev


@pytest.mark.parametrize("tau, labels", [("0", ",".join(EMOTIONS)), ("1", "(none)")], ids=["0", "1"])
def test_threshold_endpoints_exit_0(workspace, capsys, tau, labels):
    """threshold=0 and threshold=1 hold for the test-set report after
    training, for evaluate and for predict alike."""
    set_config(workspace, f"threshold={tau}\ntest_path={workspace / 'dev.tsv'}\n")
    assert main(["train", "--config", str(workspace / "run.cfg")]) == 0
    ckpt = str(workspace / "best.ckpt")
    assert main(["evaluate", "--checkpoint", ckpt, "--data", str(workspace / "dev.tsv")]) == 0
    tweets = workspace / "tweets.txt"
    tweets.write_text("happy wow\n")
    assert main(["predict", "--checkpoint", ckpt, "--input", str(tweets)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].split("\t")[1] == labels and err == ""


def test_saturated_sigmoids_warn_nothing(workspace, capsys):
    """lr_init=1e6 drives gate and head pre-activations far below -709, where
    exp overflows and the sigmoid reads 0: training and evaluation exit 0
    with no numpy RuntimeWarning."""
    set_config(workspace, "lr_init=1e6\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["train", "--config", str(workspace / "run.cfg")]) == 0
        assert main(["evaluate", "--checkpoint", str(workspace / "best.ckpt"), "--data", str(workspace / "dev.tsv")]) == 0
    assert capsys.readouterr().err == ""


def test_train_reports_data_and_test_metrics(workspace, capsys):
    # the added dev tweet has 7 tokens, 2 of them unseen in training: cut at
    # max_len=6, 1 of the 7 dev tweets is truncated and 2 of 30 kept tokens are UNK
    with open(workspace / "dev.tsv", "a") as fh:
        fh.write("t-9\thappy zzz qqq sad calm wow yay\t" + "\t".join(["1"] * 11) + "\n")
    set_config(workspace, f"test_path={workspace / 'dev.tsv'}\n")
    assert main(["train", "--config", str(workspace / "run.cfg")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == [
        "train data: 12 examples, truncation rate 0.000 at max_len=6, UNK rate 0.000",
        "dev data: 7 examples, truncation rate 0.143 at max_len=6, UNK rate 0.067",
    ]
    assert re.fullmatch(r"best epoch \d, validation loss .*", out[2])
    assert re.fullmatch(rf"test set at best epoch \d: {re.escape(str(workspace / 'dev.tsv'))}", out[3])
    trained = out[4:]
    assert [line.split("\t")[0] for line in trained] == ["Jaccard", "Micro", "Macro"]
    assert main(["evaluate", "--checkpoint", str(workspace / "best.ckpt"), "--data", str(workspace / "dev.tsv")]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == trained


def test_header_only_tsv_is_user_error(workspace, capsys):
    header_only = workspace / "header.tsv"
    header_only.write_text("ID\tTweet\t" + "\t".join(EMOTIONS) + "\n")
    set_config(workspace, f"train_path={header_only}\n")
    assert main(["train", "--config", str(workspace / "run.cfg")]) == 1
    assert capsys.readouterr().err == f"error: {header_only}: no data rows after the header\n"

    path = workspace / "model.ckpt"
    save_checkpoint(build_downsized(seed=0), Vocabulary([f"tok{i}" for i in range(18)]), TrainingConfig(), 0.5, path)
    assert main(["evaluate", "--checkpoint", str(path), "--data", str(header_only)]) == 1
    assert capsys.readouterr().err == f"error: {header_only}: no data rows after the header\n"


NOT_UTF8_ROW = "t-9\tcaf\udce9 ok\t" + "\t".join(["0"] * 11) + "\n"  # a Latin-1 byte
TRAIN = ["train", "--config", "{ws}/run.cfg"]


@pytest.mark.parametrize(
    "files, argv, message",
    [
        pytest.param({"run.cfg": "# caf\udce9\n"}, TRAIN, "run.cfg: line 11 is not UTF-8", id="config"),
        pytest.param({"train.tsv": NOT_UTF8_ROW}, TRAIN, "train.tsv: line 14 is not UTF-8", id="train TSV"),
        pytest.param({"dev.tsv": NOT_UTF8_ROW}, TRAIN, "dev.tsv: line 8 is not UTF-8", id="dev TSV"),
        pytest.param(
            {"vectors.txt": "happy" + " 0.5" * 8 + "\ncaf\udce9" + " 0.5" * 8 + "\n",
             "run.cfg": "embeddings_path={ws}/vectors.txt\n"},
            TRAIN,
            "vectors.txt: line 2 is not UTF-8",
            id="embeddings",
        ),
        pytest.param(
            {"dev.tsv": NOT_UTF8_ROW},
            ["evaluate", "--checkpoint", "{ws}/model.ckpt", "--data", "{ws}/dev.tsv"],
            "dev.tsv: line 8 is not UTF-8",
            id="evaluate data",
        ),
        pytest.param(
            {"tweets.txt": "fine\ncaf\udce9\n"},
            ["predict", "--checkpoint", "{ws}/model.ckpt", "--input", "{ws}/tweets.txt"],
            "tweets.txt: line 2 is not UTF-8",
            id="predict input",
        ),
        pytest.param(
            {"<stdin>": "fine\ncaf\udce9 ok\n"},
            ["predict", "--checkpoint", "{ws}/model.ckpt"],
            "<stdin>: line 2 is not UTF-8",
            id="predict stdin",
        ),
        pytest.param({"dir": None}, ["train", "--config", "{ws}/dir"], "Is a directory: '{ws}/dir'", id="config dir"),
        pytest.param(
            {"dir": None},
            ["predict", "--checkpoint", "{ws}/model.ckpt", "--input", "{ws}/dir"],
            "Is a directory: '{ws}/dir'",
            id="predict input dir",
        ),
    ],
)
def test_unreadable_file_is_user_error(workspace, capsys, monkeypatch, files, argv, message):
    """A file or stdin that is not UTF-8, or a directory where a file is read,
    exits 1 naming it."""
    save_checkpoint(
        build_downsized(seed=0), Vocabulary([f"tok{i}" for i in range(18)]), TrainingConfig(), 0.5,
        workspace / "model.ckpt",
    )
    for name, content in files.items():
        if name == "<stdin>":
            stdin_bytes(monkeypatch, content.encode("utf-8", "surrogateescape"))
        elif content is None:
            (workspace / name).mkdir()
        else:  # appended; surrogate escapes are written as the raw bytes they stand for
            with open(workspace / name, "a", encoding="utf-8", errors="surrogateescape") as fh:
                fh.write(content.format(ws=workspace))
    assert main([arg.format(ws=workspace) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message.format(ws=workspace) in err


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("learning_rate=0.1\n")
    with pytest.raises(ConfigError, match="learning_rate"):
        load_run_config(cfg)


def test_defaults_of_run_config_and_checkpoint(tmp_path):
    """A run config of the two required paths takes the model's sizes from
    ModelConfig and the data's from SIZE_DEFAULTS; a checkpoint without
    max_len or threshold falls back to the same max_len and to
    TrainingConfig's threshold."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("train_path=train.tsv\ndev_path=dev.tsv\n")
    run = load_run_config(cfg)
    assert (run["d_emb"], run["hidden"]) == (ModelConfig().d_emb, ModelConfig().hidden)
    assert (run["max_len"], run["min_count"]) == (SIZE_DEFAULTS["max_len"], SIZE_DEFAULTS["min_count"])
    assert TrainingConfig(**{f.name: run[f.name] for f in fields(TrainingConfig)}) == TrainingConfig()

    path = tmp_path / "model.ckpt"
    save_checkpoint(build_downsized(seed=0), Vocabulary([f"tok{i}" for i in range(18)]), TrainingConfig(), 0.5, path)
    path.write_bytes(path.read_bytes().replace(b"\nthreshold=", b"\n#hreshold="))
    _, _, max_len, tau = _load_for_inference(path)
    assert (max_len, tau) == (run["max_len"], TrainingConfig().threshold)


def test_missing_file_is_user_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("train_path=/nonexistent.tsv\ndev_path=/nonexistent.tsv\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_checkpoint_is_user_error(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage!" * 8)
    assert main(["evaluate", "--checkpoint", str(bad), "--data", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.strip().count("\n") == 0


def _wrong_shape(params, tokens, extra):
    params.attn2.w_a = Tensor(np.zeros((7, 1)), trainable=True)


def _non_finite(params, tokens, extra):
    params.W_d.data[0, 0] = np.inf


def _short_vocabulary(params, tokens, extra):
    tokens.pop()


def _five_labels(params, tokens, extra):
    params.W_d.data, params.b_d.data = params.W_d.data[:, :5], params.b_d.data[:5]


def _record_dims(name: bytes, old: tuple, new: tuple):
    """The bytes replacement that changes a record's dims from old to new."""
    head = name + struct.pack("<I", len(old))
    return head + struct.pack(f"<{len(old)}Q", *old), head + struct.pack(f"<{len(new)}Q", *new)


def _extra_record(n_records: int):
    """The bytes replacement that raises the record count by one and puts a
    one-value record named "extra" before the first record."""
    record = struct.pack("<I", 5) + b"extra" + struct.pack("<IQd", 1, 1, 0.0)
    return MAGIC + struct.pack("<I", n_records), MAGIC + struct.pack("<I", n_records + 1) + record


def _max_len(value):
    def edit(params, tokens, extra):
        extra["max_len"] = value

    return edit


class Verbatim(str):
    """A config value that a checkpoint's config block holds as is, not quoted."""

    def __repr__(self):
        return str(self)


# config values that a Python-literal parser cannot take apart: its parser
# overflows its recursion limit, or runs out of memory
PLUS_CHAIN = "1+" * 50_000 + "1"
MINUS_CHAIN = "-" * 100_000 + "1"


@pytest.mark.parametrize(
    "edit, replace, message",
    [
        pytest.param(None, (b"n_labels=", b"x_labels="), "missing key 'n_labels'", id="missing config key"),
        pytest.param(None, (b"hidden=4", b"hidden=x"), "hidden='x'", id="bad config value"),
        # a consistent 5-wide head; the trailing space keeps the config block's length
        pytest.param(
            _five_labels, (b"n_labels=11", b"n_labels=5 "), "n_labels=5 is not 11", id="head of 5 labels"
        ),
        pytest.param(
            _wrong_shape, None, "record attn2.w_a has shape (7, 1), expected (24, 1)", id="tensor shape"
        ),
        pytest.param(
            None, (b"hidden=4", b"hidden=5"), "record gru1.fwd.W_ir has shape (8, 4)", id="config shape"
        ),
        pytest.param(_short_vocabulary, None, "vocabulary has 19 tokens", id="vocabulary size"),
        pytest.param(
            None, _record_dims(b"attn2.w_a", (24, 1), (2**32, 2**32)), "truncated while reading values of attn2.w_a",
            id="record of 2^64 values",
        ),
        pytest.param(
            None, _record_dims(b"attn2.w_a", (24, 1), (2**32, 2**31)), "truncated while reading values of attn2.w_a",
            id="record of 2^63 values",
        ),
        pytest.param(_non_finite, None, "record dense.W_d has a non-finite value", id="non-finite value"),
        pytest.param(
            None, _extra_record(len(build_downsized(seed=0).named_parameters())), "unexpected records ['extra']",
            id="one record more than the layout",
        ),
        pytest.param(None, (b"tok17", b"tok\xff7"), "vocabulary is not UTF-8", id="non-UTF-8 vocabulary"),
        pytest.param(_max_len("abc"), None, """max_len="'abc'" is not a valid int""", id="max_len not a number"),
        pytest.param(_max_len(0), None, "max_len=0 must be >= 1", id="max_len zero"),
        pytest.param(_max_len(2.7), None, "max_len='2.7' is not a valid int", id="max_len fraction"),
        # a long value is shown by its first SHOWN_CHARS characters and its length
        pytest.param(
            _max_len(Verbatim(PLUS_CHAIN)), None,
            f"max_len='{PLUS_CHAIN[:SHOWN_CHARS]}'... (100001 characters) is not a valid int",
            id="max_len 1+1+...+1",
        ),
        pytest.param(
            _max_len(Verbatim(MINUS_CHAIN)), None,
            f"max_len='{MINUS_CHAIN[:SHOWN_CHARS]}'... (100001 characters) is not a valid int",
            id="max_len ---...-1",
        ),
        pytest.param(_max_len(10**12), None, "max_len=1000000000000 must be <= 10000", id="max_len 10^12"),
        pytest.param(
            _max_len(Verbatim("9" * 4000)), None, f"max_len={'9' * SHOWN_CHARS}... (4000 characters) must be <= 10000",
            id="max_len of 4000 digits",
        ),
        pytest.param(
            None, (b"threshold=0.5", b"threshold=abc"), "threshold='abc' is not a valid float", id="threshold text"
        ),
        pytest.param(
            None, (b"threshold=0.5", b"threshold=nan"), "threshold=nan must be finite and in [0, 1]", id="threshold nan"
        ),
        pytest.param(
            None, (b"threshold=0.5", b"threshold=1.5"), "threshold=1.5 must be finite and in [0, 1]",
            id="threshold above 1",
        ),
        pytest.param(
            # seed, the last TrainingConfig field, is line 13; max_len, after d_emb, hidden and n_labels, is line 17
            None, (b"max_len=6", b"seed=123\n"), "line 17: config key 'seed' already set on line 13", id="repeated key"
        ),
    ],
)
def test_bad_checkpoint_record_is_user_error(tmp_path, capsys, edit, replace, message):
    params = build_downsized(seed=0)
    tokens = [f"tok{i}" for i in range(18)]
    extra = {"max_len": 6}
    if edit is not None:
        edit(params, tokens, extra)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, Vocabulary(tokens), TrainingConfig(), 0.5, path, extra_config=extra)
    if replace is not None:
        path.write_bytes(path.read_bytes().replace(*replace))
    data = tmp_path / "dev.tsv"
    write_tsv(data, 3, seed=0)
    assert main(["evaluate", "--checkpoint", str(path), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:") and message in err
    assert err.count("\n") == 1 and len(err) < len(str(path)) + 200



# bytes that keep a mutated field close to a value: digits, signs, number
# characters, separators and one byte that is not UTF-8
FIELD_BYTES = b"0123456789-+.eEjx =\t\n\xff"


def mutants(data: bytes, n: int, seed: int = 0, spans=None):
    """n seeded mutants of ``data``: the even ones cut at a random length, the
    odd ones with 1 to 3 bytes overwritten by random values. Given ``spans``,
    (start, end) byte ranges, the cuts and overwrites fall inside them and the
    new bytes come from FIELD_BYTES."""
    rng = np.random.default_rng(seed)
    positions = np.arange(len(data)) if spans is None else np.concatenate([np.arange(*s) for s in spans])
    values = bytes(range(256)) if spans is None else FIELD_BYTES
    for i in range(n):
        if i % 2 == 0:
            yield data[: int(positions[rng.integers(0, len(positions))])]
        else:
            out = bytearray(data)
            for pos in positions[rng.integers(0, len(positions), int(rng.integers(1, 4)))]:
                out[pos] = values[int(rng.integers(0, len(values)))]
            yield bytes(out)


def label_spans(tsv: bytes):
    """The label columns of each data row, with the tab before them."""
    spans, start = [], tsv.index(b"\n") + 1
    for row in tsv[start:].split(b"\n"):
        if row:
            spans.append((start + row.index(b"\t", row.index(b"\t") + 1), start + len(row)))
        start += len(row) + 1
    return spans


def value_spans(config: bytes):
    """The value of each key=value line."""
    spans, start = [], 0
    for line in config.split(b"\n"):
        key, _, value = line.partition(b"=")
        if value:
            spans.append((start + len(key) + 1, start + len(line)))
        start += len(line) + 1
    return spans


def config_block_span(ckpt: bytes):
    """The checkpoint's config block: from its first key to the trailing best loss."""
    return [(ckpt.index(f"{fields(TrainingConfig)[0].name}=".encode()), len(ckpt) - 8)]


def aimed(spans):
    """Mutants whose cuts and overwrites fall inside ``spans(data)``."""
    return lambda data, n: mutants(data, n, spans=spans(data))


def operator_chains(ckpt: bytes, n: int):
    """n seeded mutants of a checkpoint with one config value replaced by a
    long chain of operators ending in a digit, such as ``1+1+...+1`` or
    ``---...-1``; the config block's length prefix is rewritten to match."""
    rng = np.random.default_rng(0)
    [(start, end)] = config_block_span(ckpt)
    block = ckpt[start:end]
    spans = value_spans(block)
    for _ in range(n):
        a, b = spans[rng.integers(0, len(spans))]
        unit = [b"1+", b"-", b"+", b"~", b"(", b"1*"][rng.integers(0, 6)]
        new = block[:a] + unit * int(rng.integers(1_000, 100_000)) + b"1" + block[b:]
        yield ckpt[: start - 4] + struct.pack("<I", len(new)) + new + ckpt[end:]


# Run from the test's directory; the run config's mutants keep its output
# paths, so no run writes outside that directory.
RUN_INPUTS = (
    b"train_path=train.tsv\ndev_path=dev.tsv\nembeddings_path=vectors.txt\n"
    b"d_emb=8\nhidden=4\nmax_len=6\nbatch_size=4\nmax_epochs=2\nseed=3\n"
)
RUN_OUTPUTS = b"\ncheckpoint_path=best.ckpt\nlog_path=log.tsv\n"
RUN = ["train", "--config", "run.cfg"]
EVALUATE = ["evaluate", "--checkpoint", "best.ckpt", "--data", "dev.tsv"]
PREDICT = ["predict", "--checkpoint", "best.ckpt", "--input", "tweets.txt"]


@pytest.mark.parametrize(
    "target, n, commands, mutate",
    [
        pytest.param("best.ckpt", 200, [EVALUATE, PREDICT], mutants, id="checkpoint"),
        pytest.param("run.cfg", 60, [RUN], mutants, id="run config"),
        pytest.param("train.tsv", 60, [RUN], mutants, id="train TSV"),
        pytest.param("dev.tsv", 60, [RUN, EVALUATE], mutants, id="dev TSV"),
        pytest.param("vectors.txt", 60, [RUN], mutants, id="embeddings"),
        pytest.param("tweets.txt", 60, [PREDICT], mutants, id="predict input"),
        pytest.param("train.tsv", 60, [RUN], aimed(label_spans), id="train TSV labels"),
        pytest.param("dev.tsv", 60, [RUN, EVALUATE], aimed(label_spans), id="dev TSV labels"),
        pytest.param("run.cfg", 60, [RUN], aimed(value_spans), id="run config values"),
        pytest.param("best.ckpt", 100, [EVALUATE, PREDICT], aimed(config_block_span), id="checkpoint config block"),
        pytest.param("best.ckpt", 12, [EVALUATE, PREDICT], operator_chains, id="checkpoint config operator chains"),
    ],
)
def test_mutated_input_never_exits_2(workspace, capsys, monkeypatch, target, n, commands, mutate):
    """Seeded truncations and byte overwrites of each file the CLI reads, over
    the whole file or aimed at the fields its deeper checks read, and long
    operator chains in the checkpoint's config values: every run exits 0, or
    1 with a single error: line."""
    monkeypatch.chdir(workspace)
    vectors = "".join(word + f" {0.1 * i:.2f}" * 8 + "\n" for i, word in enumerate(WORDS))
    (workspace / "vectors.txt").write_text(vectors)
    (workspace / "tweets.txt").write_text("happy wow\nugh sad meh\n#yay @calm http://x.y\n")
    (workspace / "run.cfg").write_bytes(RUN_INPUTS + RUN_OUTPUTS)
    assert main(RUN) == 0

    path = workspace / target
    data = RUN_INPUTS if target == "run.cfg" else path.read_bytes()
    for i, mutant in enumerate(mutate(data, n)):
        path.write_bytes(mutant + RUN_OUTPUTS if target == "run.cfg" else mutant)
        for argv in commands:
            capsys.readouterr()
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1), f"mutant {i} of {target}, {argv[0]}: {err}"
            if code == 1:
                assert err.startswith("error: ") and err.count("\n") == 1, f"mutant {i} of {target}: {err}"


# Process-level boundaries, kept out of the in-process mutation runs above.
PANEMO = [sys.executable, "-m", "panemo.cli"]


def child_env(**extra):
    """The environment of a ``panemo`` child process: the package source, BLAS pinned to one thread."""
    return {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", **extra}


def test_closed_stdout_exits_141_silently(workspace, capsys):
    """A reader that stops after one line (``panemo predict ... | head -1``)
    ends the run with 128 + SIGPIPE and nothing on stderr."""
    assert main(["train", "--config", str(workspace / "run.cfg")]) == 0
    (workspace / "tweets.txt").write_text("happy wow sad\n" * 3000)  # far more output than a pipe holds
    proc = subprocess.Popen(
        PANEMO + PREDICT, cwd=workspace, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.readline().startswith(b"happy wow sad\t")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""


def test_interrupted_train_exits_130_with_one_line(workspace):
    """SIGINT during training ends ``panemo train`` with 128 + SIGINT, one
    stderr line and no traceback; it writes no checkpoint and no log."""
    write_tsv(workspace / "train.tsv", 3000, seed=0)  # too many rows and epochs to finish first
    set_config(workspace, "max_epochs=1000\nearly_stop_patience=1000\n")
    proc = subprocess.Popen(
        PANEMO + RUN, cwd=workspace, env=child_env(PYTHONUNBUFFERED="1"), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        for line in proc.stdout:
            if line.startswith(b"dev data:"):
                proc.send_signal(signal.SIGINT)
                break
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 130
    assert err == b"interrupted: no checkpoint was written\n"
    assert not (workspace / "best.ckpt").exists() and not (workspace / "log.tsv").exists()


class HalfWrite:
    """A binary file that writes half of the first bytes it is given, then raises ``exc``."""

    def __init__(self, fh, exc):
        self.fh, self.exc = fh, exc

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise self.exc


@pytest.mark.parametrize("target", ["best.ckpt", "log.tsv"])
@pytest.mark.parametrize(
    "exc, status, line",
    [
        (KeyboardInterrupt(), 130, "interrupted: no checkpoint was written"),
        (OSError(28, "No space left on device"), 1, "error: [Errno 28] No space left on device"),
    ],
)
def test_failed_write_keeps_previous_file(workspace, capsys, monkeypatch, target, exc, status, line):
    """An interrupt or an OSError halfway through writing the checkpoint or
    the log leaves the file of an earlier run whole and no temporary file."""
    for name in ("best.ckpt", "log.tsv"):
        (workspace / name).write_bytes(f"earlier {name}".encode())
    real_open = open

    def half_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        return HalfWrite(fh, exc) if Path(path).name.startswith(f".{target}.") else fh

    monkeypatch.setattr(textprep, "open", half_open, raising=False)
    assert main(["train", "--config", str(workspace / "run.cfg")]) == status
    assert capsys.readouterr().err == line + "\n"
    assert (workspace / target).read_bytes() == f"earlier {target}".encode()
    assert (workspace / "best.ckpt").read_bytes() == b"earlier best.ckpt"  # the log is written first
    assert not list(workspace.glob(".*"))


def test_interrupt_after_checkpoint_says_it_was_written(workspace, capsys, monkeypatch):
    set_config(workspace, f"test_path={workspace / 'dev.tsv'}\n")

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_headline_report", interrupted)
    assert main(["train", "--config", str(workspace / "run.cfg")]) == 130
    assert capsys.readouterr().err == f"interrupted: checkpoint written to {workspace / 'best.ckpt'}\n"
    assert (workspace / "best.ckpt").read_bytes().startswith(MAGIC)


def test_train_bytes_identical_across_processes(workspace):
    """Two training processes with different hash seeds, at the same pinned
    BLAS thread count, write the same checkpoint bytes and logged losses."""
    config = (workspace / "run.cfg").read_text()
    runs = []
    for hash_seed in ("1", "2"):
        out = workspace / f"hashseed-{hash_seed}"
        out.mkdir()
        for name in ("train.tsv", "dev.tsv"):
            shutil.copy(workspace / name, out)
        (out / "run.cfg").write_text(config.replace(str(workspace), str(out)))  # inputs and outputs in out
        result = subprocess.run(
            PANEMO + RUN, cwd=out, env=child_env(PYTHONHASHSEED=hash_seed), capture_output=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        losses = [line.rsplit("\t", 1)[0] for line in (out / "log.tsv").read_text().splitlines()]
        runs.append(((out / "best.ckpt").read_bytes(), losses))
    assert runs[0] == runs[1]
