import numpy as np
import pytest

from panemo.autodiff import Tensor
from panemo.checkpoint import save_checkpoint
from panemo.cli import load_run_config, main
from panemo.errors import ConfigError
from panemo.textprep import EMOTIONS, Vocabulary
from panemo.training import TrainingConfig
from panemo.verify import build_downsized


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


def test_predict_batch_matches_line_by_line(workspace, capsys):
    assert main(["train", "--config", str(workspace / "run.cfg")]) == 0
    capsys.readouterr()
    lines = ["happy happy wow", "", "ugh angry sad meh calm yay happy", "   ", "calm"]
    tweets = workspace / "tweets.txt"
    tweets.write_text("\n".join(lines) + "\n")
    ckpt = str(workspace / "best.ckpt")
    assert main(["predict", "--checkpoint", ckpt, "--input", str(tweets)]) == 0
    batched = capsys.readouterr().out
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
    assert out.count("PASS") == 7


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
        ("log_path=/nonexistent/panemo/log.tsv\n", "", "log_path"),
        ("checkpoint_path=/nonexistent/panemo/best.ckpt\n", "", "checkpoint_path"),
    ],
)
def test_bad_input_is_user_error(workspace, capsys, config_line, dev_row, message):
    with open(workspace / "run.cfg", "a") as fh:
        fh.write(config_line)
    with open(workspace / "dev.tsv", "a") as fh:
        fh.write(dev_row)
    assert main(["train", "--config", str(workspace / "run.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_header_only_tsv_is_user_error(workspace, capsys):
    header_only = workspace / "header.tsv"
    header_only.write_text("ID\tTweet\t" + "\t".join(EMOTIONS) + "\n")
    with open(workspace / "run.cfg", "a") as fh:
        fh.write(f"train_path={header_only}\n")
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
        pytest.param({"dir": None}, ["train", "--config", "{ws}/dir"], "Is a directory: '{ws}/dir'", id="config dir"),
        pytest.param(
            {"dir": None},
            ["predict", "--checkpoint", "{ws}/model.ckpt", "--input", "{ws}/dir"],
            "Is a directory: '{ws}/dir'",
            id="predict input dir",
        ),
    ],
)
def test_unreadable_file_is_user_error(workspace, capsys, files, argv, message):
    """A file that is not UTF-8, or a directory where a file is read, exits 1 naming it."""
    save_checkpoint(
        build_downsized(seed=0), Vocabulary([f"tok{i}" for i in range(18)]), TrainingConfig(), 0.5,
        workspace / "model.ckpt",
    )
    for name, content in files.items():
        if content is None:
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


def _max_len(value):
    def edit(params, tokens, extra):
        extra["max_len"] = value

    return edit


@pytest.mark.parametrize(
    "edit, replace, message",
    [
        pytest.param(None, (b"n_labels=", b"x_labels="), "missing key 'n_labels'", id="missing config key"),
        pytest.param(None, (b"hidden=4", b"hidden=x"), "hidden='x'", id="bad config value"),
        pytest.param(
            _wrong_shape, None, "record attn2.w_a has shape (7, 1), expected (24, 1)", id="tensor shape"
        ),
        pytest.param(
            None, (b"hidden=4", b"hidden=5"), "record gru1.fwd.W_ir has shape (8, 4)", id="config shape"
        ),
        pytest.param(_short_vocabulary, None, "vocabulary has 19 tokens", id="vocabulary size"),
        pytest.param(_non_finite, None, "record dense.W_d has a non-finite value", id="non-finite value"),
        pytest.param(None, (b"tok17", b"tok\xff7"), "vocabulary is not UTF-8", id="non-UTF-8 vocabulary"),
        pytest.param(_max_len("abc"), None, "max_len='abc' is not a positive integer", id="max_len not a number"),
        pytest.param(_max_len(0), None, "max_len=0 is not a positive integer", id="max_len zero"),
        pytest.param(_max_len(2.7), None, "max_len=2.7 is not a positive integer", id="max_len fraction"),
        pytest.param(
            None, (b"threshold=0.5", b"threshold=abc"), "threshold='abc' is not a finite number", id="threshold text"
        ),
        pytest.param(
            None, (b"threshold=0.5", b"threshold=nan"), "threshold='nan' is not a finite number", id="threshold nan"
        ),
        pytest.param(
            None, (b"threshold=0.5", b"threshold=1.5"), "threshold=1.5 is not a finite number in [0, 1]",
            id="threshold above 1",
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
