"""Command-line interface: train, evaluate, predict, gradcheck, selftest."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import metrics, textprep, verify
from .errors import CheckpointError, ConfigError, ParseError, TrainingDivergedError
from .model import ModelConfig, init_params, predict_scores
from .textprep import EMOTIONS
from .training import SIZE_DEFAULTS, TrainingConfig, read_settings, train

_PATH_KEYS = ("train_path", "dev_path", "test_path", "embeddings_path")
# Every other run-config key, with its default. n_labels is left out: a
# checkpoint records it, but the data format fixes it.
_RUN_DEFAULTS = {
    "checkpoint_path": "best.ckpt",
    "log_path": "training_log.tsv",
    **{key: value for key, value in SIZE_DEFAULTS.items() if key != "n_labels"},
    **asdict(TrainingConfig()),
}
_RUN_KEYS = {*_PATH_KEYS, *_RUN_DEFAULTS}


def load_run_config(path) -> dict:
    """Flat key=value UTF-8 config file, typed by ``read_settings``, with
    ``_RUN_DEFAULTS`` for the keys it leaves out. Unknown keys are errors."""
    text = textprep.read_text(path, ConfigError)
    return {**_RUN_DEFAULTS, **read_settings(text, path, ConfigError, _RUN_KEYS)}


def _require_file(path_str: str, what: str) -> Path:
    path = Path(path_str)
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return path


def _load_report(name: str, raw: textprep.RawDataset, dataset: textprep.Dataset, max_len: int) -> str:
    """Example count, share of tweets cut at max_len, and share of kept tokens out of vocabulary."""
    truncated = np.mean([len(tokens) > max_len for tokens in raw.token_lists])
    idx, msk = dataset.arrays()
    unk = np.count_nonzero((idx == textprep.UNK_INDEX) & (msk > 0)) / np.count_nonzero(msk)
    return f"{name} data: {len(dataset)} examples, truncation rate {truncated:.3f} at max_len={max_len}, UNK rate {unk:.3f}"


def _headline_report(dataset: textprep.Dataset, params, tau: float) -> metrics.MetricsReport:
    """The report of the thresholded predictions against the gold labels;
    prints its Jaccard, Micro and Macro lines."""
    idx, msk = dataset.arrays()
    pred = metrics.threshold(predict_scores(idx, msk, params), tau)
    report = metrics.compute_report(pred, dataset.label_matrix())
    print(f"Jaccard\t{report.jaccard:.4f}")
    print(f"Micro\t{report.micro_f1:.4f}")
    print(f"Macro\t{report.macro_f1:.4f}")
    return report


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    for key in ("train_path", "dev_path"):
        if key not in run:
            raise ConfigError(f"{args.config}: missing required key {key!r}")
    tcfg = TrainingConfig(**{f.name: run[f.name] for f in fields(TrainingConfig)})
    max_len, min_count, d_emb, hidden = run["max_len"], run["min_count"], run["d_emb"], run["hidden"]
    # written only after training, so a bad output path is caught now
    files = {"the run config": args.config, **{key: run[key] for key in _PATH_KEYS if key in run}}
    for key in ("log_path", "checkpoint_path"):
        path = Path(run[key])
        if not path.parent.is_dir():
            raise ConfigError(f"{key}={run[key]}: directory {path.parent} does not exist")
        if path.is_dir():
            raise ConfigError(f"{key}={run[key]}: is a directory")
        for name, other in files.items():
            if path.resolve() == Path(other).resolve():
                raise ConfigError(f"{key}={run[key]}: is the same file as {name}")
        files[key] = run[key]

    # Ctrl-C at any point: say whether the checkpoint was written
    written = False
    try:
        raw_train = textprep.load_semeval_tsv(_require_file(run["train_path"], "training TSV"))
        raw_dev = textprep.load_semeval_tsv(_require_file(run["dev_path"], "development TSV"))
        # read now, so a missing or malformed test file fails before training
        raw_test = None
        if "test_path" in run:
            raw_test = textprep.load_semeval_tsv(_require_file(run["test_path"], "test TSV"))
        vocab = textprep.build_vocabulary(raw_train.token_lists, min_count)

        if "embeddings_path" in run:
            emb = textprep.load_embeddings(
                _require_file(run["embeddings_path"], "embeddings file"), vocab, d_emb, tcfg.seed
            )
            print(f"embedding coverage: {emb.coverage:.3f}")
        else:
            emb = textprep.random_embeddings(len(vocab), d_emb, tcfg.seed)

        train_set = textprep.encode_dataset(raw_train, vocab, max_len)
        dev_set = textprep.encode_dataset(raw_dev, vocab, max_len)
        print(_load_report("train", raw_train, train_set, max_len))
        print(_load_report("dev", raw_dev, dev_set, max_len))
        params = init_params(emb, ModelConfig(d_emb=d_emb, hidden=hidden), tcfg.seed)

        params, log = train(train_set, dev_set, tcfg, params, log_path=run["log_path"])
        ckpt.save_checkpoint(
            params,
            vocab,
            tcfg,
            log.best_val_loss,
            run["checkpoint_path"],
            extra_config={"max_len": max_len, "min_count": min_count},
        )
        written = True
        print(
            f"best epoch {log.best_epoch}, validation loss {log.best_val_loss:.6f}; "
            f"checkpoint written to {run['checkpoint_path']}"
        )
        if raw_test is not None:
            print(f"test set at best epoch {log.best_epoch}: {run['test_path']}")
            _headline_report(textprep.encode_dataset(raw_test, vocab, max_len), params, tcfg.threshold)
    except KeyboardInterrupt:
        outcome = f"checkpoint written to {run['checkpoint_path']}" if written else "no checkpoint was written"
        print(f"interrupted: {outcome}", file=sys.stderr)
        return 130
    return 0


def _load_for_inference(checkpoint_path):
    """(params, vocabulary, max_len, threshold) of a checkpoint, ``_RUN_DEFAULTS`` filling a missing key."""
    params, vocab, config, _ = ckpt.load_checkpoint(_require_file(checkpoint_path, "checkpoint"))
    config = {**_RUN_DEFAULTS, **config}
    return params, vocab, config["max_len"], config["threshold"]


def cmd_evaluate(args) -> int:
    params, vocab, max_len, tau = _load_for_inference(args.checkpoint)
    raw = textprep.load_semeval_tsv(_require_file(args.data, "data TSV"))
    dataset = textprep.encode_dataset(raw, vocab, max_len)
    report = _headline_report(dataset, params, tau)
    print()
    print(metrics.per_class_report(report))
    return 0


def cmd_predict(args) -> int:
    params, vocab, max_len, tau = _load_for_inference(args.checkpoint)
    text = (
        textprep.read_text(args.input)
        if args.input
        else textprep.decode_text(sys.stdin.buffer.read(), "<stdin>")
    )
    lines = [line for line in textprep.split_lines(text) if line.strip()]
    if not lines:
        return 0
    indices, masks = zip(*(textprep.encode(textprep.tokenize(line), vocab, max_len) for line in lines))
    all_scores = predict_scores(
        np.array(indices, dtype=np.int64), np.array(masks, dtype=np.float64), params
    )
    for line, scores, on in zip(lines, all_scores, metrics.threshold(all_scores, tau)):
        labels = [name for name, flag in zip(EMOTIONS, on) if flag]
        score_str = " ".join(f"{name}={s:.3f}" for name, s in zip(EMOTIONS, scores))
        print(f"{line}\t{','.join(labels) if labels else '(none)'}\t{score_str}")
    return 0


def cmd_gradcheck(args) -> int:
    check = verify.train_mode_gradcheck if args.train_mode else verify.downsized_gradcheck
    err = check(seed=args.seed)
    print(f"max relative error: {err:.3e}")
    return 0 if err < 1e-4 else 2


def cmd_selftest(args) -> int:
    results = verify.run_selftest(seed=args.seed, quick=args.quick)
    ok = True
    for name, worst, tol, passed in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: worst {worst:.3e} (tol {tol:g})")
        ok = ok and passed
    return 0 if ok else 2


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are user errors: the usage line,
    then ``main``'s one ``error:`` line and exit status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="panemo",
        description="Multi-label tweet emotion detection with pyramid attention pooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a run config file")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a TSV file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("predict", help="score tweets (one per line) with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", help="input file; stdin if omitted")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check, downsized model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--train-mode",
        action="store_true",
        help="check the train-mode forward: dropout, spatial dropout and weight noise on, draws held fixed",
    )
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("selftest", help="run the invariant property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.fn(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # The reader of stdout stopped reading: neither a user error nor a
        # fault. With fd 1 on the null device, the flush at exit cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except (ConfigError, ParseError, CheckpointError, TrainingDivergedError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
