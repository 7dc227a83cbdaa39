"""Command-line interface: train, evaluate, predict, gradcheck, selftest."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import metrics, textprep, verify
from .errors import CheckpointError, ConfigError, ParseError
from .model import ModelConfig, init_params, predict_scores
from .textprep import EMOTIONS
from .training import TrainingConfig, evaluate_loss, train

_PATH_KEYS = ("train_path", "dev_path", "test_path", "embeddings_path")
_RUN_KEYS = {
    *_PATH_KEYS,
    "checkpoint_path",
    "log_path",
    "max_len",
    "min_count",
    "d_emb",
    "hidden",
    *(f.name for f in fields(TrainingConfig)),
}

_RUN_DEFAULTS = {
    "checkpoint_path": "best.ckpt",
    "log_path": "training_log.tsv",
    "max_len": 50,
    "min_count": 1,
    "d_emb": 300,
    "hidden": 50,
}


def load_run_config(path) -> dict:
    """Flat key=value UTF-8 config file. Unknown keys are errors."""
    config = dict(_RUN_DEFAULTS)
    for lineno, line in enumerate(textprep.read_text(path, ConfigError).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or key not in _RUN_KEYS:
            raise ConfigError(f"{path}: line {lineno}: unknown config key {key!r}")
        config[key] = val
    return config


def _typed(run: dict, key: str, target: type):
    """run[key] as ``target``; a value of the wrong type is a ConfigError naming the key."""
    raw = run[key]
    try:
        return target(raw) if isinstance(raw, str) else raw
    except ValueError:
        raise ConfigError(f"{key}={raw!r} is not a valid {target.__name__}") from None


def _training_config(run: dict) -> TrainingConfig:
    defaults = TrainingConfig()
    return TrainingConfig(**{
        f.name: _typed(run, f.name, type(getattr(defaults, f.name)))
        for f in fields(TrainingConfig)
        if f.name in run
    })


def _require_file(path_str: str, what: str) -> Path:
    path = Path(path_str)
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return path


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    for key in ("train_path", "dev_path"):
        if key not in run:
            raise ConfigError(f"{args.config}: missing required key {key!r}")
    tcfg = _training_config(run)
    sizes = {key: _typed(run, key, int) for key in ("max_len", "min_count", "d_emb", "hidden")}
    for key, value in sizes.items():
        if value < 1:
            raise ConfigError(f"{key}={value} must be >= 1")
    max_len, min_count, d_emb, hidden = sizes.values()
    # written only after training, so a missing directory is caught now
    for key in ("log_path", "checkpoint_path"):
        if not Path(run[key]).parent.is_dir():
            raise ConfigError(f"{key}={run[key]}: directory {Path(run[key]).parent} does not exist")

    raw_train = textprep.load_semeval_tsv(_require_file(run["train_path"], "training TSV"))
    raw_dev = textprep.load_semeval_tsv(_require_file(run["dev_path"], "development TSV"))
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
    print(
        f"best epoch {log.best_epoch}, validation loss {log.best_val_loss:.6f}; "
        f"checkpoint written to {run['checkpoint_path']}"
    )
    return 0


def _load_for_inference(checkpoint_path):
    params, vocab, config, best_val = ckpt.load_checkpoint(
        _require_file(checkpoint_path, "checkpoint")
    )
    max_len = config.get("max_len", 50)
    threshold = float(config.get("threshold", 0.5))
    return params, vocab, max_len, threshold, config, best_val


def cmd_evaluate(args) -> int:
    params, vocab, max_len, tau, config, _ = _load_for_inference(args.checkpoint)
    raw = textprep.load_semeval_tsv(_require_file(args.data, "data TSV"))
    dataset = textprep.encode_dataset(raw, vocab, max_len)
    idx, msk, _ = dataset.arrays()
    scores = predict_scores(idx, msk, params)
    pred = metrics.threshold(scores, tau)
    gold = dataset.label_matrix()
    report = metrics.compute_report(pred, gold)
    print(f"Jaccard\t{report.jaccard:.4f}")
    print(f"Micro\t{report.micro_f1:.4f}")
    print(f"Macro\t{report.macro_f1:.4f}")
    print()
    print(metrics.per_class_report(pred, gold))
    return 0


def cmd_predict(args) -> int:
    params, vocab, max_len, tau, _, _ = _load_for_inference(args.checkpoint)
    lines = (
        textprep.read_text(args.input).splitlines()
        if args.input
        else sys.stdin.read().splitlines()
    )
    lines = [line for line in lines if line.strip()]
    if not lines:
        return 0
    indices, masks = zip(*(textprep.encode(textprep.tokenize(line), vocab, max_len) for line in lines))
    all_scores = predict_scores(
        np.array(indices, dtype=np.int64), np.array(masks, dtype=np.float64), params
    )
    for line, scores in zip(lines, all_scores):
        labels = [name for name, s in zip(EMOTIONS, scores) if s > tau]
        score_str = " ".join(f"{name}={s:.3f}" for name, s in zip(EMOTIONS, scores))
        print(f"{line}\t{','.join(labels) if labels else '(none)'}\t{score_str}")
    return 0


def cmd_gradcheck(args) -> int:
    check = verify.train_mode_gradcheck if args.train_mode else verify.downsized_gradcheck
    err = check(seed=args.seed, eps=args.eps)
    print(f"max relative error: {err:.3e}")
    return 0 if err < 1e-4 else 2


def cmd_selftest(args) -> int:
    results = verify.run_selftest(seed=args.seed, quick=args.quick)
    ok = True
    for name, worst, tol, passed in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: worst {worst:.3e} (tol {tol:g})")
        ok = ok and passed
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--eps", type=float, default=1e-5)
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
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ParseError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
