"""One benchmark run of one workload, in its own process.

Runs what ``panemo train`` runs (load, vocabulary, embeddings, encode,
init_params, ``training.train``, ``checkpoint.save_checkpoint``), with
rounds of ``panemo evaluate`` and ``panemo predict`` through ``cli.main``
between epochs and after training. Checks every output and prints one JSON
object with the measurements as its last line. ``run.py`` starts it; run
that instead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from panemo import autodiff, checkpoint, cli, metrics, model, textprep, training
from panemo.checkpoint import load_checkpoint
from panemo.metrics import compute_report, threshold
from panemo.model import predict_scores
from panemo.textprep import encode, encode_dataset, load_semeval_tsv, tokenize
from panemo.training import evaluate_loss

import probes
import tweets

MAX_LEN, MIN_COUNT, D_EMB, HIDDEN = 50, 1, 300, 50  # paper scale, as `panemo train` defaults


UNITS = {
    "setup_s": "s",
    "train_step_p50_s": "s",
    "train_step_tail_s": "s",
    "epoch_s": "s",
    "dev_loss_best": "loss",
    "eval_tweets_per_s": "tweets/s",
    "predict_tweets_per_s": "tweets/s",
    "peak_rss_mb": "MB",
    "model.valid_position_ratio": "ratio",
    "model.forward_calls": "count",
    "model.rows_per_forward": "rows",
    "autodiff.tape_records_per_step": "count",
    "checkpoint.bytes": "bytes",
}  # every other per-layer metric is a time in seconds


def with_units(values: dict) -> dict:
    return {k: {"value": v, "unit": UNITS.get(k, "s")} for k, v in values.items()}


@dataclass(frozen=True)
class Workload:
    shape: tweets.Shape
    epochs: int
    predict_lines: int  # per `panemo predict`; rounds rotate through the test tweets
    n_train: int = 512
    n_dev: int = 256
    n_test: int = 512


WORKLOADS = {
    "train_tweets": Workload(tweets.SEMEVAL, epochs=5, predict_lines=32),
    "train_maxlen": Workload(tweets.FULL, epochs=5, predict_lines=32),
    "infer_cli": Workload(tweets.NOISY, epochs=4, predict_lines=64),
}


class Checks:
    """Operations attempted and failed; a failed output check is a failed op."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def make_inputs(w: Workload, seed: int, tmp: Path) -> dict[str, Path]:
    gen = tweets.TweetGenerator(seed)
    train_texts, train_labels = gen.tweets(w.n_train, w.shape)
    dev_texts, dev_labels = gen.tweets(w.n_dev, w.shape)
    test_texts, test_labels = gen.tweets(w.n_test, w.shape)
    paths = {name: tmp / name for name in ("train.tsv", "dev.tsv", "test.tsv", "vectors.txt")}
    tweets.write_tsv(paths["train.tsv"], train_texts, train_labels)
    tweets.write_tsv(paths["dev.tsv"], dev_texts, dev_labels)
    tweets.write_tsv(paths["test.tsv"], test_texts, test_labels)
    tweets.write_embeddings(paths["vectors.txt"], gen.embeddings(D_EMB))
    paths["chunks"] = []
    for k in range(0, w.n_test, w.predict_lines):
        paths["chunks"].append(tmp / f"lines-{len(paths['chunks'])}.txt")
        tweets.write_lines(paths["chunks"][-1], test_texts[k : k + w.predict_lines])
    return paths


def set_up(paths, seed: int):
    """The set-up of `panemo train`, in its order."""
    raw_train = textprep.load_semeval_tsv(paths["train.tsv"])
    raw_dev = textprep.load_semeval_tsv(paths["dev.tsv"])
    vocab = textprep.build_vocabulary(raw_train.token_lists, MIN_COUNT)
    emb = textprep.load_embeddings(paths["vectors.txt"], vocab, D_EMB, seed)
    train_set = textprep.encode_dataset(raw_train, vocab, MAX_LEN)
    dev_set = textprep.encode_dataset(raw_dev, vocab, MAX_LEN)
    params = model.init_params(emb, model.ModelConfig(d_emb=D_EMB, hidden=HIDDEN), seed)
    return vocab, train_set, dev_set, params


def arrays(examples):
    idx = np.array([ex.indices for ex in examples], dtype=np.int64)
    msk = np.array([ex.mask for ex in examples], dtype=np.float64)
    return idx, msk


def reference(ckpt: Path, paths) -> dict:
    """Expected `evaluate` and `predict` outputs for one checkpoint, from the
    library functions."""
    params, vocab, config, _ = load_checkpoint(ckpt)
    tau = float(config.get("threshold", 0.5))
    max_len = int(config.get("max_len", MAX_LEN))
    test = encode_dataset(load_semeval_tsv(paths["test.tsv"]), vocab, max_len)
    idx, msk = arrays(test.examples)
    scores = predict_scores(idx, msk, params)
    report = compute_report(threshold(scores, tau), test.label_matrix())
    lines = [chunk.read_text(encoding="utf-8").splitlines() for chunk in paths["chunks"]]
    encoded = [encode(tokenize(line), vocab, max_len) for chunk in lines for line in chunk]
    line_idx = np.array([i for i, _ in encoded], dtype=np.int64)
    line_msk = np.array([m for _, m in encoded], dtype=np.float64)
    if not (np.array_equal(line_idx, idx) and np.array_equal(line_msk, msk)):
        scores = predict_scores(line_idx, line_msk, params)
    bounds = np.cumsum([0] + [len(chunk) for chunk in lines])
    return {
        "report": (report.jaccard, report.micro_f1, report.macro_f1),
        "lines": lines,
        "scores": [scores[a:b] for a, b in zip(bounds[:-1], bounds[1:])],
        "tau": tau,
    }


def check_evaluate(out: str, ref: dict, checks: Checks):
    printed = {}
    for line in out.splitlines():
        key, _, val = line.partition("\t")
        if key in ("Jaccard", "Micro", "Macro"):
            printed[key] = float(val)
    ok = len(printed) == 3 and all(
        abs(printed[k] - v) <= 0.5e-4 + 1e-12 for k, v in zip(("Jaccard", "Micro", "Macro"), ref["report"])
    )
    checks.expect(ok, f"evaluate printed {printed}, expected {ref['report']}")


def check_predict(out: str, ref: dict, chunk: int, checks: Checks):
    rows, lines = out.splitlines(), ref["lines"][chunk]
    checks.expect(len(rows) == len(lines), f"predict printed {len(rows)} lines for {len(lines)} tweets")
    for row, line, scores in zip(rows, lines, ref["scores"][chunk]):
        cols = row.split("\t")
        ok = len(cols) == 3 and cols[0] == line
        if ok:
            pairs = [p.partition("=") for p in cols[2].split(" ")]
            ok = [name for name, _, _ in pairs] == list(textprep.EMOTIONS) and all(
                abs(float(val) - s) <= 0.5e-3 + 1e-9 for (_, _, val), s in zip(pairs, scores)
            )
            sure = [(name, s > ref["tau"]) for name, s in zip(textprep.EMOTIONS, scores) if abs(s - ref["tau"]) > 1e-6]
            shown = set(cols[1].split(","))
            ok = ok and all((name in shown) == on for name, on in sure)
        checks.expect(ok, f"predict line differs from reference: {row[:120]!r}")


def run_cli(argv: list[str], clock: probes.Clock) -> tuple[int, str, float, float]:
    """(exit code, stdout, wall seconds, checkpoint-load seconds) of one command."""
    buf = io.StringIO()
    loads_before = len(clock.loads)
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    wall = perf_counter() - t0
    return code, buf.getvalue(), wall, sum(clock.loads[loads_before:])


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and that percentile."""
    ordered = sorted(samples)
    rank = max(len(ordered) - 10, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def blas_record() -> dict:
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    threads = int(getattr(handle, sym)())
                    break
    except OSError:
        pass
    return {"blas": info.get("name"), "blas_version": info.get("version"), "blas_threads": threads}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_record(),
        "machine": platform.machine(),
    }


def median(xs):
    return statistics.median(xs) if xs else None


def layer_metrics(tracer: probes.Tracer, clock: probes.Clock, ckpt_bytes: int) -> dict:
    """Per-layer numbers from the traced run; None marks a metric whose target is gone."""
    selfs = tracer.self_times()
    counts = tracer.span_counts()

    def units(prefix):
        return [u for u in selfs if u.startswith(prefix)]

    def per_unit(prefix, names, needs):
        if needs & tracer.absent:
            return None
        return median([sum(selfs[u].get(n, 0.0) for n in names) for u in units(prefix)])

    step = "step:"
    out = {}
    for name, span, needs in [
        ("embed", "model.embed", "model.embed"),
        ("gru1", "model.gru1", "model.bigru_layer"),
        ("gru2", "model.gru2", "model.bigru_layer"),
        ("attn1", "model.attn1", "model.attention_pool"),
        ("attn2", "model.attn2", "model.attention_pool"),
        ("head", "model.head", "model.attention_pool"),
        ("forward", "model.forward", "model.forward"),
    ]:
        out[f"model.{name}_s"] = per_unit(step, [span], {needs})
    valid, total = tracer.positions
    out["model.valid_position_ratio"] = valid / total if total and "model.bigru_layer" not in tracer.absent else None
    rounds = sorted({u.partition(":")[2] for u in units("evaluate:") + units("predict:")})
    calls = [counts[f"evaluate:{r}"]["model.forward"] + counts[f"predict:{r}"]["model.forward"] for r in rounds]
    rows = sum(n for u, n in tracer.rows.items() if u.startswith(("evaluate:", "predict:")))
    forward_ok = "model.forward" not in tracer.absent
    out["model.forward_calls"] = median(calls) if forward_ok else None
    out["model.rows_per_forward"] = rows / sum(calls) if forward_ok and sum(calls) else None
    out["model.init_s"] = per_unit("setup:", ["model.init"], {"model.init_params"})

    records = [n for u, n in tracer.tape_records.items() if u.startswith(step)]
    out["autodiff.tape_records_per_step"] = max(records) if records else None
    out["autodiff.backward_s"] = per_unit(step, ["autodiff.backward"], {"autodiff.backward"})
    for label in probes.BACKWARD_LABELS:
        per_step = [tracer.backward.get((u, label), 0.0) for u in units(step)]
        out[f"autodiff.backward.{label}_s"] = median(per_step) if "autodiff.record" not in tracer.absent else None

    out["training.noise_s"] = per_unit(step, ["training.noise"], {"training.perturb_hidden_weights"})
    out["training.loss_s"] = per_unit(step, ["training.loss"], {"training.weighted_bce", "training.l2_penalty"})
    out["training.adam_s"] = per_unit(step, ["training.adam"], {"training.adam_step"})
    out["training.dev_eval_s"] = median([e.dev_eval for e in clock.epochs])
    out["training.epoch_other_s"] = median([e.period - e.steps - e.dev_eval for e in clock.epochs])

    out["textprep.load_s"] = per_unit("setup:", ["textprep.load"], {"textprep.load_semeval_tsv"})
    out["textprep.tokenize_s"] = per_unit("setup:", ["textprep.tokenize"], {"textprep.tokenize"})
    out["textprep.vocab_s"] = per_unit("setup:", ["textprep.vocab"], {"textprep.build_vocabulary"})
    out["textprep.encode_s"] = per_unit(
        "setup:", ["textprep.encode", "textprep.encode_one"], {"textprep.encode_dataset", "textprep.encode"}
    )
    out["textprep.embeddings_s"] = per_unit("setup:", ["textprep.embeddings"], {"textprep.load_embeddings"})
    out["textprep.predict_encode_s"] = per_unit(
        "predict:", ["textprep.tokenize", "textprep.encode_one"], {"textprep.tokenize", "textprep.encode"}
    )

    out["checkpoint.save_s"] = per_unit("save", ["checkpoint.save"], {"checkpoint.save_checkpoint"})
    loads = [selfs[u].get("checkpoint.load", 0.0) for u in units("evaluate:") + units("predict:")]
    out["checkpoint.load_s"] = median(loads) if "checkpoint.load_checkpoint" not in tracer.absent else None
    out["checkpoint.bytes"] = ckpt_bytes

    out["metrics.report_s"] = per_unit(
        "evaluate:", ["metrics.report"], {"metrics.threshold", "metrics.compute_report", "metrics.per_class_report"}
    )
    out["cli.evaluate_self_s"] = per_unit("evaluate:", ["cli.evaluate"], {"cli.cmd_evaluate"})
    out["cli.predict_self_s"] = per_unit("predict:", ["cli.predict"], {"cli.cmd_predict"})

    traced = [s for s, on in clock.steps[1:] if on]
    untraced = [s for s, on in clock.steps[1:] if not on]
    out["trace.overhead_s"] = median(traced) - median(untraced)
    return out


class Run:
    """State of one run: inputs, hooks, samples and checks."""

    def __init__(self, w: Workload, seed: int, trace: bool, tmp: Path):
        self.w, self.seed, self.tmp = w, seed, tmp
        self.checks = Checks()
        self.clock = probes.Clock()
        self.clock.install(training, checkpoint)
        modules = {
            "autodiff": autodiff, "checkpoint": checkpoint, "cli": cli, "metrics": metrics,
            "model": model, "textprep": textprep, "training": training,
        }
        self.tracer = probes.Tracer(modules) if trace else None
        self.paths = make_inputs(w, seed, tmp)
        self.setups: list[float] = []
        self.evaluated = [0, 0.0]  # tweets, seconds
        self.predicted = [0, 0.0]
        self.rounds = 0
        self.ckpt_bytes = 0

    def traced(self, on: bool):
        if self.tracer is not None:
            self.tracer.install() if on else self.tracer.uninstall()
            self.clock.traced = on

    def unit(self, name: str):
        if self.tracer is not None:
            self.tracer.unit = name

    def set_up(self):
        self.unit(f"setup:{len(self.setups) + 1}")
        t0 = perf_counter()
        state = set_up(self.paths, self.seed)
        self.setups.append(perf_counter() - t0)
        self.checks.expect(len(state[1]) == self.w.n_train and len(state[2]) == self.w.n_dev, "set-up lost examples")
        return state

    def save(self, params, vocab, cfg, loss: float, path: Path, unit: str):
        self.unit(unit)
        checkpoint.save_checkpoint(
            params, vocab, cfg, loss, path, extra_config={"max_len": MAX_LEN, "min_count": MIN_COUNT}
        )

    def round(self, ckpt: Path, ref: dict):
        """One set-up, one `panemo evaluate` on the test TSV and one `panemo
        predict` on the next file of raw lines; traced in the traced run."""
        self.rounds += 1
        chunk = (self.rounds - 1) % len(self.paths["chunks"])
        self.traced(True)
        self.set_up()
        self.unit(f"evaluate:{self.rounds}")
        argv = ["evaluate", "--checkpoint", str(ckpt), "--data", str(self.paths["test.tsv"])]
        out = self.command(argv, self.w.n_test, self.evaluated)
        if out is not None:
            check_evaluate(out, ref, self.checks)
        self.unit(f"predict:{self.rounds}")
        argv = ["predict", "--checkpoint", str(ckpt), "--input", str(self.paths["chunks"][chunk])]
        out = self.command(argv, len(ref["lines"][chunk]), self.predicted)
        if out is not None:
            check_predict(out, ref, chunk, self.checks)
        self.traced(False)

    def command(self, argv: list[str], tweets_in: int, totals: list) -> str | None:
        """Runs one CLI command and returns its output, None if it failed.
        Adds its tweets and its time less the checkpoint load to ``totals``."""
        code, out, wall, load = run_cli(argv, self.clock)
        self.checks.expect(code == 0, f"panemo {argv[0]} exited {code}")
        if code != 0:
            return None
        totals[0] += tweets_in
        totals[1] += wall - load
        return out

    def execute(self, seconds: float):
        w, checks = self.w, self.checks
        self.t_start = t_start = perf_counter()
        self.traced(True)
        vocab, train_set, dev_set, params = self.set_up()
        self.traced(False)
        cfg = training.TrainingConfig(max_epochs=w.epochs, early_stop_patience=w.epochs + 1, seed=self.seed)

        def alternate(steps_done: int):
            # The traced run traces every other step, so that it measures its
            # own overhead against untraced steps taken at the same time.
            self.traced(steps_done % 2 == 1)

        # Rounds run between epochs, not only after training, so that every
        # metric samples the machine across the whole run. Those use a
        # checkpoint of the initial parameters: inference costs the same
        # whatever the weights, and one reference serves them all.
        initial = self.tmp / "initial.ckpt"
        self.traced(True)
        self.save(params, vocab, cfg, float("inf"), initial, "save:0")
        self.traced(False)
        initial_ref = reference(initial, self.paths)

        def between_epochs():
            self.round(initial, initial_ref)
            alternate(len(self.clock.steps))
            self.unit("train")

        self.clock.on_epoch_end = between_epochs
        if self.tracer is not None:
            self.clock.on_step_end = alternate
        self.clock.start_training()
        params, log = training.train(train_set, dev_set, cfg, params, log_path=self.tmp / "training_log.tsv")
        self.clock.stop_training()
        self.clock.on_epoch_end = self.clock.on_step_end = None
        self.traced(False)
        checks.expect(len(log.epochs) == w.epochs, f"trained {len(log.epochs)} epochs, expected {w.epochs}")
        for rec in log.epochs:
            checks.expect(math.isfinite(rec.train_loss) and math.isfinite(rec.val_loss), f"non-finite loss: {rec}")
        restored = evaluate_loss(dev_set, params, cfg)
        checks.expect(restored == log.best_val_loss, f"dev loss {restored!r} != best {log.best_val_loss!r}")

        ckpt = self.tmp / "model.ckpt"
        self.traced(True)
        self.save(params, vocab, cfg, log.best_val_loss, ckpt, "save")
        self.traced(False)
        self.ckpt_bytes = ckpt.stat().st_size
        loaded, loaded_vocab, _, loaded_best = load_checkpoint(ckpt)
        same = loaded_vocab.tokens == vocab.tokens and loaded_best == log.best_val_loss and all(
            np.array_equal(a.data, b.data)
            for (_, a), (_, b) in zip(params.named_parameters(), loaded.named_parameters())
        )
        checks.expect(same, "checkpoint does not round-trip")

        ref = reference(ckpt, self.paths)
        self.round(ckpt, ref)
        while perf_counter() - t_start < seconds:
            self.round(ckpt, ref)
        self.measured_s = perf_counter() - t_start
        self.log = log

    def result(self) -> dict:
        clock = self.clock
        steps = [s for s, on in clock.steps[1:] if not on]  # the first step warms caches up
        step_tail, tail_pct = tail(steps)
        result = {
            "attempted": self.checks.attempted,
            "failed": len(self.checks.failures),
            "failures": self.checks.failures[:20],
            "detail": {
                "train_step_tail_percentile": tail_pct,
                "train_step_samples": len(steps),
                "epochs": len(clock.epochs),
                "rounds": self.rounds,
                "measured_s": self.measured_s,
                "training_set_up_s": median(self.setups),
                "checkpoint_load_s": median(clock.loads),
            },
            "machine": machine(),
        }
        if self.tracer is not None:
            result["layers"] = with_units(layer_metrics(self.tracer, clock, self.ckpt_bytes))
            result["absent"] = sorted(self.tracer.absent)
            return result
        result["metrics"] = with_units({
            "setup_s": median(self.setups) + median(clock.loads),
            "train_step_p50_s": median(steps),
            "train_step_tail_s": step_tail,
            "epoch_s": median([e.period for e in clock.epochs]),
            "dev_loss_best": self.log.best_val_loss,
            "eval_tweets_per_s": self.evaluated[0] / self.evaluated[1],
            "predict_tweets_per_s": self.predicted[0] / self.predicted[1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True, help="directory for the inputs and the span file")
    args = ap.parse_args(argv)
    if Path(textprep.__file__).resolve().parents[2] != Path.cwd().resolve():
        raise SystemExit(f"panemo imported from {textprep.__file__}, not from this checkout")
    with tempfile.TemporaryDirectory(dir=args.workdir, prefix="inputs-") as tmp:
        run = Run(WORKLOADS[args.workload], args.seed, bool(args.trace), Path(tmp))
        run.execute(args.seconds)
        if run.tracer is not None:
            run.tracer.write(Path(args.workdir) / f"trace-{args.workload}-seed{args.seed}.tsv", run.t_start)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **run.result()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
