"""Check that the working tree computes the same bits as a base revision.

    python3 tools/same_bits.py --base <rev>

Extracts ``src/`` of ``<rev>`` with ``git archive`` into a temporary
directory, then runs the same ``panemo`` commands on the same inputs against
both source trees, each command in a child process with one BLAS thread:

- ``train`` on the 12-row config of ``tests/test_cli.py`` and on the seed-1
  inputs of the three benchmark workloads (2 epochs, with ``test_path``);
- with each checkpoint, ``evaluate`` and ``predict`` from a file and from
  stdin;
- ``gradcheck --seed 7``, with and without ``--train-mode``;
- ``selftest --quick``.

It compares each command's exit status, stdout and stderr, each checkpoint's
bytes and each training log without its ``elapsed_seconds`` column. It
prints a header line naming the numpy version, the BLAS library it was
built against and the CPU kernel that library runs, then one verdict line
per output, and exits 1 when any output differs. Under the verdict of an
output that differs and decodes as UTF-8, it prints the removed and added
lines, at most ``DIFF_LINES`` of them.
Same-seed bytes hold across processes only at the same BLAS thread count,
CPU kernel and numpy build, hence the pinned thread count. The workload
inputs come from ``perfbench/worker.py``, which is only read.
"""

from __future__ import annotations

import argparse
import ctypes
import difflib
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import worker  # noqa: E402
from panemo.textprep import EMOTIONS  # noqa: E402

CLI_WORDS = ["happy", "angry", "sad", "calm", "wow", "meh", "yay", "ugh"]
CLI_CONFIG = "d_emb=8\nhidden=4\nmax_len=6\nbatch_size=4\nmax_epochs=2\nseed=3\n"
WORKLOAD_CONFIG = "max_epochs=2\nseed=1\n"
CHILD_TIMEOUT_S = 600
DIFF_LINES = 40


def write_cli_tsv(path: Path, n_rows: int, seed: int):
    """The TSV of ``write_tsv`` in ``tests/test_cli.py``."""
    rng = np.random.default_rng(seed)
    rows = ["ID\tTweet\t" + "\t".join(EMOTIONS)]
    for i in range(n_rows):
        words = rng.choice(CLI_WORDS, size=4)
        labels = rng.integers(0, 2, 11)
        rows.append(f"t-{i}\t{' '.join(words)}\t" + "\t".join(map(str, labels)))
    path.write_text("\n".join(rows) + "\n")


def make_cases(inputs: Path) -> dict[str, dict]:
    """Per training case: its run config file (the checkpoint and log go to
    the directory it runs in), the TSV to evaluate and the two predict inputs."""
    cli = inputs / "cli"
    cli.mkdir()
    write_cli_tsv(cli / "train.tsv", 12, seed=0)
    write_cli_tsv(cli / "dev.tsv", 6, seed=1)
    (cli / "lines.txt").write_text("happy wow\nsad ugh meh calm\n")
    (cli / "stdin.txt").write_text("angry yay\nunseen words here\n")
    configs = {"cli": f"train_path={cli / 'train.tsv'}\ndev_path={cli / 'dev.tsv'}\n" + CLI_CONFIG}
    cases = {"cli": dict(data=cli / "dev.tsv", lines=cli / "lines.txt", stdin=cli / "stdin.txt")}
    for name, workload in worker.WORKLOADS.items():
        (inputs / name).mkdir()
        paths = worker.make_inputs(workload, 1, inputs / name)
        configs[name] = (
            f"train_path={paths['train.tsv']}\ndev_path={paths['dev.tsv']}\n"
            f"test_path={paths['test.tsv']}\nembeddings_path={paths['vectors.txt']}\n" + WORKLOAD_CONFIG
        )
        cases[name] = dict(data=paths["test.tsv"], lines=paths["chunks"][0], stdin=paths["chunks"][1])
    for name, case in cases.items():
        case["config"] = inputs / f"{name}.cfg"
        case["config"].write_text(configs[name] + "checkpoint_path=best.ckpt\nlog_path=log.tsv\n")
    return cases


def panemo(tree: Path, cwd: Path, *args: str, stdin: bytes | None = None) -> bytes:
    """Exit status, stdout and stderr of one ``panemo`` command run on ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "panemo.cli", *args],
        cwd=cwd, env=env, input=stdin, capture_output=True, timeout=CHILD_TIMEOUT_S,
    )
    return b"exit %d\n--- stdout\n%s--- stderr\n%s" % (done.returncode, done.stdout, done.stderr)


def read(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b"(missing)"


def log_without_elapsed(path: Path) -> bytes:
    if not path.exists():
        return b"(missing)"
    return b"".join(line.rpartition(b"\t")[0] + b"\n" for line in path.read_bytes().splitlines())


def outputs(tree: Path, work: Path, cases: dict[str, dict]) -> dict[str, bytes]:
    """Every compared output of ``tree``, by name; runs write under ``work``."""
    out = {}
    for name, case in cases.items():
        run_dir = work / name
        run_dir.mkdir(parents=True)
        out[f"train {name}: output"] = panemo(tree, run_dir, "train", "--config", str(case["config"]))
        out[f"train {name}: checkpoint"] = read(run_dir / "best.ckpt")
        out[f"train {name}: log"] = log_without_elapsed(run_dir / "log.tsv")
        out[f"evaluate {name}: output"] = panemo(
            tree, run_dir, "evaluate", "--checkpoint", "best.ckpt", "--data", str(case["data"])
        )
        out[f"predict {name} --input: output"] = panemo(
            tree, run_dir, "predict", "--checkpoint", "best.ckpt", "--input", str(case["lines"])
        )
        out[f"predict {name} stdin: output"] = panemo(
            tree, run_dir, "predict", "--checkpoint", "best.ckpt", stdin=case["stdin"].read_bytes()
        )
    out["gradcheck --seed 7: output"] = panemo(tree, work, "gradcheck", "--seed", "7")
    out["gradcheck --seed 7 --train-mode: output"] = panemo(tree, work, "gradcheck", "--seed", "7", "--train-mode")
    out["selftest --quick: output"] = panemo(tree, work, "selftest", "--quick")
    return out


def blas_core() -> str:
    """The CPU kernel the loaded BLAS library runs, as OpenBLAS names it, or
    ``unknown`` when no loaded BLAS library reports one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
                if hasattr(handle, sym):
                    corename = getattr(handle, sym)
                    corename.argtypes, corename.restype = [], ctypes.c_char_p
                    return corename().decode()
    except OSError:
        pass
    return "unknown"


def summary(data: bytes) -> str:
    """The one stdout line of a short output, else a digest."""
    lines = data.splitlines()
    if lines[:2] == [b"exit 0", b"--- stdout"] and lines[3:] == [b"--- stderr"] and len(lines[2]) <= 60:
        return lines[2].decode()
    return f"{len(data)} bytes, sha256 {hashlib.sha256(data).hexdigest()[:16]}"


def changed_lines(want: bytes, got: bytes) -> list[str]:
    """The lines removed from ``want`` and added in ``got``, in ``difflib.ndiff``
    form and at most ``DIFF_LINES`` of them; none when either is not UTF-8."""
    try:
        old, new = want.decode(), got.decode()
    except UnicodeDecodeError:
        return []
    lines = [line for line in difflib.ndiff(old.splitlines(), new.splitlines()) if line[:2] in ("- ", "+ ")]
    return lines[:DIFF_LINES]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    rev = subprocess.run(
        ["git", "rev-parse", "--verify", args.base + "^{commit}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="same_bits-") as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base, filter="data")
        inputs = tmp / "inputs"
        inputs.mkdir()
        cases = make_cases(inputs)
        got_base = outputs(base, tmp / "runs-base", cases)
        got_here = outputs(ROOT, tmp / "runs-here", cases)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    print(
        f"base {rev[:12]} against the working tree at {ROOT}, 1 BLAS thread, "
        f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')} running {blas_core()} kernels"
    )
    differ = 0
    for name, want in got_base.items():
        same = got_here[name] == want
        differ += not same
        print(f"{'same  ' if same else 'DIFFER'}  {name}  [{summary(want) if same else 'base and working tree differ'}]")
        if not same:
            for line in changed_lines(want, got_here[name]):
                print(f"          {line}")
    print(f"{len(got_base) - differ} of {len(got_base)} outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
