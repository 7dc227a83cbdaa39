"""panemo benchmark: one run of one workload.

    python3 perfbench/run.py --workload train_tweets --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; panemo is imported from ``src/``.
The run happens in a child process so that its peak memory is its own, with
BLAS limited to one thread. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). The lines before it give the sample counts, the tail
percentile and the machine. The full result, and with ``--trace 1`` the
spans, are written under ``.perfbench/`` in the checkout.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
CHILD_TIMEOUT_S = 170

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "panemo" / "__init__.py").is_file():
        print(f"error: no panemo sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as child:
        try:
            out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"error: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
    if child.returncode != 0:
        print(f"error: benchmark run failed with exit code {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (workdir / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    metrics = result["layers"] if args.trace else result["metrics"]
    if result.get("absent"):
        print("absent (target function gone): " + ", ".join(result["absent"]))
    for key, val in result["detail"].items():
        print(f"{key}: {val}")
    print("machine: " + json.dumps(result["machine"]))
    for f in result["failures"]:
        print(f"FAILED: {f}")
    for key, m in metrics.items():
        print(f"{key} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
