"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads train_tweets infer_cli --seeds 1-10 --out summary.json

For every workload and metric it prints the median, the quartiles (from
``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json. Runs go one after
another, never in parallel, so that they do not disturb each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="write the summary and every run's metrics to this JSON file")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            values = {k: m["value"] for k, m in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"], "failed": result["failed"], "metrics": values})
            print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr, flush=True)
        table = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs if r["metrics"][name] is not None]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            table[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
            print(f"{workload:13s} {name:22s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {(q3 - q1) / med:.4f}  bound {bounds[name]}")
        full = ROOT / ".perfbench" / f"result-{workload}-seed{args.seeds[-1]}-trace0.json"
        machine = json.loads(full.read_text(encoding="utf-8"))["machine"]
        summary[workload] = {"machine": machine, "summary": table, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
