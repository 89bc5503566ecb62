"""Run-to-run spread of the end-to-end metrics.

    python3 bench/steady.py --runs 10 [--workloads mc-large,cli-cold] [--first-seed 1] [--out FILE]

Runs `bench/run.py --trace 0` once per seed (first-seed .. first-seed+runs-1)
for each workload, one run at a time, and prints for every end-to-end metric
the median, the quartiles and the spread (Q3 - Q1) / median, flagging
spreads at or above a third of the metric's bound in BENCHMARK.json; then the
same figures, unflagged, for the workload's own metrics from the detail line.
With --out, writes the per-run values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartiles(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def line(s: dict[str, float]) -> str:
    return f"median {s['median']:<14.6g} q1 {s['q1']:<14.6g} q3 {s['q3']:<14.6g} spread {s['spread']:.4f}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **result, "detail": json.loads(lines[-2])["metrics"]})
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
        summary = {}
        for m in spec["end_to_end"]:
            s = quartiles([r["metrics"][m["name"]]["value"] for r in runs])
            summary[m["name"]] = {**s, "bound": m["bound"]}
            flag = "" if s["spread"] < m["bound"] / 3 else ("  >= bound/3" if s["spread"] < m["bound"] else "  >= BOUND")
            print(f"{workload:12s} {m['name']:20s} {line(s)} (bound {m['bound']}){flag}")
        detail = {}
        for name, first in runs[0]["detail"].items():
            if isinstance(first["value"], (int, float)) and all(r["detail"][name]["value"] is not None for r in runs):
                detail[name] = {**quartiles([r["detail"][name]["value"] for r in runs]), "unit": first["unit"]}
                print(f"{workload:12s} {name:20s} {line(detail[name])} {first['unit']}")
        report[workload] = {"runs": runs, "summary": summary, "detail": detail}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
