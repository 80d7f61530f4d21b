"""Run one workload once per seed and summarise each metric's spread.

    python3 bench/repeat.py --workload cohort --seeds 1-10 --seconds 35 \\
        [--trace 0] [--json FILE]

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, which is the figure the benchmark's bounds apply to. With
``--json`` it also writes every run's values. Runs are sequential, so they
do not compete with each other for the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "min": min(values),
        "max": max(values),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="FILE")
    args = parser.parse_args(argv)

    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed, **result})
        shown = [] if args.trace else [
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
        ]
        print(f"seed {seed}: {result['attempted']} ops", *shown, sep=", ", flush=True)

    summary = {}
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        summary[metric] = {
            "unit": runs[0]["metrics"][metric]["unit"],
            **summarise(values),
        }
        s = summary[metric]
        print(f"{metric:40s} median {s['median']:.6g} {s['unit']}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.json:
        Path(args.json).write_text(
            json.dumps({"workload": args.workload, "seconds": args.seconds,
                        "trace": args.trace, "runs": runs, "summary": summary},
                       indent=1) + "\n",
            encoding="utf-8",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
