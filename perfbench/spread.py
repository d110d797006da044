"""Run one workload under several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload scan_zone --seeds 1-10 --seconds 10

Prints, per end-to-end metric, the median of the runs and the distance
between the first and third quartile as a share of that median — the
figure each metric's bound in ``BENCHMARK.json`` is set against.  The
bounds were chosen so that this spread stays below a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import relative_spread

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {metric["name"]: metric.get("bound")
              for metric in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"seed {seed}: rc={done.returncode} correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        if len(series) < 2 or not statistics.median(series):
            continue
        bound = bounds.get(name)
        note = f"  bound {bound}" if bound is not None else ""
        print(f"{name}: median {statistics.median(series):.6g}  spread {relative_spread(series):.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
