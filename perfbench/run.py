"""ShamFinder end-to-end benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scan_zone --seed 1 --seconds 10 --trace 0

Workloads: ``scan_zone``, ``scan_idn``, ``serve_stream``, ``serve_bulk``
(see ``perfbench/README.md``).  With ``--trace 0`` the last line of
standard output is the end-to-end result; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  Every run checks the program's
outputs; the exit code is 0 when they are correct, 1 when a check failed
and 2 when the benchmark could not run at all (no program source, or a
configuration with more busy processes than CPUs).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import layers
import scan
import serve
from common import HERE, ROOT, SRC, Context

#: End-to-end metrics every workload reports, with units.
E2E_METRICS: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("domains_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
)


def calibrate() -> float:
    """Median milliseconds of a fixed pure-Python loop (host speed probe)."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return sorted(times)[len(times) // 2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ShamFinder end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    workloads = {
        "scan_zone": (scan.run_zone, scan.BUSY_PROCESSES),
        "scan_idn": (scan.run_idn, scan.BUSY_PROCESSES),
        "serve_stream": (serve.run_stream, serve.BUSY_PROCESSES),
        "serve_bulk": (serve.run_bulk, serve.BUSY_PROCESSES),
    }
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(workloads)})", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    run, busy = workloads[args.workload]
    nproc = len(os.sched_getaffinity(0))
    if busy > nproc:
        print(f"perfbench: {args.workload} keeps {busy} processes busy but only "
              f"{nproc} CPUs are available", file=sys.stderr)
        return 2

    # The program must build its database cold: no shared artifact cache.
    env = {key: value for key, value in os.environ.items() if key != "SHAMFINDER_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    context = Context(args.seed, args.seconds, bool(args.trace), workdir, env)
    try:
        calib = [calibrate()]
        outcome = run(context)
        calib.append(calibrate())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        outcome.metrics["host.calib_ms"] = max(calib)
        units = {name: unit for name, unit, _ in layers.LAYER_METRICS}
    else:
        units = dict(E2E_METRICS)
    missing = set(units) - set(outcome.metrics)
    outcome.check(not missing, f"metrics not measured: {sorted(missing)}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "nproc": nproc,
                      "busy_processes": busy, "host_calib_ms": calib,
                      "problems": outcome.problems, **outcome.info}))
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not outcome.problems else 1


if __name__ == "__main__":
    sys.exit(main())
