"""The scan workloads: ``StreamingScanner.scan_file`` over a zone and an IDN list.

``scan_zone`` is the common Step I-III job: a .com-like dump of two
million distinct names, 0.67 % of them IDNs.  Most of a pass goes to
reading, chunking, the Step II filter, sink writes and checkpoints;
detection is the smaller part.  ``scan_idn`` is the Step II output: only
``xn--`` names, about a third homographs, so IDN parsing, the re-check and
building detections dominate and the Step II filter does almost nothing.

Each run starts the scan process (``scanproc.py``) three times from cold:
one start also computes the one-shot ``ShamFinder.detect`` oracle, one
only sets up, and the last times passes over the input.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import time

import inputs
import layers
from common import SETUPS, Context, Outcome
from stats import percentile
from tracer import Spans

#: The scan process is the only busy one.
BUSY_PROCESSES = 1
#: Names in the scan_idn input (a pass takes about three seconds).
IDN_NAMES = 60_000
#: A child that has not answered by then is stuck.
CHILD_TIMEOUT = 150


def _child(context: Context, mode: str, *extra: object) -> dict:
    paths = ("--input", context.workdir / "input.txt",
             "--reference-file", context.workdir / "reference.txt",
             "--workdir", context.workdir)
    started = time.perf_counter()
    done = subprocess.run(
        context.script("scanproc.py", mode, "--started", repr(started), *paths, *extra),
        env=context.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"scan process ({mode}) failed with code {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def _write_inputs(context: Context, zone: bool) -> int:
    reference = inputs.reference_domains()
    inputs.write(context.workdir / "reference.txt", reference)
    if zone:
        idns = inputs.zone_idns(context.seed, inputs.ZONE_NAMES, reference)
        body = inputs.zone_lines(context.seed, inputs.ZONE_NAMES, idns)
        inputs.write(context.workdir / "input.txt", body)
        return inputs.ZONE_NAMES
    inputs.write(context.workdir / "input.txt",
                 inputs.idn_pool(context.seed, IDN_NAMES, reference))
    return IDN_NAMES


def _check_pass(outcome: Outcome, scan: dict, names: int, oracle: dict) -> None:
    outcome.check(scan["domains"] == names,
                  f"pass read {scan['domains']} names, the input has {names}")
    outcome.check(scan["digest"] == oracle["digest"],
                  "scan sink differs from the one-shot ShamFinder.detect result")
    outcome.check(scan["detections"] == oracle["detections"],
                  f"scan found {scan['detections']} detections, detect() {oracle['detections']}")


def _run(context: Context, zone: bool) -> Outcome:
    names = _write_inputs(context, zone)
    outcome = Outcome()
    if context.trace:
        return _traced(context, names, outcome)
    runs = [_child(context, "oracle"), *[_child(context, "setup") for _ in range(SETUPS - 2)]]
    measured = _child(context, "measure", "--seconds", context.seconds)
    runs.append(measured)
    oracle = runs[0]["oracle"]
    passes = measured["passes"]
    for scan in passes:
        _check_pass(outcome, scan, names, oracle)
    outcome.attempted = sum(scan["domains"] for scan in passes)
    outcome.failed = sum(scan["skipped"] for scan in passes)
    # Each figure is taken per pass and the median over passes reported, so
    # a burst of host noise during one pass does not move the run's result.
    chunks_ms = [[seconds * 1e3 for seconds in scan["chunks"]] for scan in passes]
    outcome.metrics = {
        "setup_s": statistics.median([run["setup_s"] for run in runs]),
        "peak_rss_mb": measured["peak_rss_mb"],
        "domains_per_s": statistics.median([scan["domains"] / scan["seconds"] for scan in passes]),
        "p50_ms": statistics.median([percentile(chunks, 50) for chunks in chunks_ms]),
        "p90_ms": statistics.median([percentile(chunks, 90) for chunks in chunks_ms]),
    }
    outcome.info = {"setups_s": [run["setup_s"] for run in runs],
                    "passes_s": [scan["seconds"] for scan in passes]}
    return outcome


def _traced(context: Context, names: int, outcome: Outcome) -> Outcome:
    trace_dir = context.workdir / "trace"
    trace_dir.mkdir()
    measured = _child(context, "trace", "--trace-dir", trace_dir)
    oracle, traced = measured["oracle"], measured["traced"]
    for scan in [*measured["passes"], traced]:
        _check_pass(outcome, scan, names, oracle)
    outcome.attempted = traced["domains"]
    outcome.failed = traced["skipped"]

    spans = Spans.load(trace_dir)
    window = (traced["start"], traced["end"])
    outcome.metrics = layers.zeros()
    untraced = statistics.median([scan["seconds"] for scan in measured["passes"]])
    outcome.metrics.update(layers.build_metrics(spans, (0.0, measured["ready"])))
    outcome.metrics.update(layers.work_metrics(spans, window))
    # The pass runs inside scan_file, whose own time is a layer: no residual.
    outcome.metrics["trace.accounted_ratio"] = layers.check_accounting(
        outcome, outcome.metrics, 0.0, traced["seconds"])
    outcome.metrics["trace.slowdown"] = traced["seconds"] / untraced
    return outcome


def run_zone(context: Context) -> Outcome:
    """The ``scan_zone`` workload."""
    return _run(context, zone=True)


def run_idn(context: Context) -> Outcome:
    """The ``scan_idn`` workload."""
    return _run(context, zone=False)
