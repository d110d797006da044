"""The process under test for the scan workloads.

It does what ``repro scan -i INPUT -o OUT --reference-file REFS`` does —
default database, default chunk size, ``jobs=1``, the Step II filter on
and a checkpoint per chunk — but keeps the set-up so it can time several
passes over the same input:

* ``setup``: build, warm up, report the set-up time and exit;
* ``oracle``: the same, then compute the one-shot ``ShamFinder.detect``
  result over the input's IDNs, the reference the sinks must equal;
* ``measure``: build, warm up, then scan the input in timed passes until
  ``--seconds`` have passed (at least ``MIN_PASSES``);
* ``trace``: like ``measure`` with the layer wrappers installed for the
  set-up, taken out for the untraced passes and put back for one traced
  pass; the spans are written to ``--trace-dir``.

It prints one JSON object on standard output.  Run by ``scan.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from pathlib import Path

#: Warm-up input: one default-size chunk of the input, led by its first
#: IDNs: twice the 8 parsed IDNs at which ``detect_prepared`` first builds
#: the batch kernel, so the first chunk always builds it.
WARM_LINES = 2_000
WARM_IDNS = 16
#: Timed passes per run at least (the run goes on until ``--seconds``).
MIN_PASSES = 4
#: Untraced passes a traced run times first, to report tracing overhead.
UNTRACED_PASSES = 2


def peak_rss_mb() -> float:
    """This process's peak resident memory (``VmHWM``).

    Not ``getrusage``: on Linux its maximum survives ``exec`` and so can
    report the memory of the parent that started this process.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _digest(path: Path) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()


def _oracle(finder, input_path: Path, reference: list[str]) -> dict:
    """One-shot detection over the input's IDNs, encoded as the sink would be."""
    names = input_path.read_text(encoding="utf-8").splitlines()
    idns = [name for name in names if name.rsplit(".", 2)[-2].startswith("xn--")]
    report = finder.detect(idns, reference)
    body = "".join(json.dumps(d.as_dict(), ensure_ascii=False) + "\n" for d in report)
    return {"digest": hashlib.sha256(body.encode("utf-8")).hexdigest(),
            "detections": len(report), "idns": len(idns)}


def warm_lines(path: Path) -> list[str]:
    """The input's first ``WARM_IDNS`` IDN lines, then its first ``WARM_LINES`` lines."""
    head: list[str] = []
    idns: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if len(head) < WARM_LINES:
                head.append(line)
            if len(idns) < WARM_IDNS and line.startswith("xn--"):
                idns.append(line)
            if len(head) == WARM_LINES and len(idns) == WARM_IDNS:
                break
    return idns + head


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "oracle", "measure", "trace"))
    parser.add_argument("--started", type=float, required=True,
                        help="perf_counter() reading taken just before this process was started")
    parser.add_argument("--input", type=Path, required=True)
    parser.add_argument("--reference-file", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args()

    uninstall = None
    if args.mode == "trace":
        import layers
        from tracer import Tracer

        tracer = Tracer()
        uninstall = layers.install(tracer)

    from repro.detection.shamfinder import ShamFinder
    from repro.detection.stream import StreamingScanner

    reference = args.reference_file.read_text(encoding="utf-8").splitlines()
    finder = ShamFinder.with_default_databases()
    scanner = StreamingScanner(finder, reference)
    scanner.scan(warm_lines(args.input), args.workdir / "warm.jsonl")
    ready = time.perf_counter()
    result: dict = {"setup_s": ready - args.started, "ready": ready}

    if args.mode == "oracle":
        result["oracle"] = _oracle(finder, args.input, reference)
    if args.mode in ("measure", "trace"):
        sink = args.workdir / "scan.jsonl"
        passes = []

        def one_pass() -> dict:
            # progress() runs once per chunk, after its checkpoint is saved:
            # the time between calls is how long a chunk takes to become durable.
            marks = [time.perf_counter()]
            stats = scanner.scan_file(args.input, sink,
                                      progress=lambda _: marks.append(time.perf_counter()))
            start, end = marks[0], time.perf_counter()
            chunks = [b - a for a, b in zip(marks, marks[1:])]
            return {"start": start, "end": end, "seconds": end - start, "chunks": chunks,
                    "domains": stats.domains_seen, "idns": stats.idn_count,
                    "skipped": stats.skipped_count, "detections": stats.detection_count,
                    "digest": _digest(sink)}

        if args.mode == "trace":
            uninstall()
            passes = [one_pass() for _ in range(UNTRACED_PASSES)]
            uninstall = layers.install(tracer)
            result["traced"] = one_pass()
            uninstall()
            tracer.dump(args.trace_dir)
            result["oracle"] = _oracle(finder, args.input, reference)
        else:
            while len(passes) < MIN_PASSES or sum(p["seconds"] for p in passes) < args.seconds:
                passes.append(one_pass())
        result["passes"] = passes
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
