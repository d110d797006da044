"""The serve workloads: ``repro serve --listen`` under two kinds of traffic.

``serve_stream`` is independent users each checking one name: single-name
JSONL requests over two connections, sent open-loop on a Poisson schedule
at 2,000 requests/s (about a sixth of where the inline server saturates),
names drawn with Zipf popularity from the scan_zone population (0.67 % of
requests ask about an IDN) so repeated names reach the detector's LRU.
The batch window, the executor hop and per-request parse and encode set
the latency; there is little queueing.

``serve_bulk`` is a registrar or CT-feed batch check: one closed-loop
client posts ~1,000 distinct names per ``POST /query`` to a server with
``--workers 1`` and a freshly built ``--index-dir``.  Batches fill to
``max_batch`` with no window wait; it is the only workload through HTTP
framing, bulk admission, the mmap index attach and the worker IPC hop.

Each run starts the server three times from cold, with no artifact cache;
set-up runs from the start of the process to the end of a warm-up that
finishes its lazy set-up (the batch kernel's fold table is built on the
first batch).  The last server is then measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import layers
import numpy as np
from common import SETUPS, Context, Outcome
from loadgen import exchange
from stats import percentile
from tracer import Spans

#: serve_stream: the server and the load generator; serve_bulk: the server
#: and its worker (the closed-loop client is idle while either works).
BUSY_PROCESSES = 2
#: Offered open-loop rate of serve_stream, requests per second.
RATE = 2000.0
CONNECTIONS = 2
#: Popularity skew of serve_stream's names: rank r is asked with weight
#: 1 / r**ZIPF_S.  An assumption, not measured: no traffic trace was at hand.
ZIPF_S = 1.0
#: Requests in serve_stream's warm-up burst, drawn like the timed traffic.
WARM_REQUESTS = 2_000
#: Timed traffic is split into this many phases; metrics are their median.
PHASES = 16
#: serve_bulk's phases: groups of consecutive exchanges (about 25 each).
BULK_PHASES = 8
#: serve_bulk: names per request body (below the default --max-pending of
#: 1024, beyond which a body is rejected whole) and distinct bodies sent in turn.
BULK_NAMES = 1_000
BULK_BODIES = 32
WARM_BODIES = 3
#: Requests in each half of the traced serve_bulk run: a fixed amount of
#: work, so the traced counts repeat exactly under one seed.
TRACED_BULK_REQUESTS = 2 * BULK_BODIES
START_TIMEOUT = 90.0
STOP_TIMEOUT = 30.0


class Server:
    """One ``repro serve --listen`` process, plain or through the tracing launcher."""

    def __init__(self, context: Context, args: list[str], trace_dir: Path | None = None) -> None:
        self.started = time.perf_counter()
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.cli", "serve", *args]
        else:
            command = context.script("launcher.py", trace_dir, "serve", *args)
        self.proc = subprocess.Popen(command, env=context.env, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self._tail: list[bytes] = []
        try:
            line = self._first_line()
            info = json.loads(line)
        except (ValueError, RuntimeError):
            self.stop()
            raise RuntimeError("server did not start:\n"
                               + b"".join(self._tail).decode(errors="replace")[-2000:]) from None
        host, _, port = info["listening"].rpartition(":")
        self.address = (host, int(port))
        self.fingerprint = info["fingerprint"]
        self._drain = threading.Thread(target=self._collect, daemon=True)
        self._drain.start()

    def _first_line(self) -> bytes:
        deadline = time.perf_counter() + START_TIMEOUT
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stderr], [], [], 0.5)
            if ready:
                line = self.proc.stderr.readline()
                if not line:
                    raise RuntimeError("server exited")
                if line.startswith(b"{"):
                    return line
                self._tail.append(line)
        raise RuntimeError("server start timed out")

    def _collect(self) -> None:
        for line in self.proc.stderr:
            self._tail.append(line)
            del self._tail[:-50]

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server and its worker processes."""
        total = 0.0
        for pid in [self.proc.pid, *_children(self.proc.pid)]:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024
        return total

    def stop(self) -> int:
        """Graceful SIGTERM drain; killed if it does not end in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if hasattr(self, "_drain"):
            self._drain.join(STOP_TIMEOUT)
        self.proc.stderr.close()
        return self.proc.returncode


def _children(pid: int) -> list[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(child) for child in text.split()]


def _expected_verdicts(reference: list[str], names: list[str]) -> tuple[str, dict[str, dict]]:
    """Cache-free ``OnlineDetector.query_many`` verdicts for *names*, by name."""
    from repro.detection.index import build_reference_index
    from repro.detection.service import OnlineDetector
    from repro.detection.shamfinder import ShamFinder

    finder = ShamFinder.with_default_databases()
    index = build_reference_index(finder, reference)
    detector = OnlineDetector(finder, index, cache_size=0)
    distinct = sorted(set(names))
    verdicts = detector.query_many(distinct, index=index)
    return index.fingerprint, {name: v.as_dict() for name, v in zip(distinct, verdicts)}


# -- serve_stream ---------------------------------------------------------------


def _warm_stream(server: Server, names: list[str]) -> float:
    """Pipelined burst of single-name requests, 100 at a time per connection."""
    conns = [socket.create_connection(server.address) for _ in range(CONNECTIONS)]
    try:
        for start in range(0, len(names), 100):
            sock = conns[(start // 100) % CONNECTIONS]
            batch = names[start:start + 100]
            sock.sendall("".join(json.dumps({"domain": n}) + "\n" for n in batch).encode())
            received = b""
            while received.count(b"\n") < len(batch):
                data = sock.recv(1 << 18)
                if not data:
                    raise ConnectionError("server closed the warm-up connection")
                received += data
            if b'"error"' in received:
                raise RuntimeError("warm-up request failed: " + received[:200].decode())
    finally:
        for sock in conns:
            sock.close()
    return time.perf_counter()


def _stream_phase(context: Context, server: Server, tag: str) -> dict[str, np.ndarray]:
    out = context.workdir / f"stream-{tag}.npz"
    subprocess.run(
        context.script("loadgen.py", "stream", "--address", "%s:%d" % server.address,
                       "--names", context.workdir / "names.txt",
                       "--schedule", context.workdir / "schedule.npz", "--out", out),
        env=context.env, check=True, timeout=context.seconds + 120,
    )
    with np.load(out) as data:
        return {key: data[key] for key in data.files}


def _stream_check(outcome: Outcome, result: dict, schedule: dict, names: list[str],
                  fingerprint: str, verdicts: dict[str, dict]) -> np.ndarray:
    """Check every reply; returns per-request latency in ms (inf when failed)."""
    from repro.serving.protocol import encode_reply, verdict_reply

    ends = np.cumsum(result["lengths"])
    blob = result["replies"].tobytes()
    latency = (result["arrived"] - result["scheduled"]) * 1e3
    wrong = 0
    for i, name_index in enumerate(schedule["name"].tolist()):
        reply = blob[ends[i] - result["lengths"][i]:ends[i]]
        if not reply or reply.startswith(b'{"error"'):
            latency[i] = math.inf
            continue
        expected = encode_reply(verdict_reply(verdicts[names[name_index]], fingerprint, i))
        if reply != expected:
            wrong += 1
            latency[i] = math.inf
    latency[np.isnan(latency)] = math.inf
    outcome.check(wrong == 0, f"{wrong} replies differ from the cache-free detector's verdicts")
    # Failed: missing, error and overload replies.  A wrong verdict is not a
    # failed operation but an incorrect output, reported above.
    outcome.attempted += len(latency)
    outcome.failed += int(np.count_nonzero(np.isinf(latency))) - wrong
    return latency


def _phase_metrics(result: dict, latency_ms: np.ndarray, offsets: np.ndarray,
                   seconds: float) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Median over phases of p50, p90 and answered names per second.

    A phase is a slice of the schedule; its rate is the requests it
    answered over the time from its first scheduled send to its last reply.
    Returns the metrics and, for diagnosis, each phase's percentiles.
    """
    bounds = np.linspace(0.0, seconds, PHASES + 1)
    p50, p90, rate = [], [], []
    for low, high in zip(bounds, bounds[1:]):
        phase = (offsets >= low) & (offsets < high)
        mine = latency_ms[phase].tolist()
        p50.append(percentile(mine, 50))
        p90.append(percentile(mine, 90))
        answered = phase & np.isfinite(latency_ms)
        span = np.max(result["arrived"][answered]) - np.min(result["scheduled"][phase])
        rate.append(np.count_nonzero(answered) / span)
    metrics = {"p50_ms": statistics.median(p50), "p90_ms": statistics.median(p90),
               "domains_per_s": float(statistics.median(rate))}
    return metrics, {"phase_p50_ms": p50, "phase_p90_ms": p90}


def _stream_inputs(context: Context, seconds: float) -> dict:
    """Write serve_stream's reference, names and schedule; returns what checks need."""
    reference = inputs.reference_domains()
    inputs.write(context.workdir / "reference.txt", reference)
    population = inputs.zone_population(context.seed, inputs.ZONE_NAMES, reference)
    is_idn = np.fromiter((name.startswith("xn--") for name in population), dtype=bool,
                         count=len(population))
    schedule = inputs.poisson_schedule(context.seed, RATE, seconds, CONNECTIONS, is_idn, ZIPF_S)
    warm = inputs.request_names(context.seed, WARM_REQUESTS, is_idn, ZIPF_S, draw=1)
    idn_share = float(is_idn[schedule["name"]].mean())
    # The load generator gets only the names asked about; indexes follow them.
    asked = np.unique(np.concatenate([schedule["name"], warm]))
    names = [population[i] for i in asked.tolist()]
    del population
    schedule["name"] = np.searchsorted(asked, schedule["name"])
    inputs.write(context.workdir / "names.txt", names)
    np.savez(context.workdir / "schedule.npz", **schedule)
    return {"reference": reference, "names": names, "schedule": schedule,
            "warm": [names[i] for i in np.searchsorted(asked, warm).tolist()],
            "idn_share": idn_share}


def _stream_verdicts(stream: dict) -> tuple[str, dict[str, dict]]:
    names = stream["names"]
    return _expected_verdicts(stream["reference"],
                              [names[i] for i in np.unique(stream["schedule"]["name"]).tolist()])


def _loadgen_health(result: dict, latency_ms: np.ndarray) -> dict[str, float]:
    late = (result["sent"] - result["scheduled"]) * 1e3
    scheduled = result["scheduled"]
    span = scheduled[-1] - scheduled[0]
    sent_span = np.nanmax(result["sent"]) - scheduled[0]
    return {
        "serving.p99_ms": percentile(latency_ms.tolist(), 99),
        "loadgen.late_p50_ms": percentile(late[~np.isnan(late)].tolist(), 50),
        "loadgen.late_max_ms": float(np.nanmax(late)),
        "loadgen.achieved_ratio": (np.count_nonzero(~np.isnan(result["sent"])) / sent_span)
        / (len(scheduled) / span),
    }


def run_stream(context: Context) -> Outcome:
    """The ``serve_stream`` workload."""
    outcome = Outcome()
    seconds = context.seconds / 2 if context.trace else context.seconds
    stream = _stream_inputs(context, seconds)
    args = ["--listen", "127.0.0.1:0", "--reference-file", str(context.workdir / "reference.txt")]
    if context.trace:
        return _traced_stream(context, outcome, args, stream, seconds)

    setups = []
    for _ in range(SETUPS - 1):
        server = Server(context, args)
        try:
            setups.append(_warm_stream(server, stream["warm"]) - server.started)
        finally:
            outcome.check(server.stop() == 0, "server did not shut down cleanly")
    server = Server(context, args)
    try:
        setups.append(_warm_stream(server, stream["warm"]) - server.started)
        result = _stream_phase(context, server, "timed")
        peak = server.peak_rss_mb()
    finally:
        outcome.check(server.stop() == 0, "server did not shut down cleanly")
    fingerprint, verdicts = _stream_verdicts(stream)
    outcome.check(server.fingerprint == fingerprint, "server index fingerprint differs")
    schedule = stream["schedule"]
    latency = _stream_check(outcome, result, schedule, stream["names"], fingerprint, verdicts)
    phases, outcome.info = _phase_metrics(result, latency, schedule["offset"], seconds)
    outcome.info["setups_s"] = setups
    outcome.info["idn_request_share"] = stream["idn_share"]
    outcome.metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": peak, **phases}
    return outcome


def _traced_stream(context: Context, outcome: Outcome, args: list[str], stream: dict,
                   seconds: float) -> Outcome:
    server = Server(context, args)
    try:
        _warm_stream(server, stream["warm"])
        plain = _stream_phase(context, server, "plain")
    finally:
        outcome.check(server.stop() == 0, "server did not shut down cleanly")
    trace_dir = context.workdir / "trace"
    trace_dir.mkdir()
    server = Server(context, args, trace_dir)
    try:
        _warm_stream(server, stream["warm"])
        traced = _stream_phase(context, server, "traced")
    finally:
        outcome.check(server.stop() == 0, "traced server did not shut down cleanly")

    fingerprint, verdicts = _stream_verdicts(stream)
    schedule, names = stream["schedule"], stream["names"]
    plain_latency = _stream_check(outcome, plain, schedule, names, fingerprint, verdicts)
    traced_latency = _stream_check(outcome, traced, schedule, names, fingerprint, verdicts)
    spans = Spans.load(trace_dir)
    window = (float(traced["scheduled"][0]), float(np.nanmax(traced["arrived"])))
    metrics = layers.zeros()
    metrics.update(layers.build_metrics(spans, (0.0, window[0])))
    metrics.update(layers.work_metrics(spans, window))
    answered = np.flatnonzero(np.isfinite(traced_latency))
    latency_s = traced_latency[answered] / 1e3
    waits = layers.stream_waits(spans, window, answered, latency_s)
    metrics.update(layers.wait_ms(waits))
    metrics.update(_loadgen_health(plain, plain_latency))
    metrics["loadgen.idn_share"] = stream["idn_share"]
    # Wall: the client's latencies.  Each request waits out its whole batch,
    # so the layers are counted once per request they delay.
    known = ~np.isnan(waits)
    metrics["trace.accounted_ratio"] = layers.check_accounting(
        outcome, layers.work_metrics(layers.per_request(spans), window),
        float(waits[known].sum()), float(latency_s[known].sum()))
    offsets = schedule["offset"]
    metrics["trace.slowdown"] = (_phase_metrics(traced, traced_latency, offsets, seconds)[0]["p50_ms"]
                                 / _phase_metrics(plain, plain_latency, offsets, seconds)[0]["p50_ms"])
    outcome.metrics = metrics
    return outcome


# -- serve_bulk -----------------------------------------------------------------


def _bulk_inputs(context: Context) -> tuple[list[str], list[list[str]]]:
    reference = inputs.reference_domains()
    inputs.write(context.workdir / "reference.txt", reference)
    population = inputs.zone_population(context.seed, BULK_NAMES * BULK_BODIES, reference)
    bodies = [population[i:i + BULK_NAMES] for i in range(0, len(population), BULK_NAMES)]
    (context.workdir / "bodies.jsonl").write_text(
        "".join(json.dumps(body) + "\n" for body in bodies), encoding="utf-8")
    return reference, bodies


def _bulk_args(context: Context, tag: str) -> list[str]:
    return ["--listen", "127.0.0.1:0", "--reference-file", str(context.workdir / "reference.txt"),
            "--workers", "1", "--index-dir", str(context.workdir / f"index-{tag}"),
            "--build-index"]


def _warm_bulk(server: Server, bodies: list[list[str]]) -> float:
    for body in bodies[:WARM_BODIES]:
        status, _ = exchange(*server.address, json.dumps(body).encode())
        if status != 200:
            raise RuntimeError(f"warm-up request failed with HTTP {status}")
    return time.perf_counter()


def _bulk_phase(context: Context, server: Server, tag: str, requests: int = 0) -> dict[str, np.ndarray]:
    """Closed-loop bulk traffic: *requests* exchanges, or ``context.seconds`` of them."""
    out = context.workdir / f"bulk-{tag}.npz"
    subprocess.run(
        context.script("loadgen.py", "bulk", "--address", "%s:%d" % server.address,
                       "--names", context.workdir / "bodies.jsonl",
                       "--seconds", context.seconds, "--requests", requests, "--out", out),
        env=context.env, check=True, timeout=context.seconds + 120,
    )
    with np.load(out) as data:
        return {key: data[key] for key in data.files}


def _bulk_check(outcome: Outcome, result: dict, bodies: list[list[str]], fingerprint: str,
                verdicts: dict[str, dict]) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Check every response; returns the median over phases and, for
    diagnosis, each phase's figures."""
    from repro.serving.protocol import encode_reply, verdict_reply

    expected = []
    for body in bodies:
        encoded = [encode_reply(verdict_reply(verdicts[name], fingerprint)).rstrip(b"\n")
                   for name in body]
        expected.append(hashlib.sha256(b"[" + b",".join(encoded) + b"]\n").hexdigest())
    ok = result["status"] == 200
    wrong = sum(1 for good, body, digest in zip(ok, result["body"], result["digest"])
                if good and digest != expected[body])
    outcome.check(wrong == 0, f"{wrong} bulk responses differ from the cache-free detector's")
    outcome.check(len(ok) >= BULK_PHASES, f"only {len(ok)} bulk requests completed")
    outcome.attempted += len(ok) * BULK_NAMES
    outcome.failed += int(np.count_nonzero(~ok)) * BULK_NAMES
    # Consecutive exchanges form the phases; each figure is the median over them.
    seconds = result["answered"] - result["sent"]
    latency = np.where(ok, seconds * 1e3, math.inf)
    groups = np.array_split(np.arange(len(ok)), BULK_PHASES)
    phases = {
        "domains_per_s": [np.count_nonzero(ok[g]) * BULK_NAMES / seconds[g].sum() for g in groups],
        "p50_ms": [percentile(latency[g].tolist(), 50) for g in groups],
        "p90_ms": [percentile(latency[g].tolist(), 90) for g in groups],
    }
    return ({name: float(statistics.median(values)) for name, values in phases.items()},
            {f"phase_{name}": values for name, values in phases.items()})


def run_bulk(context: Context) -> Outcome:
    """The ``serve_bulk`` workload."""
    outcome = Outcome()
    reference, bodies = _bulk_inputs(context)
    if context.trace:
        return _traced_bulk(context, outcome, reference, bodies)
    setups = []
    for k in range(SETUPS - 1):
        server = Server(context, _bulk_args(context, str(k)))
        try:
            setups.append(_warm_bulk(server, bodies) - server.started)
        finally:
            outcome.check(server.stop() == 0, "server did not shut down cleanly")
    server = Server(context, _bulk_args(context, "timed"))
    try:
        setups.append(_warm_bulk(server, bodies) - server.started)
        result = _bulk_phase(context, server, "timed")
        peak = server.peak_rss_mb()
    finally:
        outcome.check(server.stop() == 0, "server did not shut down cleanly")
    fingerprint, verdicts = _expected_verdicts(reference, [n for body in bodies for n in body])
    outcome.check(server.fingerprint == fingerprint, "server index fingerprint differs")
    phases, outcome.info = _bulk_check(outcome, result, bodies, fingerprint, verdicts)
    outcome.info["setups_s"] = setups
    outcome.metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": peak, **phases}
    return outcome


def _traced_bulk(context, outcome, reference, bodies) -> Outcome:
    server = Server(context, _bulk_args(context, "plain"))
    try:
        _warm_bulk(server, bodies)
        plain = _bulk_phase(context, server, "plain", TRACED_BULK_REQUESTS)
    finally:
        outcome.check(server.stop() == 0, "server did not shut down cleanly")
    trace_dir = context.workdir / "trace"
    trace_dir.mkdir()
    server = Server(context, _bulk_args(context, "traced"), trace_dir)
    try:
        _warm_bulk(server, bodies)
        traced = _bulk_phase(context, server, "traced", TRACED_BULK_REQUESTS)
    finally:
        outcome.check(server.stop() == 0, "traced server did not shut down cleanly")

    fingerprint, verdicts = _expected_verdicts(reference, [n for body in bodies for n in body])
    plain_e2e = _bulk_check(outcome, plain, bodies, fingerprint, verdicts)[0]
    traced_e2e = _bulk_check(outcome, traced, bodies, fingerprint, verdicts)[0]
    spans = Spans.load(trace_dir)
    window = (float(traced["sent"][0]), float(traced["answered"][-1]))
    metrics = layers.zeros()
    metrics.update(layers.build_metrics(spans, (0.0, window[0])))
    metrics.update(layers.work_metrics(spans, window))
    exchanges = list(zip(traced["sent"].tolist(), traced["answered"].tolist()))
    waits = layers.bulk_waits(spans, exchanges)
    metrics.update(layers.wait_ms(waits))
    metrics["serving.server.ipc_ms"] = layers.ipc_ms(spans, window)
    plain_latency = ((plain["answered"] - plain["sent"]) * 1e3).tolist()
    metrics["serving.p99_ms"] = percentile(plain_latency, 99)
    # Wall: the client's exchange times (one exchange in flight at a time).
    metrics["trace.accounted_ratio"] = layers.check_accounting(
        outcome, metrics, float(waits.sum()), float((traced["answered"] - traced["sent"]).sum()))
    metrics["trace.slowdown"] = plain_e2e["domains_per_s"] / traced_e2e["domains_per_s"]
    outcome.metrics = metrics
    return outcome
