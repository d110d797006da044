"""Which calls the traced run wraps, and the per-layer metrics made from them.

The wrappers sit on the public entry of each module the paper's pipeline
passes through, installed from the benchmark's own files (nothing inside
``src/`` is traced):

=========================================  =================================
span                                       wrapped call
=========================================  =================================
``homoglyph.build``                        ``ShamFinder.with_default_databases``
``detection.index.build``                  ``ShamFinder.prepare_references``,
                                           ``cached_reference_index``
``detection.index.attach``                 ``ReferenceIndexStore.load_path``
``detection.batchfold.kernel_for``         ``kernel_for`` (the first call builds)
``detection.batchfold.kernel``             ``BatchFoldKernel.certain_miss_mask``,
                                           ``BatchFoldKernel.domain_certain_miss``
``detection.algorithm.recheck``            ``HomographMatcher.match_with_skeleton_index``
``detection.shamfinder.detect``            ``ShamFinder.detect_prepared``
``idn.parse``                              ``DomainName.__init__``
``detection.stream.scan``                  ``StreamingScanner.scan_file``
``detection.stream.checkpoint``            ``ScanCheckpoint.save``
``detection.service.query_many``           ``OnlineDetector.query_many``
``detection.service.query``                ``OnlineDetector.query``
``serving.protocol.parse``                 ``parse_line``, ``parse_http_request_line``,
                                           ``parse_http_headers``
``serving.protocol.encode``                ``verdict_reply``, ``encode_reply``,
                                           ``http_response``
``serving.worker.batch``                   the worker pool's batch entry
``serving.server.pool_future``             a ``WorkerPool.submit`` future, submit
                                           to completion (recorded, not nested)
=========================================  =================================

A function imported by name into other modules is replaced in every
loaded ``repro`` module that holds it, so the call sites need no change.
"""

from __future__ import annotations

import copy
import sys
import time
from typing import Callable

import numpy as np
from stats import percentile
from tracer import Spans, Tracer

#: Every per-layer metric: name, unit, and which direction is better.  A
#: count of work done is better lower when the same inputs need less of it.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("homoglyph.build_s", "s", "lower"),
    ("detection.index.build_s", "s", "lower"),
    ("detection.index.attach_s", "s", "lower"),
    ("detection.batchfold.build_s", "s", "lower"),
    ("detection.stream.self_s", "s", "lower"),
    ("detection.stream.checkpoint_s", "s", "lower"),
    ("detection.stream.checkpoints", "count", "lower"),
    ("idn.parse_s", "s", "lower"),
    ("idn.parsed", "count", "lower"),
    ("idn.rejected", "count", "lower"),
    ("detection.batchfold.kernel_s", "s", "lower"),
    ("detection.batchfold.labels", "count", "higher"),
    ("detection.batchfold.miss_ratio", "ratio", "higher"),
    ("detection.algorithm.recheck_s", "s", "lower"),
    ("detection.algorithm.rechecks", "count", "lower"),
    ("detection.algorithm.recheck_hit_ratio", "ratio", "higher"),
    ("detection.shamfinder.self_s", "s", "lower"),
    ("detection.detections", "count", "higher"),
    ("serving.protocol.parse_s", "s", "lower"),
    ("serving.protocol.encode_s", "s", "lower"),
    ("serving.worker.self_s", "s", "lower"),
    ("detection.service.query_many_s", "s", "lower"),
    ("detection.service.batches", "count", "lower"),
    ("detection.service.batch_size", "count", "higher"),
    ("detection.service.kernel_batch_share", "ratio", "higher"),
    ("detection.service.scalar_share", "ratio", "lower"),
    ("detection.service.lru_hit_ratio", "ratio", "higher"),
    ("serving.server.wait_p50_ms", "ms", "lower"),
    ("serving.server.wait_p90_ms", "ms", "lower"),
    ("serving.server.ipc_ms", "ms", "lower"),
    ("serving.p99_ms", "ms", "lower"),
    ("loadgen.late_p50_ms", "ms", "lower"),
    ("loadgen.late_max_ms", "ms", "lower"),
    ("loadgen.achieved_ratio", "ratio", "higher"),
    ("loadgen.idn_share", "ratio", "higher"),
    ("host.calib_ms", "ms", "lower"),
    ("trace.accounted_ratio", "ratio", "higher"),
    ("trace.slowdown", "ratio", "lower"),
)


#: The layer times that split the traced busy time between them.  Each is
#: the self time of its spans, so no second is in two of them, and every
#: wrapped call lands in one (``kernel_for`` after its first call is a
#: cache lookup; its self time is left out).
BUSY_LAYERS: tuple[str, ...] = (
    "detection.stream.self_s",
    "detection.stream.checkpoint_s",
    "idn.parse_s",
    "detection.batchfold.kernel_s",
    "detection.algorithm.recheck_s",
    "detection.shamfinder.self_s",
    "detection.service.query_many_s",
    "serving.protocol.parse_s",
    "serving.protocol.encode_s",
    "serving.worker.self_s",
)
#: Largest share by which layer times plus residual may miss the wall time.
ACCOUNTING_TOLERANCE = 0.1


def zeros() -> dict[str, float]:
    """Every per-layer metric at 0: the value of a layer a workload does not reach."""
    return {name: 0.0 for name, _, _ in LAYER_METRICS}


def _request_id(value) -> int:
    return value if isinstance(value, int) and not isinstance(value, bool) else -1


def _arg(args, kwargs, position: int, name: str):
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the traced calls; returns a function that takes the wrappers out."""
    import repro.cli  # noqa: F401  (loads every module that imports a wrapped name)
    from repro.detection import batchfold, index, stream
    from repro.detection.algorithm import HomographMatcher
    from repro.detection.service import OnlineDetector
    from repro.detection.shamfinder import ShamFinder
    from repro.idn.domain import DomainName
    from repro.serving import protocol, server

    undo: list[tuple[object, str, object]] = []

    def on_class(cls, attr: str, name: str, observe=None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(tracer.wrap(name, original.__func__, observe=observe))
        else:
            wrapped = tracer.wrap(name, original, observe=observe)
        setattr(cls, attr, wrapped)
        undo.append((cls, attr, original))

    def everywhere(original, name: str, observe=None) -> None:
        wrapped = tracer.wrap(name, original, observe=observe)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    undo.append((module, attr, original))

    def kernel_observe(args, kwargs, result):
        return -1, len(args[1]), int(np.count_nonzero(result))

    on_class(ShamFinder, "with_default_databases", "homoglyph.build")
    on_class(ShamFinder, "prepare_references", "detection.index.build")
    everywhere(index.cached_reference_index, "detection.index.build")
    on_class(index.ReferenceIndexStore, "load_path", "detection.index.attach")
    everywhere(batchfold.kernel_for, "detection.batchfold.kernel_for")
    on_class(batchfold.BatchFoldKernel, "certain_miss_mask", "detection.batchfold.kernel",
             kernel_observe)
    on_class(batchfold.BatchFoldKernel, "domain_certain_miss", "detection.batchfold.kernel",
             kernel_observe)
    on_class(HomographMatcher, "match_with_skeleton_index", "detection.algorithm.recheck",
             lambda a, k, r: (-1, 1, len(r)))
    on_class(ShamFinder, "detect_prepared", "detection.shamfinder.detect",
             lambda a, k, r: (-1, r[1] + r[2], len(r[0])))
    on_class(DomainName, "__init__", "idn.parse")
    on_class(stream.StreamingScanner, "scan_file", "detection.stream.scan")
    on_class(stream.ScanCheckpoint, "save", "detection.stream.checkpoint")
    on_class(OnlineDetector, "query_many", "detection.service.query_many",
             lambda a, k, r: (-1, len(r), sum(len(v.detections) for v in r)))
    on_class(OnlineDetector, "query", "detection.service.query",
             lambda a, k, r: (-1, 1, len(r.detections)))
    everywhere(protocol.parse_line, "serving.protocol.parse",
               lambda a, k, r: (_request_id(r.id) if r is not None else -1, 0, 0))
    everywhere(protocol.parse_http_request_line, "serving.protocol.parse")
    everywhere(protocol.parse_http_headers, "serving.protocol.parse")
    everywhere(protocol.verdict_reply, "serving.protocol.encode",
               lambda a, k, r: (_request_id(_arg(a, k, 2, "request_id")), 0, 0))
    everywhere(protocol.encode_reply, "serving.protocol.encode",
               lambda a, k, r: (_request_id(a[0].get("id")) if isinstance(a[0], dict) else -1,
                                0, 0))
    everywhere(protocol.http_response, "serving.protocol.encode")
    everywhere(server._pool_query, "serving.worker.batch")

    submit = server.WorkerPool.__dict__["submit"]

    def traced_submit(self, *args, **kwargs):
        start = time.perf_counter()
        future = submit(self, *args, **kwargs)
        future.add_done_callback(
            lambda _: tracer.record("serving.server.pool_future", start, time.perf_counter()))
        return future

    server.WorkerPool.submit = traced_submit
    undo.append((server.WorkerPool, "submit", submit))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return uninstall


# -- metrics -------------------------------------------------------------------


def _seconds(spans: Spans, names: tuple[str, ...], window, field: str = "self_time") -> float:
    selected = np.zeros(len(spans.end), dtype=bool)
    for name in names:
        selected |= spans.select(name, window)
    return float(getattr(spans, field)[selected].sum())


def _count(spans: Spans, name: str, window) -> int:
    return int(np.count_nonzero(spans.select(name, window)))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def build_metrics(spans: Spans, setup_window) -> dict[str, float]:
    """Set-up layer metrics: what the process under test spent before timing."""
    kernel_for = spans.select("detection.batchfold.kernel_for", setup_window)
    first_builds = 0.0
    for pid in np.unique(spans.pid[kernel_for]).tolist():
        mine = np.flatnonzero(kernel_for & (spans.pid == pid))
        first_builds += float(spans.duration[mine[np.argmin(spans.start[mine])]])
    # cached_reference_index calls prepare_references: count the outer span.
    build = spans.select("detection.index.build", setup_window) & ~_under(
        spans, "detection.index.build")
    return {
        "homoglyph.build_s": _seconds(spans, ("homoglyph.build",), setup_window, "duration"),
        "detection.index.build_s": float(spans.duration[build].sum()),
        "detection.index.attach_s": _seconds(spans, ("detection.index.attach",), setup_window,
                                             "duration"),
        "detection.batchfold.build_s": first_builds,
    }


def work_metrics(spans: Spans, window) -> dict[str, float]:
    """Layer metrics over the timed window: self times, counts and ratios."""
    parse = spans.select("idn.parse", window)
    kernel = spans.select("detection.batchfold.kernel", window)
    recheck = spans.select("detection.algorithm.recheck", window)
    query_many = spans.select("detection.service.query_many", window)
    queries = _count(spans, "detection.service.query", window)
    names = float(spans.size[query_many].sum())
    kernel_in_service = np.count_nonzero(kernel & _under(spans, "detection.service.query_many"))
    rechecks_in_query = np.count_nonzero(recheck & _under(spans, "detection.service.query"))
    detections = (_seconds(spans, ("detection.shamfinder.detect",), window, "hits")
                  + float(spans.hits[query_many].sum()))
    return {
        "detection.stream.self_s": _seconds(spans, ("detection.stream.scan",), window),
        "detection.stream.checkpoint_s": _seconds(spans, ("detection.stream.checkpoint",), window),
        "detection.stream.checkpoints": _count(spans, "detection.stream.checkpoint", window),
        "idn.parse_s": _seconds(spans, ("idn.parse",), window),
        "idn.parsed": int(np.count_nonzero(parse & ~spans.failed)),
        "idn.rejected": int(np.count_nonzero(parse & spans.failed)),
        "detection.batchfold.kernel_s": _seconds(spans, ("detection.batchfold.kernel",), window),
        "detection.batchfold.labels": int(spans.size[kernel].sum()),
        "detection.batchfold.miss_ratio": _ratio(spans.hits[kernel].sum(), spans.size[kernel].sum()),
        "detection.algorithm.recheck_s": _seconds(spans, ("detection.algorithm.recheck",), window),
        "detection.algorithm.rechecks": int(np.count_nonzero(recheck)),
        "detection.algorithm.recheck_hit_ratio": _ratio(
            np.count_nonzero(spans.hits[recheck] > 0), np.count_nonzero(recheck)),
        "detection.shamfinder.self_s": _seconds(spans, ("detection.shamfinder.detect",), window),
        "detection.detections": int(detections),
        "serving.protocol.parse_s": _seconds(spans, ("serving.protocol.parse",), window),
        "serving.protocol.encode_s": _seconds(spans, ("serving.protocol.encode",), window),
        "serving.worker.self_s": _seconds(spans, ("serving.worker.batch",), window),
        "detection.service.query_many_s": _seconds(
            spans, ("detection.service.query_many", "detection.service.query"), window),
        "detection.service.batches": int(np.count_nonzero(query_many)),
        "detection.service.batch_size": _ratio(names, np.count_nonzero(query_many)),
        "detection.service.kernel_batch_share": _ratio(kernel_in_service,
                                                       np.count_nonzero(query_many)),
        "detection.service.scalar_share": _ratio(queries, names),
        # Every label lookup that misses the LRU runs exactly one re-check.
        "detection.service.lru_hit_ratio": _ratio(queries - rechecks_in_query, queries),
    }


def _under(spans: Spans, name: str) -> np.ndarray:
    """Spans whose direct parent is called *name*."""
    if name not in spans.names:
        return np.zeros(len(spans.end), dtype=bool)
    code = spans.names.index(name)
    result = np.zeros(len(spans.end), dtype=bool)
    has_parent = spans.parent >= 0
    result[has_parent] = spans.name[spans.parent[has_parent]] == code
    return result


def accounted_ratio(metrics: dict[str, float], residual_s: float, wall_s: float) -> float:
    """The reported layer times plus the residual, over the wall time.

    *wall_s* and *residual_s* are measured outside the spans (a scan pass's
    own timer; the client's latencies less the busy spans each request
    passed).  A layer left out of :data:`BUSY_LAYERS`, or one whose time
    is also counted in another, moves the ratio away from 1.
    """
    return (sum(metrics[name] for name in BUSY_LAYERS) + residual_s) / wall_s


def check_accounting(outcome, metrics: dict[str, float], residual_s: float, wall_s: float) -> float:
    """:func:`accounted_ratio`; *outcome* fails when it is off by more than the tolerance."""
    ratio = accounted_ratio(metrics, residual_s, wall_s)
    outcome.check(abs(ratio - 1) <= ACCOUNTING_TOLERANCE,
                  f"layer times plus the residual are {ratio:.3f} of the wall time")
    return ratio


def per_request(spans: Spans) -> Spans:
    """*spans* with each self time counted once per request it delays.

    A ``query_many`` batch and every span under it hold up each name in
    the batch; any other span serves one request.  Summing these weighted
    self times gives what the requests' latencies hold of the layers.
    """
    is_batch = spans.select("detection.service.query_many")
    batch = np.where(is_batch, np.arange(len(spans.end)), -1)    # innermost batch holding it
    ancestor = spans.parent.copy()
    while True:
        climbing = (batch < 0) & (ancestor >= 0)
        if not climbing.any():
            break
        found = climbing.copy()
        found[climbing] = is_batch[ancestor[climbing]]
        batch[found] = ancestor[found]
        ancestor[climbing] = spans.parent[ancestor[climbing]]
    weighted = copy.copy(spans)
    weighted.self_time = spans.self_time * np.where(
        batch >= 0, spans.size[np.maximum(batch, 0)], 1.0)
    return weighted


def stream_waits(spans: Spans, window, request_ids, latencies_s) -> np.ndarray:
    """Each request's latency minus the busy spans it passed, in seconds.

    A request's busy spans are its own parse and encode spans (matched by
    request id) and the ``query_many`` of its batch: the last one that
    ended before its verdict was stamped.  What remains is queueing, the
    batch window, the executor hop and the socket.  NaN for a request the
    server left no verdict stamp for.
    """
    inside = spans.in_window(window)
    by_request = np.zeros(int(max(request_ids, default=0)) + 1)
    for name in ("serving.protocol.parse", "serving.protocol.encode"):
        mask = spans.select(name) & inside & (spans.request >= 0) & (spans.request < len(by_request))
        np.add.at(by_request, spans.request[mask], spans.duration[mask])
    batches = spans.select("detection.service.query_many") & inside
    batch_end = spans.end[batches]
    order = np.argsort(batch_end)
    batch_end, batch_duration = batch_end[order], spans.duration[batches][order]
    stamps = spans.select("serving.protocol.encode") & inside & (spans.request >= 0)
    first_stamp: dict[int, float] = {}
    for rid, start in zip(spans.request[stamps].tolist(), spans.start[stamps].tolist()):
        if rid not in first_stamp or start < first_stamp[rid]:
            first_stamp[rid] = start
    waits = np.full(len(request_ids), np.nan)
    for k, (rid, latency) in enumerate(zip(request_ids, latencies_s)):
        stamp = first_stamp.get(int(rid))
        if stamp is None:
            continue
        slot = int(np.searchsorted(batch_end, stamp, side="right")) - 1
        batch = float(batch_duration[slot]) if slot >= 0 else 0.0
        waits[k] = latency - by_request[int(rid)] - batch
    return waits


def bulk_waits(spans: Spans, exchanges) -> np.ndarray:
    """Each HTTP exchange's time minus the busy spans inside it, in seconds.

    One closed-loop client keeps one request in flight, so every top-level
    span of the server and its worker that starts inside an exchange
    served that exchange.
    """
    top = (spans.parent < 0) & ~spans.detached
    starts, durations = spans.start[top], spans.duration[top]
    order = np.argsort(starts)
    starts, cumulative = starts[order], np.concatenate([[0.0], np.cumsum(durations[order])])
    waits = []
    for sent, answered in exchanges:
        lo, hi = np.searchsorted(starts, [sent, answered])
        waits.append(answered - sent - (cumulative[hi] - cumulative[lo]))
    return np.array(waits)


def wait_ms(waits: np.ndarray) -> dict[str, float]:
    """``serving.server.wait_p50_ms`` and ``wait_p90_ms`` of per-request waits."""
    known = (waits[~np.isnan(waits)] * 1e3).tolist()
    if not known:
        return {"serving.server.wait_p50_ms": 0.0, "serving.server.wait_p90_ms": 0.0}
    return {"serving.server.wait_p50_ms": percentile(known, 50),
            "serving.server.wait_p90_ms": percentile(known, 90)}


def ipc_ms(spans: Spans, window) -> float:
    """Median pool-future lifetime minus the worker's busy time, per batch.

    Futures and worker batches pair up in order: the pool has one worker
    and the server dispatches one batch at a time.
    """
    futures = spans.select("serving.server.pool_future", window)
    batches = spans.select("serving.worker.batch", window)
    future_start = spans.start[futures]
    future_duration = spans.duration[futures][np.argsort(future_start)]
    batch_duration = spans.duration[batches][np.argsort(spans.start[batches])]
    count = min(len(future_duration), len(batch_duration))
    if not count:
        return 0.0
    return percentile(((future_duration[:count] - batch_duration[:count]) * 1e3).tolist(), 50)
