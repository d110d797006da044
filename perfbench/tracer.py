"""In-memory span tracer for the benchmark's traced runs.

A span is one call into a wrapped function: its name, start and end
(``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable across the benchmark's processes), the span that was open on
the same thread when it began (its parent), a request id, and two numbers
the wrapper reads off the call (a size and a hit count, e.g. labels given
to the kernel and labels it proved to be misses).

Spans stay in per-thread arrays while the program runs and are written
out once, by :meth:`Tracer.dump`, when the process ends.  Nothing here
knows the program under test; :mod:`layers` says what to wrap.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import zipfile
from array import array
from pathlib import Path
from typing import Callable

import numpy as np

#: Request id of a span that serves no single request.
NO_REQUEST = -1
#: Parent of a top-level span.
NO_PARENT = -1


class _Buffer:
    """The spans of one thread, as parallel arrays."""

    def __init__(self, thread_id: int) -> None:
        self.thread_id = thread_id
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.size = array("d")
        self.hits = array("d")
        self.failed = array("b")
        self.detached = array("b")       # recorded after the fact, not nested
        self.stack: list[int] = []

    def open(self, code: int) -> int:
        index = len(self.start)
        self.name.append(code)
        self.parent.append(self.stack[-1] if self.stack else NO_PARENT)
        self.request.append(NO_REQUEST)
        self.size.append(0.0)
        self.hits.append(0.0)
        self.failed.append(0)
        self.detached.append(0)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self.stack.pop()


class Tracer:
    """Records spans from any thread of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []

    def code(self, name: str) -> int:
        """The integer code of span name *name*."""
        with self._lock:
            if name not in self._codes:
                self._codes[name] = len(self.names)
                self.names.append(name)
            return self._codes[name]

    def buffer(self) -> _Buffer:
        """This thread's span buffer, created on first use."""
        buf = getattr(self._local, "buffer", None)
        if buf is None:
            buf = _Buffer(threading.get_ident())
            self._local.buffer = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def reset(self) -> None:
        """Drop every recorded span (a forked child starts empty).

        The lock is replaced too: another thread of the parent may have
        held it at the moment of the fork.
        """
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers = []

    def wrap(
        self,
        name: str,
        function: Callable,
        *,
        observe: Callable | None = None,
    ) -> Callable:
        """*function* wrapped to record a span named *name* per call.

        ``observe(args, kwargs, result)`` returns ``(request, size, hits)``
        for the span; it is skipped when the call raises, which marks the
        span failed.
        """
        code = self.code(name)
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            buf = tracer.buffer()
            index = buf.open(code)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                buf.failed[index] = 1
                buf.close(index)
                raise
            buf.close(index)
            if observe is not None:
                buf.request[index], buf.size[index], buf.hits[index] = observe(args, kwargs, result)
            return result

        traced.__wrapped_original__ = function
        return traced

    def record(self, name: str, start: float, end: float, request: int = NO_REQUEST) -> None:
        """Add a detached span timed elsewhere (e.g. a future's lifetime)."""
        code = self.code(name)
        buf = self.buffer()
        buf.name.append(code)
        buf.parent.append(NO_PARENT)
        buf.request.append(request)
        buf.size.append(0.0)
        buf.hits.append(0.0)
        buf.failed.append(0)
        buf.detached.append(1)
        buf.start.append(start)
        buf.end.append(end)

    def dump(self, directory: str | os.PathLike) -> Path:
        """Write this process's spans to ``spans-<pid>.npz`` in *directory*."""
        with self._lock:
            buffers = list(self._buffers)
            names = list(self.names)
        path = Path(directory) / f"spans-{os.getpid()}.npz"
        columns: dict[str, list] = {key: [] for key in (
            "name", "start", "end", "parent", "request", "size", "hits",
            "failed", "detached", "thread")}
        offset = 0
        for buf in buffers:
            count = len(buf.end)
            parent = np.frombuffer(buf.parent, dtype=np.int64)[:count].copy()
            parent[parent >= 0] += offset
            columns["parent"].append(parent)
            for key in ("name", "start", "end", "request", "size", "hits", "failed", "detached"):
                columns[key].append(np.frombuffer(getattr(buf, key), dtype=_DTYPES[key])[:count])
            columns["thread"].append(np.full(count, buf.thread_id, dtype=np.uint64))
            offset += count
        arrays = {
            key: (np.concatenate(parts) if parts else np.zeros(0, dtype=_DTYPES[key]))
            for key, parts in columns.items()
        }
        # Written under a name the loader's pattern does not match, then
        # renamed, so a reader never sees a half-written file.
        temp = path.with_name(f".{path.name}.tmp")
        with open(temp, "wb") as handle:
            np.savez(handle, names=np.array(names, dtype=str), pid=np.int64(os.getpid()), **arrays)
        os.replace(temp, path)
        return path


_DTYPES = {
    "name": np.int32, "start": np.float64, "end": np.float64, "parent": np.int64,
    "request": np.int64, "size": np.float64, "hits": np.float64, "failed": np.int8,
    "detached": np.int8, "thread": np.uint64,
}


class Spans:
    """Every span of a traced run, from all processes, as flat arrays."""

    def __init__(self, arrays: dict[str, np.ndarray], names: list[str]) -> None:
        self.names = names
        self.name = arrays["name"]
        self.start = arrays["start"]
        self.end = arrays["end"]
        self.parent = arrays["parent"]
        self.request = arrays["request"]
        self.size = arrays["size"]
        self.hits = arrays["hits"]
        self.failed = arrays["failed"].astype(bool)
        self.detached = arrays["detached"].astype(bool)
        self.pid = arrays["pid"]
        self.thread = arrays["thread"]
        self.duration = self.end - self.start
        self.self_time = self_times(self.duration, self.parent)

    @classmethod
    def load(cls, directory: str | os.PathLike) -> "Spans":
        """Merge every ``spans-*.npz`` in *directory* under one name table."""
        codes: dict[str, int] = {}
        parts: list[dict[str, np.ndarray]] = []
        offset = 0
        for path in sorted(Path(directory).glob("spans-*.npz")):
            try:
                data = np.load(path)
            except (OSError, ValueError, zipfile.BadZipFile) as exc:
                raise ValueError(f"unreadable span file {path}: {exc}") from exc
            with data:
                # Trailing 0: a file with no spans has no names to remap.
                remap = np.array([codes.setdefault(str(n), len(codes)) for n in data["names"]]
                                 + [0], dtype=np.int32)
                part = {key: data[key] for key in _DTYPES}
                part["name"] = remap[part["name"]]
                part["parent"] = np.where(part["parent"] >= 0, part["parent"] + offset, NO_PARENT)
                part["pid"] = np.full(len(part["end"]), int(data["pid"]), dtype=np.int64)
                offset += len(part["end"])
                parts.append(part)
        arrays = {
            key: (np.concatenate([p[key] for p in parts]) if parts
                  else np.zeros(0, dtype=_DTYPES.get(key, np.int64)))
            for key in [*_DTYPES, "pid"]
        }
        return cls(arrays, list(codes))

    def select(self, name: str, window: tuple[float, float] | None = None) -> np.ndarray:
        """Boolean mask of spans called *name* that start inside *window*."""
        if name not in self.names:
            return np.zeros(len(self.end), dtype=bool)
        mask = self.name == self.names.index(name)
        return mask if window is None else mask & self.in_window(window)

    def in_window(self, window: tuple[float, float]) -> np.ndarray:
        """Boolean mask of all spans that start inside *window*."""
        return (self.start >= window[0]) & (self.start < window[1])


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span ran on the span's own thread, one after another
    and inside it, so their durations add up to the time they cover.
    """
    result = np.array(duration, dtype=np.float64, copy=True)
    children = parent >= 0
    np.subtract.at(result, parent[children], duration[children])
    return result

