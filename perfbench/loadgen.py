"""Load generator for the serve workloads; runs in its own process.

``stream`` is the open loop of ``serve_stream``: requests go out on a
fixed Poisson schedule over a few JSONL connections whether or not
earlier replies have come back, the way independent users arrive.  Each
request is timed from its *scheduled* send time, so a stall also counts
against the requests queued behind it, and how late the generator itself
sent is recorded.

``bulk`` is the closed loop of ``serve_bulk``: one client sends a
``POST /query`` with ~1,000 names, waits for the whole answer, then sends
the next, until ``--seconds`` have passed.

Results go to an ``.npz`` file; reply bytes are kept for the benchmark's
byte-for-byte check.  Run by ``serve.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import select
import socket
import time
from pathlib import Path

import numpy as np

#: How long to wait for the last replies after the schedule ends.
GRACE_SECONDS = 5.0


def stream(host: str, port: int, names: list[str], schedule: dict, out: Path) -> None:
    """Send ``names[schedule['name'][i]]`` at ``schedule['offset'][i]`` seconds."""
    offsets, name_index = schedule["offset"], schedule["name"]
    connection = schedule["connection"].tolist()
    count = len(offsets)
    conns = [socket.create_connection((host, port)) for _ in range(max(connection) + 1)]
    for sock in conns:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
    lines = [
        (json.dumps({"domain": names[n], "id": i}) + "\n").encode("ascii")
        for i, n in enumerate(name_index.tolist())
    ]
    pending: list[list[int]] = [[] for _ in conns]      # request ids awaiting a reply
    heads = [0] * len(conns)
    outgoing = [bytearray() for _ in conns]
    partial = [b"" for _ in conns]
    sent = np.full(count, np.nan)
    arrived = np.full(count, np.nan)
    replies: list[bytes] = [b""] * count
    by_fd = {sock.fileno(): k for k, sock in enumerate(conns)}

    # A collector pause here would make the generator late and count against
    # the server; the loop allocates little, so collection can wait.
    gc.collect()
    gc.freeze()
    gc.disable()
    start = time.perf_counter() + 0.05
    due = (start + offsets).tolist()
    deadline = due[-1] + GRACE_SECONDS
    next_i = 0
    answered = 0
    while answered < count:
        now = time.perf_counter()
        if now > deadline:
            break
        while next_i < count and due[next_i] <= now:
            k = connection[next_i]
            outgoing[k] += lines[next_i]
            pending[k].append(next_i)
            sent[next_i] = now
            next_i += 1
        for k, sock in enumerate(conns):
            if outgoing[k]:
                try:
                    written = sock.send(outgoing[k])
                except BlockingIOError:
                    written = 0
                del outgoing[k][:written]
        wait = max(0.0, due[next_i] - time.perf_counter()) if next_i < count else 0.05
        writers = [sock for k, sock in enumerate(conns) if outgoing[k]]
        readable, _, _ = select.select(conns, writers, [], min(wait, 0.05))
        for sock in readable:
            k = by_fd[sock.fileno()]
            data = sock.recv(1 << 18)
            stamp = time.perf_counter()
            if not data:
                raise ConnectionError("server closed a connection")
            chunks = (partial[k] + data).split(b"\n")
            partial[k] = chunks.pop()
            for line in chunks:
                rid = pending[k][heads[k]]
                heads[k] += 1
                arrived[rid] = stamp
                replies[rid] = line + b"\n"
                answered += 1
    gc.enable()
    for sock in conns:
        sock.close()
    np.savez(out, scheduled=np.array(due), sent=sent, arrived=arrived,
             replies=np.frombuffer(b"".join(replies), dtype=np.uint8),
             lengths=np.array([len(r) for r in replies], dtype=np.int64))


def exchange(host: str, port: int, body: bytes) -> tuple[int, bytes]:
    """One ``POST /query`` with *body*; returns the HTTP status and the body."""
    with socket.create_connection((host, port)) as sock:
        sock.sendall(b"POST /query HTTP/1.0\r\nContent-Type: application/json\r\n"
                     b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body)
        chunks = []
        while True:
            data = sock.recv(1 << 20)
            if not data:
                break
            chunks.append(data)
    response = b"".join(chunks)
    head, _, payload = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head.startswith(b"HTTP/") else 0
    return status, payload


def bulk(host: str, port: int, bodies: list[bytes], seconds: float, requests: int,
         out: Path) -> None:
    """Closed loop over *bodies*, in turn: *requests* of them, or for *seconds*."""
    sent, answered, status, body_index, digests = [], [], [], [], []
    start = time.perf_counter()
    k = 0
    while k < requests if requests else time.perf_counter() - start < seconds:
        index = k % len(bodies)
        t0 = time.perf_counter()
        code, payload = exchange(host, port, bodies[index])
        t1 = time.perf_counter()
        sent.append(t0)
        answered.append(t1)
        status.append(code)
        body_index.append(index)
        digests.append(hashlib.sha256(payload).hexdigest())
        k += 1
    np.savez(out, sent=np.array(sent), answered=np.array(answered),
             status=np.array(status), body=np.array(body_index), digest=np.array(digests))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("stream", "bulk"))
    parser.add_argument("--address", required=True, help="HOST:PORT of the server")
    parser.add_argument("--names", type=Path, required=True,
                        help="stream: one name per line; bulk: one JSON array body per line")
    parser.add_argument("--schedule", type=Path, help="stream: the .npz schedule")
    parser.add_argument("--seconds", type=float, default=0.0, help="bulk: how long to run")
    parser.add_argument("--requests", type=int, default=0,
                        help="bulk: how many requests to send instead (0: run for --seconds)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    host, _, port = args.address.rpartition(":")
    if args.mode == "stream":
        with np.load(args.schedule) as data:
            schedule = {key: data[key] for key in data.files}
        names = args.names.read_text(encoding="utf-8").splitlines()
        stream(host, int(port), names, schedule, args.out)
    else:
        bodies = args.names.read_bytes().splitlines()
        bulk(host, int(port), bodies, args.seconds, args.requests, args.out)


if __name__ == "__main__":
    main()
