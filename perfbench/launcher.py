"""Start ``repro`` with the layer wrappers installed: the traced server.

Usage: ``python3 perfbench/launcher.py TRACE_DIR serve --listen ...``

The wrappers go in before ``repro.cli.main`` runs, so the server's
set-up is traced too.  A worker the server forks inherits them; it drops
the parent's spans and writes its own when it exits.  The server writes
its spans once ``main`` returns (after a SIGTERM drain).
"""

from __future__ import annotations

import sys
from multiprocessing import util

import layers
from tracer import Tracer


def _in_worker(tracer: Tracer, trace_dir: str) -> None:
    tracer.reset()
    util.Finalize(tracer, tracer.dump, args=(trace_dir,), exitpriority=100)


def main() -> int:
    trace_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    layers.install(tracer)
    util.register_after_fork(tracer, lambda t: _in_worker(t, trace_dir))

    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        tracer.dump(trace_dir)


if __name__ == "__main__":
    sys.exit(main())
