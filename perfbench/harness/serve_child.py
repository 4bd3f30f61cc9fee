"""Server process of the ``serve_open`` workload.

Run as ``python -m harness.serve_child <trace 0|1>``.  With tracing on
it wraps the server-side layers (see :data:`harness.layers.SERVER_LAYERS`)
before the ``BatchServer`` starts.  It prints ``READY <port>`` once
the server listens, serves until a line arrives on standard input, and
then prints one JSON line with the server's counters and its spans.
"""

from __future__ import annotations

import asyncio
import json
import sys

from repro.engine.serve import BatchServer

from harness import layers
from harness.serve import DOMAIN, SERVER_STORE_CAPACITY, SERVER_WORKERS
from harness.trace import Tracer


async def serve() -> dict:
    server = BatchServer(workers=SERVER_WORKERS,
                         cache_size=SERVER_STORE_CAPACITY,
                         preload_domains=(DOMAIN,))
    async with server:
        print(f"READY {server.port}", flush=True)
        await asyncio.get_running_loop().run_in_executor(
            None, sys.stdin.readline)
        return server.stats.as_dict()


def main() -> None:
    tracer = Tracer()
    if sys.argv[1] == "1":
        tracer.install(layers.SERVER_LAYERS)
    stats = asyncio.run(serve())
    print(json.dumps({"stats": stats, "spans": tracer.spans}), flush=True)


if __name__ == "__main__":
    main()
