"""Fault-tolerant out-of-process serving tier.

This subpackage takes evaluation out of the single interpreter: a
:class:`~repro.engine.serve.server.BatchServer` speaks a compact
length-prefixed batch protocol (scenario columns in, ratio/winner/total
columns out) over asyncio sockets, in front of N supervised worker
processes.  Workers compute every row on the kernel; no result store
is involved, because computing an array row costs less than looking it
up.  Request and response
payloads are array containers (:mod:`repro.engine.container`), and a
request carries every valid ``Scenario`` row.

Robustness is the design center, not a bolt-on — every failure mode has
a defined, tested behaviour:

* a **dead worker** is detected, restarted with exponential backoff,
  and its in-flight batch is replayed on a sibling (evaluation is pure,
  so replay never changes a bit);
* a **slow/stuck worker** is bounded by the request deadline: workers
  cancel cooperatively between row chunks, the supervisor kills past
  deadline-plus-grace, and the client gets a typed deadline frame;
* an **overload burst** meets a bounded admission queue: the newest
  request is shed with a client-visible ``RETRY_AFTER`` hint, requests
  already past their deadline are shed before dispatch, and both
  policies expose counters;
* a **lost worker pool** degrades to in-process evaluation — slower,
  never wrong.

:mod:`~repro.engine.serve.faults` provides a deterministic, seeded
``FaultPlan`` that injects each of these failures on cue; the chaos
suite (``tests/test_serve_chaos.py``) drives it and asserts bit-identical
results and bounded latency under every fault.
"""

from repro.engine.serve.client import ServeClient, ServeResult
from repro.engine.serve.faults import FaultPlan
from repro.engine.serve.protocol import (
    BackpressureError,
    DeadlineError,
    ProtocolError,
    RemoteError,
)
from repro.engine.serve.server import BatchServer, ServerStats
from repro.engine.serve.supervisor import (
    SupervisorStats,
    WorkerDiedError,
    WorkerSupervisor,
    WorkerUnavailableError,
)

__all__ = [
    "BackpressureError",
    "BatchServer",
    "DeadlineError",
    "FaultPlan",
    "ProtocolError",
    "RemoteError",
    "ServeClient",
    "ServeResult",
    "ServerStats",
    "SupervisorStats",
    "WorkerDiedError",
    "WorkerSupervisor",
    "WorkerUnavailableError",
]
