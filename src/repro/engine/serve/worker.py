"""Worker-process body for the serving tier.

Each worker is a ``spawn``-started process holding its own
:class:`~repro.engine.engine.EvaluationEngine`.  Jobs are array batches,
which the engine computes on the kernel without a result store, so a
batch replayed on a different worker after a crash computes the same
bits the dead worker would have.

The parent talks to the worker over a :mod:`multiprocessing` pipe with
small tagged tuples::

    ("batch", job_dict)            -> ("ok", id, ratios, winners_u8,
                                       fpga_totals, asic_totals)
                                    | ("deadline", id)
                                    | ("error", id, message)
    ("ping",)                      -> ("pong", index, batches_done)
    None                           -> clean shutdown

Deadlines are cooperative: the job carries an absolute
``time.monotonic()`` deadline (valid across processes on Linux —
CLOCK_MONOTONIC is system-wide), and the worker checks it between
:data:`CANCEL_CHECK_ROWS`-row slices, so a request that expires
mid-batch stops burning CPU at the next check instead of running to
completion.

Fault injection: a :class:`~repro.engine.serve.faults.FaultPlan` in the
:class:`WorkerSpec` can kill this worker just before batch N
(``os._exit`` — no cleanup, like an OOM kill) or delay its responses;
both are deterministic, keyed by worker index and incarnation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.comparison import PlatformComparator
from repro.engine.engine import EvaluationEngine
from repro.engine.serve.faults import FaultPlan, hard_exit
from repro.engine.vector.columns import ScenarioBatch
from repro.errors import GreenFpgaError

#: Rows evaluated between cooperative deadline checks.  Small enough
#: that an expired request stops within ~a millisecond of kernel work,
#: large enough that the check is free on big batches.
CANCEL_CHECK_ROWS = 4096


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs (picklable, immutable).

    Attributes:
        index: Stable worker slot number (fault plans key on it).
        generation: Incarnation counter for this slot — 0 for the
            initial spawn, +1 per supervisor restart.  One-shot fault
            kills only fire for generation 0.
        fault_plan: Optional deterministic fault schedule.
        preload_domains: Domains whose comparators are built at startup
            (before the worker takes traffic), so the first request —
            and every request after a supervisor restart — never pays
            model construction.
    """

    index: int
    generation: int = 0
    fault_plan: "FaultPlan | None" = None
    preload_domains: tuple = ()


def evaluate_job(
    engine: EvaluationEngine,
    comparators: dict[str, PlatformComparator],
    domain: str,
    columns: dict[str, np.ndarray],
    deadline: "float | None",
) -> tuple:
    """Evaluate one decoded batch job; never raises.

    Returns a reply tuple (``ok`` / ``deadline`` / ``error``) ready to
    send back over the pipe.  Shared by the worker loop and the
    server's in-process degraded path, so both produce identical
    replies for identical jobs.
    """
    try:
        comparator = comparators.get(domain)
        if comparator is None:
            comparator = PlatformComparator.for_domain(domain)
            comparators[domain] = comparator
        batch = ScenarioBatch(**columns)
        ratio_parts, winner_parts, fpga_parts, asic_parts = [], [], [], []
        for start in range(0, batch.size, CANCEL_CHECK_ROWS):
            if deadline is not None and time.monotonic() >= deadline:
                return ("deadline",)
            result = engine.evaluate_batch(
                comparator, batch.slice_rows(
                    start, min(start + CANCEL_CHECK_ROWS, batch.size)
                )
            )
            ratio_parts.append(result.ratios)
            winner_parts.append(
                (result.winners == "asic").astype(np.uint8)
            )
            fpga_parts.append(result.fpga_totals)
            asic_parts.append(result.asic_totals)
        return (
            "ok",
            np.concatenate(ratio_parts),
            np.concatenate(winner_parts),
            np.concatenate(fpga_parts),
            np.concatenate(asic_parts),
        )
    except GreenFpgaError as exc:
        return ("error", str(exc))
    except Exception as exc:  # noqa: BLE001 - a worker must answer every job; an unexpected failure is returned to the client as an error frame, never a silent death
        return ("error", f"unexpected evaluation failure: {exc!r}")


def _send(conn, message) -> bool:
    """Send ``message``; ``False`` when the server has hung up.

    A ping or a reply can race server shutdown; the broken pipe ends
    service exactly like a failed ``recv``.
    """
    try:
        conn.send(message)
    except OSError:
        return False
    return True


def worker_main(conn, spec: WorkerSpec) -> None:
    """Process entry point: serve batch jobs from the pipe until EOF.

    Module-level (spawn-picklable) by design.  The engine has no
    result store: every job is an array batch, which is computed.
    """
    engine = EvaluationEngine(cache_size=0)
    comparators: dict[str, PlatformComparator] = {}
    for domain in spec.preload_domains:
        try:
            comparators[domain] = PlatformComparator.for_domain(domain)
        except GreenFpgaError:
            # An unknown preload domain is a config nit, not a reason to
            # refuse service on the domains that do resolve; requests
            # for it will get a per-request error reply.
            continue
    plan = spec.fault_plan
    kill_at = (
        None if plan is None else plan.kill_batch(spec.index, spec.generation)
    )
    batches_done = 0
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            if message[0] == "ping":
                if not _send(conn, ("pong", spec.index, batches_done)):
                    break
                continue
            job = message[1]
            if kill_at is not None and batches_done >= kill_at:
                hard_exit()
            if plan is not None:
                delay = plan.delay_for(spec.index)
                if delay > 0.0:
                    time.sleep(delay)
            reply = evaluate_job(
                engine,
                comparators,
                job["domain"],
                job["columns"],
                job.get("deadline"),
            )
            if not _send(conn, (reply[0], job["id"], *reply[1:])):
                break
            batches_done += 1
    finally:
        conn.close()
        engine.close()
