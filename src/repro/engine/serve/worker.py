"""Worker-process body for the serving tier.

Each worker is a ``spawn``-started process holding its own
:class:`~repro.engine.engine.EvaluationEngine`.  Warmth is shared
*through the store file*, not through memory: every worker loads the
same store snapshot at startup (tolerantly — a corrupt file means a cold
start, not a crash), and because results are keyed by 128-bit digests,
a batch replayed on a different worker after a crash re-gathers the
same bits it would have computed.

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

import os
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
        cache_file: Optional store snapshot to pre-warm from.
        cache_size: Result-store capacity of the worker's engine.
        fault_plan: Optional deterministic fault schedule.
        preload_domains: Domains whose comparators are built at startup
            (before the worker takes traffic), so the first request —
            and every request after a supervisor restart — never pays
            model construction.
        snapshot_every_s: With ``cache_file`` set, re-dump the worker's
            warm store to it at most this often (checked after each
            reply).  The dump is atomic (tmp + fsync + rename), so
            concurrent workers and a crash mid-dump can never tear the
            file — a restarted fleet pre-warms from the last complete
            snapshot instead of starting cold.
    """

    index: int
    generation: int = 0
    cache_file: "str | None" = None
    cache_size: int = 4096
    fault_plan: "FaultPlan | None" = None
    preload_domains: tuple = ()
    snapshot_every_s: "float | None" = None


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

    Module-level (spawn-picklable) by design.  The engine pre-warms
    from ``spec.cache_file`` when present — `load_cache` starts cold on
    a corrupt file instead of crashing, so one damaged file cannot
    take the fleet down.
    """
    engine = EvaluationEngine(cache_size=spec.cache_size)
    if spec.cache_file is not None and os.path.exists(spec.cache_file):
        engine.load_cache(spec.cache_file)
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
    last_snapshot = time.monotonic()
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
            if (
                spec.snapshot_every_s is not None
                and spec.cache_file is not None
                and time.monotonic() - last_snapshot >= spec.snapshot_every_s
            ):
                # Periodic warm-store snapshot after the reply is on the
                # wire (never adds latency ahead of an answer).  The
                # save is atomic, so the worst concurrent-worker outcome
                # is last-writer-wins of two complete snapshots.
                engine.save_cache(spec.cache_file)
                last_snapshot = time.monotonic()
    finally:
        conn.close()
        engine.close()
