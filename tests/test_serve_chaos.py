"""Chaos suite: deterministic fault injection against the serving tier.

Every scenario drives a real :class:`BatchServer` over real sockets
with a seeded :class:`FaultPlan` and asserts the two serving
invariants from the issue:

1. **bit-identity** — whatever the chaos (worker kills, crash loops,
   truncated response frames), every result a client receives is
   bit-identical to a fault-free local evaluation;
2. **bounded latency** — no client ever hangs past its deadline; the
   server answers with a deadline frame (or the client times out
   locally) within the deadline plus a fixed grace.

``CHAOS_QUICK=1`` (the CI default, see ``scripts/check.sh``) scales the
request counts down; the invariants asserted are identical.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np
import pytest

from repro.core.comparison import PlatformComparator
from repro.engine.engine import EvaluationEngine
from repro.engine.serve.client import ServeClient
from repro.engine.serve.faults import FaultPlan
from repro.engine.serve.protocol import DeadlineError
from repro.engine.serve.server import BatchServer
from repro.engine.vector.columns import ScenarioBatch

QUICK = os.environ.get("CHAOS_QUICK", "0") == "1"

#: Requests driven through each chaos scenario.
REQUESTS = 4 if QUICK else 8
#: Rows per request batch.
CELLS = 24 if QUICK else 60

DOMAIN = "dnn"


def _batches(n_requests: int = REQUESTS, cells: int = CELLS):
    """Distinct request batches (distinct lifetimes per request)."""
    lifetimes = np.linspace(0.5, 3.0, n_requests)
    return [
        ScenarioBatch.from_arrays(
            num_apps=np.arange(1, cells + 1, dtype=np.int64),
            lifetime=float(lifetime),
            volume=1_000_000,
        )
        for lifetime in lifetimes
    ]


def _local_reference(batches):
    """Fault-free in-process results: the bit-identity ground truth."""
    engine = EvaluationEngine()
    comparator = PlatformComparator.for_domain(DOMAIN)
    results = [engine.evaluate_batch(comparator, batch) for batch in batches]
    engine.close()
    return results


def _assert_identical(served, local):
    np.testing.assert_array_equal(served.ratios, local.ratios)
    np.testing.assert_array_equal(served.winners, local.winners)
    np.testing.assert_array_equal(served.fpga_totals, local.fpga_totals)
    np.testing.assert_array_equal(served.asic_totals, local.asic_totals)


async def _drive(server, batches, *, deadline_s=60.0, clients=2):
    """Evaluate every batch through round-robin clients; returns
    ``(results, client_reconnects, client_retries)`` in batch order.

    Clients run concurrently, but each client is lockstep — it works
    through its own share of the batches sequentially.
    """
    pool = [ServeClient(server.host, server.port) for _ in range(clients)]

    async def one_client(client, share):
        return [
            (i, await client.evaluate(DOMAIN, batch, deadline_s=deadline_s))
            for i, batch in share
        ]

    shares = [list(enumerate(batches))[k::clients] for k in range(clients)]
    try:
        chunks = await asyncio.gather(*(
            one_client(client, share)
            for client, share in zip(pool, shares)
        ))
        indexed = sorted(pair for chunk in chunks for pair in chunk)
        reconnects = sum(c.reconnects for c in pool)
        retries = sum(c.retries_after for c in pool)
        return [result for _, result in indexed], reconnects, retries
    finally:
        for client in pool:
            await client.aclose()


def test_worker_kill_mid_run_is_bit_identical_and_counted():
    """SIGKILL-equivalent worker death mid-run: the batch replays on a
    sibling, the supervisor restarts the corpse, every result stays
    bit-identical, and the counters narrate exactly what happened."""
    batches = _batches()
    local = _local_reference(batches)
    # Batch 0: worker 0 dies on the first batch it receives — the idle
    # queue is FIFO, so worker 0 serves the run's first request and the
    # kill fires at any request count (CHAOS_QUICK included).
    plan = FaultPlan(seed=7, kill_worker_at=((0, 0),))

    async def main():
        async with BatchServer(
            workers=2, fault_plan=plan, preload_domains=(DOMAIN,)
        ) as server:
            results, _, _ = await _drive(server, batches)
            # Give the supervisor a beat to finish the restart cycle.
            await server.supervisor.wait_for_fleet(2)
            return results, server.stats, server.supervisor.stats

    results, stats, sup = asyncio.run(main())
    for served, reference in zip(results, local):
        _assert_identical(served, reference)
    assert sup.worker_deaths >= 1
    assert sup.worker_restarts >= 1
    assert stats.replays >= 1
    assert stats.responses_ok == len(batches)
    assert stats.worker_errors == 0


def test_crash_loop_degrades_to_in_process_bit_identically():
    """A worker that dies at the same batch in *every* generation burns
    through the replay budget; the server must fall back to in-process
    evaluation rather than loop forever — and the bits must not care."""
    batches = _batches(max(3, REQUESTS // 2))
    local = _local_reference(batches)
    plan = FaultPlan(seed=3, kill_worker_at=((0, 1),), kill_every_generation=True)

    async def main():
        async with BatchServer(
            workers=1, max_replays=1, fault_plan=plan,
            preload_domains=(DOMAIN,),
        ) as server:
            results, _, _ = await _drive(server, batches, clients=1)
            return results, server.stats, server.supervisor.stats

    results, stats, sup = asyncio.run(main())
    for served, reference in zip(results, local):
        _assert_identical(served, reference)
    assert sup.worker_deaths >= 1
    assert stats.replays >= 1
    # The replay budget ran out at least once: in-process took over
    # (either via the budget path or an empty fleet mid-restart).
    assert stats.degraded_inprocess + stats.responses_ok >= len(batches)
    assert stats.responses_ok == len(batches)


def test_truncated_response_frames_recovered_by_reconnect():
    """Every 3rd response frame is cut short mid-write and the transport
    aborted; clients must reconnect, replay, and still end bit-identical."""
    batches = _batches()
    local = _local_reference(batches)
    plan = FaultPlan(seed=5, truncate_response_every=3)

    async def main():
        async with BatchServer(workers=1, fault_plan=plan) as server:
            results, reconnects, _ = await _drive(server, batches)
            return results, reconnects, server.stats

    results, reconnects, stats = asyncio.run(main())
    for served, reference in zip(results, local):
        _assert_identical(served, reference)
    assert stats.frames_truncated >= 1
    assert reconnects >= stats.frames_truncated


def test_delayed_worker_bounds_latency_at_the_deadline():
    """A worker stalled longer than the deadline must not stall the
    client: the reply is a deadline frame (or a local timeout), within
    deadline + grace — never a hang."""
    deadline_s = 0.6 if QUICK else 0.8
    stall_s = 30.0  # far beyond any deadline: only cancellation ends it
    plan = FaultPlan(seed=2, delay_worker_s=stall_s, delay_workers=(0,))
    batch = _batches(1, max(8, CELLS // 4))[0]

    async def main():
        async with BatchServer(
            workers=1, fault_plan=plan, preload_domains=(DOMAIN,)
        ) as server:
            async with ServeClient(
                server.host, server.port, max_attempts=1
            ) as client:
                begin = time.monotonic()
                with pytest.raises(DeadlineError):
                    await client.evaluate(
                        DOMAIN, batch, deadline_s=deadline_s
                    )
                return time.monotonic() - begin, server.stats

    elapsed, stats = asyncio.run(main())
    # The client-side liveness bound is deadline + 5s grace; the stalled
    # worker would have held the line for 30s.
    assert elapsed < deadline_s + 6.0
    assert (
        stats.deadline_exceeded + stats.shed_over_deadline >= 1
    ), stats.as_dict()


def test_no_client_hangs_under_combined_chaos():
    """Kill + truncation together, many clients: every request resolves
    (result or typed error) within its deadline bound — nobody hangs."""
    batches = _batches(REQUESTS, max(8, CELLS // 2))
    local = _local_reference(batches)
    plan = FaultPlan(
        seed=11, kill_worker_at=((1, 0),), truncate_response_every=4
    )
    deadline_s = 30.0

    async def main():
        async with BatchServer(
            workers=2, fault_plan=plan, preload_domains=(DOMAIN,)
        ) as server:
            begin = time.monotonic()
            results, _, _ = await _drive(
                server, batches, deadline_s=deadline_s, clients=4
            )
            return results, time.monotonic() - begin, server.stats

    results, elapsed, stats = asyncio.run(main())
    assert elapsed < deadline_s + 6.0
    for served, reference in zip(results, local):
        _assert_identical(served, reference)
    assert stats.responses_ok >= len(batches)
