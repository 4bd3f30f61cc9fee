"""Latency-percentile benchmark for the serving tier.

:func:`latency_benchmark` measures end-to-end request latency (client
send to decoded response) through a real :class:`BatchServer` socket —
protocol encode, admission queue, supervised worker round-trip, gather,
response decode — under 8 and 64 simulated clients, each phase run both
fault-free and with one injected worker kill
(:class:`~repro.engine.serve.faults.FaultPlan`).

Two properties are asserted, not just measured:

* **bit-identity** — every response in every phase (including the
  one-kill phases, across the death, the replay, and the restart) must
  equal the locally computed reference columns exactly;
* **bounded tail** — the fault-free p99 per client count is gated by
  ``benchmarks/timing_gates.py`` (median over repeated runs).

Workers compute every row on the kernel (serving has no result store);
with 50-cell requests the kernel is a small part of each request, so
the benchmark tracks serving overhead and tail behaviour.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.core.comparison import PlatformComparator
from repro.engine.engine import EvaluationEngine
from repro.engine.serve.client import ServeClient
from repro.engine.serve.faults import FaultPlan
from repro.engine.serve.server import BatchServer
from repro.engine.vector.columns import ScenarioBatch
from repro.errors import ServeError


def _request_batches(
    requests_per_client: int, cells_per_request: int
) -> list[ScenarioBatch]:
    """The per-request scenario batches (shared by every client).

    Every client sweeps the same ``requests_per_client`` lifetime rows
    of ``cells_per_request`` ``num_apps`` cells — concurrent clients
    request the same cells, like the throughput bench.
    """
    lifetimes = np.linspace(0.5, 3.0, requests_per_client)
    num_apps = np.arange(1, cells_per_request + 1, dtype=np.int64)
    return [
        ScenarioBatch.from_arrays(
            num_apps=num_apps,
            lifetime=float(lifetime),
            volume=1_000_000,
        )
        for lifetime in lifetimes
    ]


def _reference_columns(
    domain: str, batches: list[ScenarioBatch]
) -> list[tuple]:
    """Ground-truth result columns per request, computed in process."""
    engine = EvaluationEngine(cache_size=0)
    comparator = PlatformComparator.for_domain(domain)
    reference = []
    for batch in batches:
        result = engine.evaluate_batch(comparator, batch)
        reference.append(
            (
                result.ratios.copy(),
                result.winners.copy(),
                result.fpga_totals.copy(),
                result.asic_totals.copy(),
            )
        )
    engine.close()
    return reference


async def _drive_phase(
    host: str,
    port: int,
    clients: int,
    domain: str,
    batches: list[ScenarioBatch],
    reference: list[tuple],
    deadline_s: float,
) -> tuple[np.ndarray, float, int]:
    """All clients concurrently; returns (latencies_s, elapsed_s, mismatches)."""
    latencies: list[float] = []
    mismatches = 0

    async def one_client() -> None:
        nonlocal mismatches
        async with ServeClient(host, port) as client:
            for index, batch in enumerate(batches):
                begin = time.perf_counter()
                result = await client.evaluate(
                    domain, batch, deadline_s=deadline_s
                )
                latencies.append(time.perf_counter() - begin)
                ratios, winners, fpga, asic = reference[index]
                if not (
                    np.array_equal(result.ratios, ratios)
                    and np.array_equal(result.winners, winners)
                    and np.array_equal(result.fpga_totals, fpga)
                    and np.array_equal(result.asic_totals, asic)
                ):
                    mismatches += 1

    start = time.perf_counter()
    await asyncio.gather(*(one_client() for _ in range(clients)))
    return np.asarray(latencies), time.perf_counter() - start, mismatches


def latency_benchmark(
    *,
    client_counts: tuple[int, ...] = (8, 64),
    requests_per_client: int = 6,
    cells_per_request: int = 50,
    workers: int = 2,
    queue_limit: int = 256,
    deadline_s: float = 30.0,
    domain: str = "dnn",
    kill_at_batch: int = 4,
    repeats: int = 3,
) -> dict:
    """p50/p99 per client count, fault-free and with one worker kill.

    For each count in ``client_counts`` two phases run: ``fault_free``,
    and ``one_kill`` where a :class:`FaultPlan` hard-kills worker 0
    just before its ``kill_at_batch``-th batch — the supervisor replays
    the in-flight batch on a sibling and restarts the slot in the
    background.  Each phase runs ``repeats`` times on a *fresh* server
    (fresh fleet; the kill fires once per repeat)
    and the percentiles are computed over the pooled latencies — a
    p99 taken from one small run is just the max of that run, which no
    regression gate can hold steady.  Every response in every repeat is
    compared bit-for-bit to a locally computed reference; a mismatch
    anywhere fails the caller's gate via ``mismatches``.
    """
    batches = _request_batches(requests_per_client, cells_per_request)
    reference = _reference_columns(domain, batches)

    async def run_phase(clients: int, plan: "FaultPlan | None") -> dict:
        pooled: list[np.ndarray] = []
        elapsed_total = 0.0
        mismatches = deaths = replays = shed = 0
        for _repeat in range(max(1, repeats)):
            server = BatchServer(
                workers=workers,
                queue_limit=queue_limit,
                fault_plan=plan,
                preload_domains=(domain,),
            )
            async with server:
                # Untimed warmup: enough concurrent one-request clients
                # to touch every worker, so each builds its comparator
                # before the timed window — percentiles then measure
                # *serving*, not the first request's one-off model
                # construction.  (In the one-kill phase these count
                # toward worker 0's batch number, which is why the
                # default kill lands after them, inside the timed
                # window.)
                await _drive_phase(
                    server.host, server.port, max(1, workers * 2), domain,
                    batches[:1], reference[:1], deadline_s,
                )
                latencies, elapsed, bad = await _drive_phase(
                    server.host, server.port, clients, domain,
                    batches, reference, deadline_s,
                )
                stats = server.stats
                supervisor = server.supervisor.stats
                if plan is not None:
                    # The injected kill must actually have fired, and
                    # the slot must come back — otherwise this repeat
                    # silently measured the fault-free system.
                    if supervisor.worker_deaths < 1:
                        raise ServeError(
                            "one-kill phase ran without a worker death: "
                            f"worker 0 never reached batch {kill_at_batch} "
                            "(kill_at_batch); raise --requests or --clients"
                        )
                    await server.supervisor.wait_for_fleet(workers)
            pooled.append(latencies)
            elapsed_total += float(elapsed)
            mismatches += bad
            deaths += int(supervisor.worker_deaths)
            replays += int(stats.replays)
            shed += int(stats.shed_queue_full)
        all_latencies = np.concatenate(pooled)
        return {
            "requests": int(all_latencies.size),
            "mismatches": int(mismatches),
            "elapsed_s": round(elapsed_total, 4),
            "scenarios_per_s": round(
                all_latencies.size * cells_per_request / elapsed_total, 1
            ),
            "p50_ms": round(
                float(np.percentile(all_latencies, 50)) * 1e3, 3
            ),
            "p99_ms": round(
                float(np.percentile(all_latencies, 99)) * 1e3, 3
            ),
            "worker_deaths": int(deaths),
            "replays": int(replays),
            "shed_queue_full": int(shed),
        }

    async def run_all() -> dict:
        phases: dict[str, dict] = {}
        for clients in client_counts:
            kill_plan = FaultPlan(
                seed=7, kill_worker_at=((0, kill_at_batch),)
            )
            phases[f"clients_{clients}"] = {
                "fault_free": await run_phase(clients, None),
                "one_kill": await run_phase(clients, kill_plan),
            }
        total_mismatches = sum(
            entry["mismatches"]
            for modes in phases.values()
            for entry in modes.values()
        )
        return {
            "workers": workers,
            "repeats": max(1, repeats),
            "requests_per_client": requests_per_client,
            "cells_per_request": cells_per_request,
            "deadline_s": deadline_s,
            "mismatches": total_mismatches,
            "identical_under_kill": total_mismatches == 0,
            "phases": phases,
        }

    return asyncio.run(run_all())
