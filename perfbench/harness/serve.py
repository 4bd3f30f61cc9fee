"""``serve_open``: an open-loop request stream against a ``BatchServer``.

The server (one supervised worker) runs in its own process, started by
:mod:`harness.serve_child`; this process generates the load over at
most ``nproc`` lockstep ``ServeClient`` connections.  Request ``k`` is
due at ``start + k / RATE_PER_S`` whether or not earlier replies came
back, and its latency runs from when it was due, so a stall also counts
against the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import subprocess
import sys
import time

import numpy as np
from repro import EvaluationEngine, PlatformComparator
from repro.engine.serve import BatchServer, ServeClient, worker
from repro.engine.vector.columns import ScenarioBatch
from repro.errors import ServeError

from harness import checks, layers, setup_probe
from harness.calibrate import Calibration
from harness.batch import LIFETIME_STEP_Y, derived_seed
from harness.common import (
    OUT, ROOT, SETUP_SAMPLES, child_env, digest, median, percentile, tail_ms,
    tree_peak_rss_mb,
)
from harness.trace import Tracer

#: Offered load: about a third of the one-worker capacity, which a
#: closed loop measured at 115-121 requests/s on a 2-core x86_64 host.
RATE_PER_S = 40.0
CELLS_PER_REQUEST = 100
#: Cells a request shares with the request before it.
WARM_CELLS = 50
CONNECTIONS = min(2, os.cpu_count() or 1)
SERVER_WORKERS = 1
SERVER_STORE_CAPACITY = 65_536
DEADLINE_S = 30.0
DOMAIN = "dnn"
#: Lead with which the load generator wakes before a request is due.
TIMER_SLACK_S = 0.0015
#: Traced-phase requests replayed through ``evaluate_job`` in-process.
REPLAY_REQUESTS = 200
#: Bound on waiting for the server process to start or stop.
CHILD_TIMEOUT_S = 60.0


class Requests:
    """Seeded request cells: 50 ``num_apps`` values x 2 lifetimes.

    Request ``k`` holds lifetimes ``k + 1`` (new) and ``k`` (the new
    half of request ``k - 1``, so served warm from the worker's store).
    """

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(derived_seed(seed, 4))
        self.apps = np.sort(rng.choice(np.arange(1, 201), WARM_CELLS,
                                       replace=False))
        self.lifetime0 = float(rng.uniform(0.5, 1.5))

    def batch(self, k: int, count: int = 1) -> ScenarioBatch:
        """Requests ``k .. k + count - 1``, concatenated."""
        half = CELLS_PER_REQUEST - WARM_CELLS
        steps = np.repeat(np.arange(k, k + count)[:, None] + [1, 0], half)
        return ScenarioBatch.from_arrays(
            num_apps=np.tile(self.apps, 2 * count),
            lifetime=self.lifetime0 + steps * LIFETIME_STEP_Y,
            volume=1_000_000,
        )


def job_columns(batch: ScenarioBatch) -> dict:
    """The columns the server hands a worker for ``batch``."""
    return {
        "num_apps": batch.num_apps,
        "volume": batch.volume,
        "lifetime": batch.lifetime,
        "evaluation_years": batch.evaluation_years,
        "app_size_mgates": batch.app_size_mgates,
        "enforce_chip_lifetime": batch.enforce_chip_lifetime,
    }


def reply_digest(reply) -> str:
    return digest(reply.ratios, reply.winners, reply.fpga_totals,
                  reply.asic_totals)


def probe(name: str, seed: int) -> dict:
    """Set-up probe body: server + worker spawn, then one request."""

    async def go() -> dict:
        server = BatchServer(workers=SERVER_WORKERS,
                             cache_size=SERVER_STORE_CAPACITY,
                             preload_domains=(DOMAIN,))
        constructed = time.monotonic()
        await server.start()
        spawned = time.monotonic()
        try:
            async with ServeClient(server.host, server.port) as client:
                reply = await client.evaluate(
                    DOMAIN, Requests(seed).batch(-1), deadline_s=DEADLINE_S)
            first = time.monotonic()
        finally:
            await server.stop()
        return {"constructed": constructed, "spawned": spawned,
                "first": first, "digest": reply_digest(reply)}

    return asyncio.run(go())


class ServerProcess:
    """A ``BatchServer`` in a child process (see :mod:`harness.serve_child`)."""

    def __init__(self, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "harness.serve_child", str(int(trace))],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self._readline()
            if not line.startswith("READY "):
                raise RuntimeError(f"server process did not start: {line!r}")
            self.port = int(line.split()[1])
        except BaseException:
            self.kill()
            raise

    def _readline(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    CHILD_TIMEOUT_S)
        if not ready:
            raise RuntimeError("server process did not answer in time")
        return self.proc.stdout.readline()

    def stop(self) -> dict:
        """Ask the server to stop; returns its stats and spans."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
            report = json.loads(self._readline())
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
            return report
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


async def _drive(port: int, requests: Requests, first: int, count: int,
                 tracer: "Tracer | None") -> dict:
    """One warm-up request, then ``count`` requests on the schedule."""
    clients = [ServeClient("127.0.0.1", port) for _ in range(CONNECTIONS)]
    for client in clients:
        await client.connect()
    warmup = await clients[0].evaluate(
        DOMAIN, requests.batch(first - 1), deadline_s=DEADLINE_S)
    batches = [requests.batch(first + k) for k in range(count)]
    replies: list = [None] * count
    latency = np.zeros(count)
    late = np.zeros(count)
    loop = asyncio.get_running_loop()
    if tracer is not None:
        tracer.install(layers.CLIENT_LAYERS)
    start = loop.time() + 0.05
    cursor = 0

    async def connection(client: ServeClient) -> None:
        nonlocal cursor
        while cursor < count:
            k = cursor
            cursor += 1
            due = start + k / RATE_PER_S
            # The loop's timers wake up to 1 ms late (millisecond poll
            # timeouts); sleep to just short of the due time, then
            # finish with a sub-millisecond blocking sleep.
            if due - loop.time() > TIMER_SLACK_S:
                await asyncio.sleep(due - loop.time() - TIMER_SLACK_S)
            remaining = due - loop.time()
            if remaining > 0:
                time.sleep(remaining)
            sent = loop.time()
            try:
                replies[k] = await client.evaluate(
                    DOMAIN, batches[k], deadline_s=DEADLINE_S)
            except ServeError as exc:
                replies[k] = exc
            latency[k] = loop.time() - due
            late[k] = sent - due

    try:
        await asyncio.gather(*(connection(c) for c in clients))
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    elapsed = loop.time() - start
    retries = sum(c.retries_after + c.reconnects for c in clients)
    for client in clients:
        await client.aclose()
    return {"first": first, "count": count, "warmup": warmup,
            "replies": replies, "latency_s": latency, "late_s": late,
            "elapsed_s": elapsed, "retries": retries}


def _phase(requests: Requests, first: int, seconds: float,
           trace: bool) -> dict:
    """A fresh server, one warm-up request, ``seconds`` of schedule."""
    count = max(1, round(RATE_PER_S * seconds))
    server = ServerProcess(trace)
    try:
        tracer = Tracer() if trace else None
        phase = asyncio.run(_drive(server.port, requests, first, count,
                                   tracer))
        phase["peak_rss_mb"] = tree_peak_rss_mb()
        phase["client_spans"] = tracer.spans if trace else []
        phase["server"] = server.stop()
    finally:
        server.kill()
    return phase


def _check(requests: Requests, phases: list[dict]) -> tuple[int, list[str]]:
    """Every reply, warm-ups included, against a store-less engine.

    The reference evaluates each phase's requests as one batch; every
    row is computed independently, so its bits match a per-request
    evaluation.
    """
    engine = EvaluationEngine(cache_size=0)
    comparator = PlatformComparator.for_domain(DOMAIN)
    checked, problems = 0, []
    for phase in phases:
        first = phase["first"] - 1
        replies = [phase["warmup"]] + phase["replies"]
        ref = engine.evaluate_batch(comparator,
                                    requests.batch(first, len(replies)))
        for i, reply in enumerate(replies):
            checked += 1
            if isinstance(reply, Exception):
                problems.append(f"request {first + i}: {reply!r}")
                continue
            rows = slice(i * CELLS_PER_REQUEST, (i + 1) * CELLS_PER_REQUEST)
            found = checks.reply_identical(
                reply, (ref.ratios[rows], ref.winners[rows],
                        ref.fpga_totals[rows], ref.asic_totals[rows]))
            problems += [f"request {first + i}: {p}" for p in found]
    return checked, problems


def _replay(requests: Requests, phase: dict) -> dict:
    """The traced phase's first batches through ``evaluate_job``, in order.

    Mirrors the worker: same store capacity, preloaded comparator, one
    job per request, so the engine layers can be timed in this process.
    """
    engine = EvaluationEngine(cache_size=SERVER_STORE_CAPACITY)
    comparators = {DOMAIN: PlatformComparator.for_domain(DOMAIN)}
    first, count = phase["first"], min(phase["count"], REPLAY_REQUESTS)
    batches = [requests.batch(k) for k in range(first - 1, first + count)]
    tracer = Tracer()
    worker.evaluate_job(engine, comparators, DOMAIN,
                        job_columns(batches[0]), None)
    before = (engine.cache_stats, engine.rows_computed)
    tracer.install(layers.ENGINE_LAYERS)
    start = time.perf_counter()
    try:
        for batch in batches[1:]:
            worker.evaluate_job(engine, comparators, DOMAIN,
                                job_columns(batch), None)
    finally:
        tracer.unwrap_all()
    wall = time.perf_counter() - start
    metrics = layers.engine_metrics(tracer.spans, wall)
    metrics.update(layers.store_metrics(
        before[0], engine.cache_stats, before[1], engine.rows_computed,
        count * CELLS_PER_REQUEST))
    engine.close()
    return {"metrics": metrics, "spans": tracer.spans}


def _latency_metrics(phase: dict) -> dict:
    latency_ms = phase["latency_s"] * 1e3
    ok = sum(not isinstance(r, Exception) for r in phase["replies"])
    return {
        "rows_per_s": ok * CELLS_PER_REQUEST / phase["elapsed_s"],
        "p50_ms": median(latency_ms),
        "p75_ms": percentile(latency_ms, 75),
        "peak_rss_mb": phase["peak_rss_mb"],
    }


def _layer_metrics(plain: dict, traced: dict, replay: dict) -> dict:
    client = traced["client_spans"]
    # The server's first span of each name served the untimed warm-up.
    seen: set = set()
    server = []
    for record in traced["server"]["spans"]:
        if record[0] in seen:
            server.append(record)
        seen.add(record[0])
    stats = traced["server"]["stats"]
    metrics = layers.zero_metrics()
    metrics.update(replay["metrics"])
    for name, spans in (("encode_request", client),
                        ("decode_request", server),
                        ("encode_response", server),
                        ("decode_response", client)):
        metrics[f"protocol.{name}.ms_p50"] = median(
            layers.durations_ms(spans, f"protocol.{name}"))
    submit = layers.durations_ms(server, "supervisor.submit")
    compute = layers.durations_ms(replay["spans"], "worker.evaluate_job")
    queue = layers.queue_waits_ms(server)
    late_ms = traced["late_s"] * 1e3
    metrics.update({
        "supervisor.submit.ms_p50": median(submit),
        "supervisor.submit.ms_p90": percentile(submit, 90),
        "worker.evaluate_job.ms_p50": median(compute),
        "supervisor.ipc.ms_p50": median(submit) - median(compute),
        "server.queue_wait.ms_p90": percentile(queue, 90),
        "server.shed": stats["shed_queue_full"] + stats["shed_over_deadline"],
        "server.replays": stats["replays"],
        "client.retries": traced["retries"],
        "loadgen.late.ms_p50": median(late_ms),
        "loadgen.late.ms_max": float(np.max(late_ms)),
    })
    # Request-path attribution: the layers' summed time over the summed
    # latency from due (means add up; medians would not).
    on_path = sum(late_ms) + sum(submit) + sum(queue) + sum(
        sum(layers.durations_ms(spans, f"protocol.{name}"))
        for name, spans in (("encode_request", client),
                            ("decode_request", server),
                            ("encode_response", server),
                            ("decode_response", client)))
    total = float(np.sum(traced["latency_s"])) * 1e3
    metrics["trace.unattributed_share"] = max(0.0, 1.0 - on_path / total)
    metrics["trace.overhead_frac"] = (
        median(traced["latency_s"]) / median(plain["latency_s"]) - 1.0)
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of ``serve_open``; see ``perfbench/README.md``."""
    requests = Requests(seed)
    calibration = Calibration()
    setups = setup_probe.measure(name, seed, SETUP_SAMPLES, calibration)
    engine = EvaluationEngine(cache_size=0)
    ref = engine.evaluate_batch(PlatformComparator.for_domain(DOMAIN),
                                requests.batch(-1))
    reference = digest(ref.ratios, ref.winners, ref.fpga_totals,
                       ref.asic_totals)
    if trace:
        plain = _phase(requests, 0, seconds / 2, trace=False)
        traced = _phase(requests, plain["count"] + 2, seconds / 2,
                        trace=True)
        phases = [plain, traced]
        replay = _replay(requests, traced)
        metrics = _layer_metrics(plain, traced, replay)
        metrics.update(setup_probe.phase_medians(setups))
        (OUT / "trace-serve_open.json").write_text(json.dumps({
            "client": traced["client_spans"],
            "server": traced["server"]["spans"],
            "replay": replay["spans"],
        }))
        raw = {}
    else:
        # Timing the kernel inside the open loop would delay requests,
        # so it is timed on either side of the phase.
        calibration.sample(10)
        phases = [_phase(requests, 0, seconds, trace=False)]
        calibration.sample(10)
        raw = _latency_metrics(phases[0])
        raw["setup_s"] = median([s["total_s"] for s in setups])
        metrics = calibration.at_nominal_speed(raw, rates=())
    checked, problems = _check(requests, phases)
    problems += [
        f"set-up probe {i}: first reply differs"
        for i, s in enumerate(setups) if s["digest"] != reference
    ]
    attempted = sum(p["count"] for p in phases)
    return {
        "metrics": metrics,
        "attempted": attempted + len(setups),
        "failed": len(problems),
        "info": {
            "constants": {
                "rate_per_s": RATE_PER_S,
                "arrivals": "uniform (fixed rate)",
                "cells_per_request": CELLS_PER_REQUEST,
                "warm_cells_per_request": WARM_CELLS,
                "connections": CONNECTIONS,
                "server_workers": SERVER_WORKERS,
                "server_store_capacity": SERVER_STORE_CAPACITY,
                "deadline_s": DEADLINE_S,
                "replayed_requests": REPLAY_REQUESTS,
            },
            "latency_ms": tail_ms(phases[0]["latency_s"]),
            "calibration": calibration.summary(),
            "raw_metrics": raw,
            "samples": {
                "requests": [p["count"] for p in phases],
                "elapsed_s": [p["elapsed_s"] for p in phases],
                "setups": len(setups),
            },
            "checked_operations": checked,
            "problems": problems,
        },
    }
