"""Async batch-serving front-end over the evaluation engine.

:class:`AsyncEvaluationEngine` multiplexes many concurrent clients over
one shared :class:`~repro.engine.engine.EvaluationEngine` (and therefore
one shared warm result store):

* **awaitable API** — ``evaluate_many`` / ``evaluate_batch`` /
  ``sweep_batch`` / ``heatmap_batch`` mirror the sync entry points but
  never block the event loop: CPU-bound kernel work runs on a worker
  pool.
* **micro-batching** — requests arriving within one batching window are
  coalesced per comparator into a single fused
  :class:`~repro.engine.vector.ScenarioBatch` and dispatched as *one*
  kernel/gather call; each client then receives its own row slice of
  the fused :class:`~repro.engine.vector.BatchResult`.  Aggregate
  throughput under concurrency therefore rises with the number of
  clients, while a lone client pays at most one window of latency.
* **no duplicated work** — fused batches are deduplicated by digest
  inside the engine, and flush rounds are processed sequentially, so a
  cell requested by many concurrent clients is computed exactly once
  and every later request is a store hit (see
  ``EvaluationEngine.rows_computed``).

The serving benchmark harness (:func:`serving_benchmark`) drives the
same front-end for the CLI ``serve-bench`` command and
``benchmarks/test_bench_serving.py``.
"""

from __future__ import annotations

import asyncio
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.comparison import ComparisonResult, PlatformComparator
from repro.core.scenario import Scenario
from repro.engine.engine import EvaluationEngine
from repro.engine.store import comparator_digest
from repro.engine.vector import BatchResult, ScenarioBatch
from repro.engine.vector.fused import kernel_tier_label
from repro.errors import ParameterError

#: Default micro-batching window: long enough to coalesce a burst of
#: concurrent submissions, short enough to stay invisible to humans.
DEFAULT_BATCH_WINDOW_S = 0.002


@dataclass
class _Request:
    """One queued batch request awaiting a flush round."""

    comparator: PlatformComparator
    batch: ScenarioBatch
    future: "asyncio.Future[BatchResult]" = field(repr=False)


class AsyncEvaluationEngine:
    """Awaitable, micro-batching front-end over one shared engine.

    Args:
        engine: Engine to serve from.  ``None`` builds (and owns) a
            default-configured engine, closed again by :meth:`close`.
        batch_window_s: Micro-batching window.  Requests submitted while
            a window is open are fused into one kernel dispatch per
            comparator; ``0`` still coalesces whatever arrives within
            one event-loop pass.
        eager_single: Dispatch a lone queued request immediately instead
            of holding it for the window, unconditionally.  Implied by
            the default adaptive window; keep for explicit
            latency-pinned configurations.
        adaptive_window: Auto-eager when the queue is idle (the
            default): a request that is *alone* after the enqueue pass —
            no other pending clients to fuse with — skips the window,
            so a serialized client pays per-dispatch cost only, while
            any concurrent burst (two or more pending) still gets the
            full window and fuses.  ``False`` restores the
            unconditional window, the classic micro-batching trade.
        workers: Threads of the dispatch pool running the CPU-bound
            kernel/gather work (NumPy releases the GIL for the heavy
            array operations).

    The instance is bound to the event loop it first serves on; share
    one per loop, not across loops.  All mutable queue state is only
    touched from loop callbacks, so no extra locking is needed — the
    underlying engine and store are themselves thread-safe for the
    executor threads.
    """

    def __init__(
        self,
        engine: EvaluationEngine | None = None,
        *,
        batch_window_s: float = DEFAULT_BATCH_WINDOW_S,
        eager_single: bool = False,
        adaptive_window: bool = True,
        workers: int = 4,
    ) -> None:
        if batch_window_s < 0.0:
            raise ParameterError(
                f"batch_window_s must be >= 0, got {batch_window_s}"
            )
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        self._engine = engine if engine is not None else EvaluationEngine()
        self._owns_engine = engine is None
        self.batch_window_s = batch_window_s
        self.eager_single = eager_single
        self.adaptive_window = adaptive_window
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._pending: list[_Request] = []
        self._flusher: asyncio.Task | None = None
        self._closed = False
        #: Requests answered (each client call counts once).
        self.requests_served = 0
        #: Fused dispatches that coalesced >= 2 requests.
        self.batches_fused = 0
        #: Requests that rode in a fused dispatch.
        self.requests_coalesced = 0
        #: Windows skipped for idle-queue lone requests (adaptive/eager).
        self.windows_skipped = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def engine(self) -> EvaluationEngine:
        """The engine (and store) this front-end serves from."""
        return self._engine

    def close(self) -> None:
        """Stop accepting work and release the dispatch pool.

        Safe to call with requests still in flight — no awaiting client
        is ever left hanging:

        * requests still **queued** for a future flush round get a
          :class:`~repro.errors.ParameterError` delivered to their
          futures immediately;
        * requests already **dispatched** to the worker pool finish
          normally (the shutdown below waits for them) and receive
          their results.

        Idempotent: the first call wins, later calls are no-ops.  The
        owned engine (if any) is closed too.
        """
        if self._closed:
            return
        self._closed = True
        # Fail the queued-but-undispatched futures *before* blocking on
        # the executor: their flush round will never run (the flusher
        # sees an empty queue and exits), so an error now is the only
        # alternative to a silent hang.
        pending, self._pending = self._pending, []
        for request in pending:
            if not request.future.done():
                request.future.set_exception(
                    ParameterError(
                        "AsyncEvaluationEngine closed with requests in flight"
                    )
                )
        self._executor.shutdown(wait=True)
        if self._owns_engine:
            self._engine.close()

    async def __aenter__(self) -> "AsyncEvaluationEngine":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Awaitable evaluation API
    # ------------------------------------------------------------------

    async def evaluate_batch(
        self,
        comparator: PlatformComparator,
        scenarios: "ScenarioBatch | Sequence[Scenario]",
    ) -> BatchResult:
        """Awaitable :meth:`EvaluationEngine.evaluate_batch`.

        Fully covered batches join the micro-batching queue and may be
        fused with concurrent requests for the same comparator;
        uncovered batches (heterogeneous per-application lifetimes) are
        dispatched standalone.
        """
        if self._closed:
            raise ParameterError("AsyncEvaluationEngine is closed")
        batch = (
            scenarios
            if isinstance(scenarios, ScenarioBatch)
            else ScenarioBatch.from_scenarios(tuple(scenarios))
        )
        if not batch.all_covered:
            result = await self._run(
                self._engine.evaluate_batch, comparator, batch
            )
            self.requests_served += 1
            return result
        loop = asyncio.get_running_loop()
        future: asyncio.Future[BatchResult] = loop.create_future()
        self._pending.append(_Request(comparator, batch, future))
        if self._flusher is None or self._flusher.done():
            self._flusher = loop.create_task(self._flush_loop())
        result = await future
        self.requests_served += 1
        return result

    async def evaluate_many(
        self, comparator: PlatformComparator, scenarios: Sequence[Scenario]
    ) -> tuple[ComparisonResult, ...]:
        """Awaitable :meth:`EvaluationEngine.evaluate_many`.

        Uniform-lifetime scenario lists ride the coalescing batch path
        and are materialised from the fused result's rows; anything else
        runs the object path on the worker pool.  Results are identical
        to the sync spelling either way.
        """
        scenario_list = tuple(scenarios)
        if not scenario_list:
            return ()
        batch = ScenarioBatch.from_scenarios(scenario_list)
        if not batch.all_covered:
            result = await self._run(
                self._engine.evaluate_many, comparator, scenario_list
            )
            self.requests_served += 1
            return result
        batch_result = await self.evaluate_batch(comparator, batch)
        return tuple(
            batch_result.comparison(i, scenario)
            for i, scenario in enumerate(scenario_list)
        )

    async def sweep_batch(
        self,
        comparator: PlatformComparator,
        base_scenario: Scenario,
        axis: str,
        values: Sequence[float],
    ):
        """Awaitable :func:`repro.analysis.sweep.sweep_batch`."""
        from repro.analysis.sweep import SweepBatch, sweep_columns

        batch = sweep_columns(base_scenario, axis, values)
        result = await self.evaluate_batch(comparator, batch)
        return SweepBatch(
            axis=axis,
            values=np.asarray(values, dtype=np.float64),
            batch=result,
        )

    async def heatmap_batch(
        self,
        comparator: PlatformComparator,
        base_scenario: Scenario,
        x_axis: str,
        x_values: Sequence[float],
        y_axis: str,
        y_values: Sequence[float],
    ):
        """Awaitable :func:`repro.analysis.heatmap.pairwise_heatmap_batch`."""
        from repro.analysis.heatmap import HeatmapResult, heatmap_columns

        batch = heatmap_columns(
            base_scenario, x_axis, x_values, y_axis, y_values
        )
        result = await self.evaluate_batch(comparator, batch)
        return HeatmapResult(
            x_axis=x_axis,
            y_axis=y_axis,
            x_values=tuple(float(v) for v in x_values),
            y_values=tuple(float(v) for v in y_values),
            ratios=result.ratios.reshape((len(y_values), len(x_values))),
        )

    # ------------------------------------------------------------------
    # Micro-batching internals
    # ------------------------------------------------------------------

    async def _run(self, fn: Callable, *args: Any) -> Any:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, functools.partial(fn, *args)
        )

    async def _flush_loop(self) -> None:
        """Drain the queue: wait one window, fuse what arrived, dispatch.

        The leading ``sleep(0)`` lets every already-runnable submitter
        enqueue before the round is sized; the batching window then
        collects the rest of the burst.  A request still alone after
        that pass has no concurrent peers to fuse with, so the adaptive
        window (and ``eager_single``) dispatches it immediately instead
        of charging it the window — a burst of two or more always waits
        the window out and fuses.  Flush rounds run sequentially, so
        everything computed in round K is in the store before round K+1
        is fused — concurrent clients asking for the same cells across
        rounds always hit warmth.

        No exception may escape a round: a failure anywhere in dispatch
        is delivered to that round's futures, otherwise every queued
        client would hang on ``await`` forever.
        """
        try:
            while self._pending:
                await asyncio.sleep(0)
                lone = len(self._pending) == 1
                if lone and (self.adaptive_window or self.eager_single):
                    self.windows_skipped += 1
                else:
                    await asyncio.sleep(self.batch_window_s)
                pending, self._pending = self._pending, []
                try:
                    await self._dispatch(pending)
                except Exception as exc:  # noqa: BLE001 - fed to futures
                    for request in pending:
                        if not request.future.done():
                            request.future.set_exception(exc)
        finally:
            self._flusher = None

    async def _dispatch(self, pending: list[_Request]) -> None:
        groups: dict[tuple[int, int], list[_Request]] = {}
        for request in pending:
            groups.setdefault(
                comparator_digest(request.comparator), []
            ).append(request)
        for requests in groups.values():
            if len(requests) == 1:
                await self._dispatch_one(requests[0])
                continue
            try:
                fused = ScenarioBatch.concat([r.batch for r in requests])
                self.batches_fused += 1
                self.requests_coalesced += len(requests)
                result = await self._run(
                    self._engine.evaluate_batch, requests[0].comparator, fused
                )
            except Exception as exc:  # noqa: BLE001 - delivered to every coalesced request future
                for request in requests:
                    if not request.future.done():
                        request.future.set_exception(exc)
                continue
            offset = 0
            for request in requests:
                stop = offset + request.batch.size
                if not request.future.done():
                    request.future.set_result(result.slice_rows(offset, stop))
                offset = stop

    async def _dispatch_one(self, request: _Request) -> None:
        try:
            result = await self._run(
                self._engine.evaluate_batch, request.comparator, request.batch
            )
        except Exception as exc:  # noqa: BLE001 - delivered to the request future
            if not request.future.done():
                request.future.set_exception(exc)
        else:
            if not request.future.done():
                request.future.set_result(result)


# ----------------------------------------------------------------------
# Serving benchmark harness (CLI `serve-bench` + benchmarks/)
# ----------------------------------------------------------------------


def _client_jobs(
    clients: int, requests_per_client: int, cells_per_request: int
) -> list[list[tuple[Scenario, tuple[int, ...]]]]:
    """Per-client request lists over one shared cell universe.

    Every client sweeps the same ``requests_per_client`` lifetime rows
    (each ``cells_per_request`` ``num_apps`` cells), so concurrent
    clients genuinely contend for — and share — the same cache lines.
    """
    lifetimes = np.linspace(0.5, 3.0, requests_per_client)
    values = tuple(range(1, cells_per_request + 1))
    jobs: list[list[tuple[Scenario, tuple[int, ...]]]] = []
    for _ in range(clients):
        rows = [
            (
                Scenario(
                    num_apps=5, app_lifetime_years=float(t), volume=1_000_000
                ),
                values,
            )
            for t in lifetimes
        ]
        jobs.append(rows)
    return jobs


async def _drive(
    served: AsyncEvaluationEngine,
    comparator: PlatformComparator,
    jobs: list[list[tuple[Scenario, tuple[int, ...]]]],
) -> float:
    """Run every client's jobs concurrently; return elapsed seconds."""

    async def client(rows: list[tuple[Scenario, tuple[int, ...]]]) -> None:
        for base, values in rows:
            await served.sweep_batch(comparator, base, "num_apps", values)

    start = time.perf_counter()
    await asyncio.gather(*(client(rows) for rows in jobs))
    return time.perf_counter() - start


def serving_benchmark(
    *,
    clients: int = 8,
    requests_per_client: int = 24,
    cells_per_request: int = 100,
    batch_window_s: float = DEFAULT_BATCH_WINDOW_S,
    cache_file: "str | Path | None" = None,
    domain: str = "dnn",
) -> dict:
    """Measure serving throughput: 1 vs N clients, cold vs persisted-warm.

    Phases over one shared cell universe (`clients` x
    `requests_per_client` sweep requests of ``cells_per_request`` cells):

    * ``cold_serialized_1`` — fresh store, one client awaiting each
      request in turn through the micro-batching server (the default
      adaptive window: lone requests dispatch eagerly);
    * ``cold_concurrent_N`` — fresh store, ``clients`` concurrent
      clients coalesced by the micro-batcher;
    * ``warm_serialized_1`` / ``warm_concurrent_N`` — the same two
      modes against a store loaded from the ``.npz`` the cold phase
      persisted (``cache_file``; a throwaway file when not given);
    * ``warm_serialized_1_windowed`` — reference: the same serialized
      drive with ``adaptive_window=False``, i.e. the classic
      unconditional window every micro-batching server charges lone
      requests.  The concurrent-speedup gate compares against this
      phase, since it is the dispatch mode concurrency amortises;
    * ``warm_serialized_1_eager`` — reference: ``eager_single=True``
      (window never held for lone requests).  The adaptive-window gate
      compares ``warm_serialized_1`` against this phase — adaptive
      dispatch must serve an idle-queue serialized client at
      near-eager latency.

    Returns a JSON-ready dict with per-phase elapsed seconds and
    scenarios/sec plus two headline ratios that
    ``benchmarks/timing_gates.py`` gates: coalesced concurrent clients
    vs windowed serialized dispatch (the micro-batching win), and
    adaptive serialized vs eager serialized (the idle-queue window
    penalty, which the adaptive window exists to remove).
    """
    comparator = PlatformComparator.for_domain(domain)
    total_requests = clients * requests_per_client
    total_cells = total_requests * cells_per_request
    own_cache = cache_file is None
    if own_cache:
        import tempfile

        handle = tempfile.NamedTemporaryFile(
            suffix=".npz", delete=False
        )
        handle.close()
        cache_file = handle.name
    cache_path = Path(cache_file)

    def serialized_jobs() -> list[list[tuple[Scenario, tuple[int, ...]]]]:
        per_client = _client_jobs(clients, requests_per_client, cells_per_request)
        return [[row for rows in per_client for row in rows]]

    async def phase(
        jobs: list[list[tuple[Scenario, tuple[int, ...]]]],
        *,
        load: bool,
        eager_single: bool = False,
        adaptive_window: bool = True,
        repeats: int = 1,
    ) -> tuple[float, EvaluationEngine]:
        """One timed drive; ``repeats > 1`` keeps the fastest run.

        Timing noise is strictly additive, so min-of-N is the right
        estimator for the latency-*ratio* gates (adaptive vs eager) —
        each warm repeat rebuilds the engine from the same ``.npz``, so
        no repeat sees extra warmth.
        """
        best = float("inf")
        engine = None
        for _ in range(repeats):
            engine = EvaluationEngine()
            if load:
                engine.load_cache(cache_path)
            async with AsyncEvaluationEngine(
                engine,
                batch_window_s=batch_window_s,
                eager_single=eager_single,
                adaptive_window=adaptive_window,
            ) as served:
                best = min(best, await _drive(served, comparator, jobs))
        return best, engine

    async def run_all() -> dict:
        cold_1_s, _ = await phase(serialized_jobs(), load=False)
        cold_n_s, warm_engine = await phase(
            _client_jobs(clients, requests_per_client, cells_per_request),
            load=False,
        )
        warm_engine.save_cache(cache_path)
        persisted = warm_engine.cache_stats.size
        warm_1_s, _ = await phase(serialized_jobs(), load=True, repeats=3)
        warm_1_windowed_s, _ = await phase(
            serialized_jobs(), load=True, adaptive_window=False
        )
        warm_1_eager_s, _ = await phase(
            serialized_jobs(), load=True, eager_single=True, repeats=3
        )
        warm_n_s, warm_n_engine = await phase(
            _client_jobs(clients, requests_per_client, cells_per_request),
            load=True,
        )
        warm_hit_rate = warm_n_engine.cache_stats.hit_rate
        warm_recomputed = warm_n_engine.rows_computed

        def entry(elapsed: float) -> dict:
            return {
                "elapsed_s": round(elapsed, 4),
                "scenarios_per_s": round(total_cells / elapsed, 1),
            }

        return {
            "clients": clients,
            "requests_per_client": requests_per_client,
            "cells_per_request": cells_per_request,
            "total_scenarios": total_cells,
            "batch_window_s": batch_window_s,
            # Serving always materialises result rows (clients receive
            # per-row slices); recorded so reports stay comparable if a
            # streaming reducer mode lands here too.  kernel_tier is the
            # tier a reduce= path would serve under the current
            # REPRO_KERNEL resolution, making the report self-describing
            # about the deployed kernel stack.
            "reduce_mode": "materialized",
            "kernel_tier": kernel_tier_label(None),
            "persisted_entries": int(persisted),
            "warm_concurrent_hit_rate": round(float(warm_hit_rate), 4),
            "warm_concurrent_rows_recomputed": int(warm_recomputed),
            "phases": {
                "cold_serialized_1": entry(cold_1_s),
                f"cold_concurrent_{clients}": entry(cold_n_s),
                "warm_serialized_1": entry(warm_1_s),
                "warm_serialized_1_windowed": entry(warm_1_windowed_s),
                "warm_serialized_1_eager": entry(warm_1_eager_s),
                f"warm_concurrent_{clients}": entry(warm_n_s),
            },
            "speedup_concurrent_vs_windowed_serialized_warm": round(
                warm_1_windowed_s / warm_n_s, 2
            ),
            "adaptive_serialized_over_eager_warm": round(
                warm_1_s / warm_1_eager_s, 2
            ),
        }

    try:
        return asyncio.run(run_all())
    finally:
        if own_cache:
            cache_path.unlink(missing_ok=True)
