"""Supervised worker-process pool for the serving tier.

:class:`WorkerSupervisor` owns N spawned
:func:`~repro.engine.serve.worker.worker_main` processes and keeps them
alive:

* **health checks** — a monitor task polls ``is_alive`` every interval
  and round-robin pings idle workers, so a worker that died (or hung)
  *between* requests is detected and replaced before traffic hits it;
* **crash recovery** — a worker that dies is restarted with
  equal-jittered exponential backoff (quick successive deaths escalate
  the delay floor, a worker that served for a while resets it, and the
  jitter keeps a whole killed fleet from respawning in lockstep); the
  batch it was running
  surfaces as :class:`WorkerDiedError` so the caller can replay it on a
  sibling — evaluation is pure and the store deduplicates by digest,
  so replay never double-computes and never changes a bit;
* **stuck-worker bounds** — a worker that exceeds its request's
  deadline plus grace is killed outright (cooperative cancellation has
  visibly failed) and restarted like any other death;
* **graceful refusal** — with zero live workers, :meth:`submit` raises
  :class:`WorkerUnavailableError` immediately instead of queueing
  forever, so the server can degrade to in-process evaluation.

All supervisor state is touched only from event-loop callbacks; the
blocking pipe send/recv runs on a dedicated one-thread executor per
worker, which also serialises access to that worker's pipe.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.connection import Connection
from concurrent.futures import ThreadPoolExecutor

from repro.engine.serve.backoff import JitteredBackoff
from repro.engine.serve.faults import FaultPlan
from repro.engine.serve.protocol import DeadlineError
from repro.engine.serve.worker import WorkerSpec, worker_main
from repro.errors import ParameterError, ServeError


class WorkerDiedError(ServeError):
    """The worker handling a batch died mid-flight (replay is safe)."""


class WorkerStuckError(ServeError):
    """A worker blew through deadline + grace and was killed."""


class WorkerUnavailableError(ServeError):
    """No live worker exists to take the batch (degrade or refuse)."""


class _WorkerStuck(Exception):
    """Internal: the pipe round-trip timed out (converted by submit)."""


@dataclass
class SupervisorStats:
    """Lifetime counters (monotonic; read them, don't reset them)."""

    workers_spawned: int = 0
    worker_deaths: int = 0
    worker_restarts: int = 0
    workers_killed_stuck: int = 0
    pings_ok: int = 0
    last_backoff_s: float = 0.0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class _WorkerHandle:
    """One live worker slot: process + pipe + its serialising executor."""

    __slots__ = (
        "index", "generation", "process", "conn", "executor",
        "spawned_at", "dead", "noted",
    )

    def __init__(self, index, generation, process, conn, executor):
        self.index = index
        self.generation = generation
        self.process = process
        self.conn = conn
        self.executor = executor
        self.spawned_at = time.monotonic()
        self.dead = False
        self.noted = False


def _pipe_roundtrip(conn: Connection, message: object, timeout_s: float):
    """Blocking send + bounded receive on a worker pipe (executor body).

    Raises :class:`_WorkerStuck` when no reply lands within
    ``timeout_s``; pipe-level failures (worker death) surface as
    ``EOFError`` / ``OSError`` for the caller to classify.
    """
    conn.send(message)
    end = time.monotonic() + timeout_s
    while True:
        remaining = end - time.monotonic()
        if remaining <= 0.0:
            raise _WorkerStuck()
        if conn.poll(min(remaining, 0.1)):
            return conn.recv()


class WorkerSupervisor:
    """Spawn, watch, restart, and dispatch to N worker processes.

    Args:
        workers: Worker process count (0 is legal: permanently
            unavailable, the degraded-mode spelling).
        cache_file: Optional store snapshot every worker pre-warms
            from (and the medium through which workers share warmth).
        cache_size: Result-store capacity per worker engine.
        fault_plan: Optional deterministic fault schedule, forwarded to
            every worker spec.
        default_timeout_s: Pipe round-trip bound for deadline-less
            batches.
        grace_s: Extra time past a batch's deadline before the worker
            counts as stuck and is killed.
        backoff_initial_s / backoff_max_s: Exponential restart backoff
            bounds (doubles per quick successive death, capped).  The
            actual delay is *equal-jittered* — uniformly drawn from the
            upper half of the ceiling — so a fleet killed together does
            not respawn in lockstep, while a crash-looping slot still
            keeps an escalating delay floor.
        backoff_reset_s: A worker surviving at least this long resets
            its slot's backoff to the initial value.
        backoff_jitter_seed: Seed for the restart jitter RNG (tests pin
            it; production leaves OS entropy).
        health_interval_s: Monitor poll period.
        snapshot_every_s: Forwarded to every worker spec — each worker
            atomically re-dumps its warm store to ``cache_file`` on
            this cadence, so a restarted server comes back warm.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        cache_file: "str | None" = None,
        cache_size: int = 4096,
        fault_plan: "FaultPlan | None" = None,
        preload_domains: tuple = (),
        default_timeout_s: float = 60.0,
        grace_s: float = 0.5,
        backoff_initial_s: float = 0.05,
        backoff_max_s: float = 2.0,
        backoff_reset_s: float = 5.0,
        backoff_jitter_seed: "int | None" = None,
        health_interval_s: float = 0.25,
        snapshot_every_s: "float | None" = None,
    ) -> None:
        if workers < 0:
            raise ParameterError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.cache_file = cache_file
        self.cache_size = cache_size
        self.fault_plan = fault_plan
        self.preload_domains = tuple(preload_domains)
        self.default_timeout_s = default_timeout_s
        self.grace_s = grace_s
        self.backoff_initial_s = backoff_initial_s
        self.backoff_max_s = backoff_max_s
        self.backoff_reset_s = backoff_reset_s
        self.health_interval_s = health_interval_s
        self.snapshot_every_s = snapshot_every_s
        self._backoff = JitteredBackoff(
            backoff_initial_s, backoff_max_s, mode="equal",
            seed=backoff_jitter_seed,
        )
        self.stats = SupervisorStats()
        self._handles: dict[int, "_WorkerHandle | None"] = {}
        self._failures: dict[int, int] = {}
        self._idle: "asyncio.Queue[_WorkerHandle]" = asyncio.Queue()
        self._live = 0
        self._closed = False
        self._started = False
        self._monitor_task: "asyncio.Task | None" = None
        self._tasks: set[asyncio.Task] = set()
        self._ping_cursor = 0

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Spawn the initial fleet and start the health monitor."""
        if self._started:
            return
        self._started = True
        loop = asyncio.get_running_loop()
        spawned = await asyncio.gather(
            *(
                loop.run_in_executor(None, self._spawn_blocking, index, 0)
                for index in range(self.workers)
            )
        )
        for handle in spawned:
            self._handles[handle.index] = handle
            self._live += 1
            self._idle.put_nowait(handle)
        self._monitor_task = asyncio.get_running_loop().create_task(
            self._monitor()
        )

    def _spawn_blocking(self, index: int, generation: int) -> _WorkerHandle:
        """Start one worker process (blocking; runs on an executor)."""
        spec = WorkerSpec(
            index=index,
            generation=generation,
            cache_file=self.cache_file,
            cache_size=self.cache_size,
            fault_plan=self.fault_plan,
            preload_domains=self.preload_domains,
            snapshot_every_s=self.snapshot_every_s,
        )
        ctx = get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=worker_main,
            args=(child_conn, spec),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-serve-pipe-{index}"
        )
        self.stats.workers_spawned += 1
        return _WorkerHandle(index, generation, process, parent_conn, executor)

    async def stop(self) -> None:
        """Shut the fleet down; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        for task in list(self._tasks):
            task.cancel()
        while not self._idle.empty():
            self._idle.get_nowait()
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(
                loop.run_in_executor(None, self._reap_blocking, handle)
                for handle in self._handles.values()
                if handle is not None
            )
        )
        self._live = 0

    @staticmethod
    def _reap_blocking(handle: _WorkerHandle) -> None:
        """Politely stop one worker, escalating to kill (executor body)."""
        try:
            handle.conn.send(None)
        except (OSError, ValueError):
            pass
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.process.join(timeout=1.0)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=1.0)
        handle.executor.shutdown(wait=False)

    # -- introspection --------------------------------------------------

    async def wait_for_fleet(self, count: int, timeout_s: float = 10.0) -> bool:
        """Wait until at least ``count`` workers are live (for tests)."""
        end = time.monotonic() + timeout_s
        while time.monotonic() < end:
            if self._live >= count:
                return True
            await asyncio.sleep(0.02)
        return self._live >= count

    # -- dispatch -------------------------------------------------------

    async def submit(self, job: dict, *, deadline: "float | None" = None):
        """Run one batch job on some live worker; returns its reply tuple.

        Raises :class:`WorkerDiedError` (replayable),
        :class:`WorkerStuckError` (the worker was killed; the request's
        deadline is gone), :class:`WorkerUnavailableError` (no fleet),
        or :class:`~repro.engine.serve.protocol.DeadlineError` (the
        deadline expired while waiting for a free worker).
        """
        handle = await self._acquire(deadline)
        if deadline is None:
            timeout_s = self.default_timeout_s
        else:
            timeout_s = max(0.05, deadline - time.monotonic() + self.grace_s)
        loop = asyncio.get_running_loop()
        try:
            reply = await loop.run_in_executor(
                handle.executor, _pipe_roundtrip, handle.conn,
                ("batch", job), timeout_s,
            )
        except _WorkerStuck:
            self.stats.workers_killed_stuck += 1
            self._note_death(handle, kill=True)
            raise WorkerStuckError(
                f"worker {handle.index} exceeded deadline + "
                f"{self.grace_s}s grace and was killed"
            ) from None
        except (EOFError, OSError) as exc:
            self._note_death(handle, kill=False)
            raise WorkerDiedError(
                f"worker {handle.index} died mid-batch: {exc!r}"
            ) from exc
        self._release(handle)
        return reply

    async def _acquire(self, deadline: "float | None") -> _WorkerHandle:
        """Pop a live idle worker, discarding corpses along the way."""
        while True:
            if self._closed:
                raise WorkerUnavailableError("supervisor is stopped")
            if self._live == 0:
                raise WorkerUnavailableError("no live workers")
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineError(
                    "deadline expired while waiting for a free worker"
                )
            try:
                handle = self._idle.get_nowait()
            except asyncio.QueueEmpty:
                try:
                    handle = await asyncio.wait_for(
                        self._idle.get(), timeout=0.05
                    )
                except asyncio.TimeoutError:
                    continue
            if handle.dead:
                continue
            if not handle.process.is_alive():
                self._note_death(handle, kill=False)
                continue
            return handle

    def _release(self, handle: _WorkerHandle) -> None:
        if not self._closed and not handle.dead:
            self._idle.put_nowait(handle)

    # -- death, restart, health ----------------------------------------

    def _note_death(self, handle: _WorkerHandle, *, kill: bool) -> None:
        """Record one worker death exactly once and schedule its restart."""
        if handle.noted:
            return
        handle.noted = True
        handle.dead = True
        self._live -= 1
        self.stats.worker_deaths += 1
        if kill and handle.process.is_alive():
            handle.process.kill()
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.executor.shutdown(wait=False)
        lifetime = time.monotonic() - handle.spawned_at
        previous = self._failures.get(handle.index, 0)
        self._failures[handle.index] = (
            previous + 1 if lifetime < self.backoff_reset_s else 1
        )
        if not self._closed:
            task = asyncio.get_running_loop().create_task(
                self._restart(handle.index)
            )
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _restart(self, index: int) -> None:
        """Respawn one slot after its jittered exponential-backoff delay."""
        failures = max(1, self._failures.get(index, 1))
        delay = self._backoff.delay(failures)
        self.stats.last_backoff_s = delay
        await asyncio.sleep(delay)
        if self._closed:
            return
        previous = self._handles.get(index)
        generation = 0 if previous is None else previous.generation + 1
        loop = asyncio.get_running_loop()
        try:
            handle = await loop.run_in_executor(
                None, self._spawn_blocking, index, generation
            )
        except Exception as exc:  # noqa: BLE001 - a failed respawn must reschedule itself (with escalated backoff), not kill the monitor; the error is preserved in the next attempt's timing
            self._failures[index] = failures + 1
            if not self._closed:
                task = asyncio.get_running_loop().create_task(
                    self._restart(index)
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
            return
        if self._closed:
            await loop.run_in_executor(None, self._reap_blocking, handle)
            return
        self._handles[index] = handle
        self._live += 1
        self.stats.worker_restarts += 1
        self._idle.put_nowait(handle)

    async def _monitor(self) -> None:
        """Detect silent deaths and ping one idle worker per tick."""
        while not self._closed:
            await asyncio.sleep(self.health_interval_s)
            for handle in list(self._handles.values()):
                if handle is None or handle.noted:
                    continue
                if not handle.process.is_alive():
                    self._note_death(handle, kill=False)
            await self._ping_one_idle()

    async def _ping_one_idle(self) -> None:
        """Round-robin liveness probe of the idle pool (at most one)."""
        try:
            handle = self._idle.get_nowait()
        except asyncio.QueueEmpty:
            return
        if handle.dead:
            return
        if not handle.process.is_alive():
            self._note_death(handle, kill=False)
            return
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(
                handle.executor, _pipe_roundtrip, handle.conn,
                ("ping",), max(self.grace_s, 2.0),
            )
        except _WorkerStuck:
            self.stats.workers_killed_stuck += 1
            self._note_death(handle, kill=True)
        except (EOFError, OSError):
            self._note_death(handle, kill=False)
        else:
            self.stats.pings_ok += 1
            self._release(handle)
