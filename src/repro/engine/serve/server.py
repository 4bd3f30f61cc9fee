"""Asyncio batch server: admission control, dispatch, degradation.

:class:`BatchServer` accepts protocol frames
(:mod:`~repro.engine.serve.protocol`) on a TCP socket and runs each
request batch on the supervised worker pool
(:class:`~repro.engine.serve.supervisor.WorkerSupervisor`):

* **bounded admission queue** — at most ``queue_limit`` requests wait
  for dispatch; a request arriving at a full queue is shed immediately
  (*shed newest*: the queued requests have waited longest and are
  closest to their deadlines — restarting the wait line from the back
  would starve them) with a client-visible ``RETRY_AFTER`` frame;
* **shed-over-deadline** — a queued request whose deadline expires
  before dispatch is answered with a deadline frame instead of burning
  a worker on an answer nobody is waiting for;
* **replay on worker death** — a batch whose worker dies is replayed on
  a sibling worker (bounded by ``max_replays``); evaluation is pure and
  store-deduplicated, so replays are bit-identical and never
  double-compute warm cells;
* **graceful degradation** — when no worker is live (crash loop, or a
  zero-worker configuration), batches are evaluated in-process on a
  thread executor: slower, never wrong, and the supervisor keeps
  restoring the fleet in the background.

Every policy decision increments a counter in :class:`ServerStats`, so
tests (and operators) assert on *behaviour*, not log scraping.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.engine.engine import EvaluationEngine
from repro.engine.serve import protocol
from repro.engine.serve.faults import FaultPlan
from repro.engine.serve.supervisor import (
    WorkerDiedError,
    WorkerStuckError,
    WorkerSupervisor,
    WorkerUnavailableError,
)
from repro.engine.serve.worker import evaluate_job
from repro.engine.vector.columns import ScenarioBatch
from repro.errors import ParameterError, ServeError


@dataclass
class ServerStats:
    """Admission / dispatch / failure counters (monotonic)."""

    requests_admitted: int = 0
    responses_ok: int = 0
    shed_queue_full: int = 0
    shed_over_deadline: int = 0
    deadline_exceeded: int = 0
    replays: int = 0
    degraded_inprocess: int = 0
    worker_errors: int = 0
    protocol_errors: int = 0
    frames_truncated: int = 0

    def as_dict(self) -> dict:
        return {
            "requests_admitted": self.requests_admitted,
            "responses_ok": self.responses_ok,
            "shed_queue_full": self.shed_queue_full,
            "shed_over_deadline": self.shed_over_deadline,
            "deadline_exceeded": self.deadline_exceeded,
            "replays": self.replays,
            "degraded_inprocess": self.degraded_inprocess,
            "worker_errors": self.worker_errors,
            "protocol_errors": self.protocol_errors,
            "frames_truncated": self.frames_truncated,
        }


@dataclass
class _Job:
    """One admitted request waiting for (or in) dispatch."""

    request_id: int
    domain: str
    batch: ScenarioBatch
    deadline: "float | None"
    writer: asyncio.StreamWriter
    write_lock: asyncio.Lock = field(repr=False)


class BatchServer:
    """Length-prefixed batch evaluation server over supervised workers.

    Args:
        workers: Supervised worker-process count (0 = always degraded).
        queue_limit: Admission queue bound; beyond it requests are shed
            with ``RETRY_AFTER``.
        host / port: Bind address (port 0 picks a free port; see
            :attr:`address` after :meth:`start`).
        cache_file: Optional store snapshot — workers *and* the
            degraded-path engine pre-warm from it.
        cache_size: Result-store capacity per engine.
        default_deadline_s: Deadline applied to requests that do not
            carry one.
        retry_after_s: Backoff hint sent with shed requests.
        max_replays: Worker-death replays per request before the
            in-process path takes over.
        dispatchers: Concurrent dispatch tasks (default: one per
            worker, minimum one).
        fault_plan: Optional deterministic fault schedule (forwarded to
            workers; response truncation is applied server-side).
        preload_domains: Domains every worker (including restarted
            ones) builds comparators for before taking traffic.
        snapshot_every_s: Forwarded to every worker: with
            ``cache_file`` set, each worker atomically re-dumps its
            warm store to the file at most this often, so a restarted
            server (or fleet) comes back warm from the last complete
            snapshot instead of cold.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_limit: int = 64,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_file: "str | None" = None,
        cache_size: int = 65536,
        default_deadline_s: float = 30.0,
        retry_after_s: float = 0.05,
        max_replays: int = 2,
        dispatchers: "int | None" = None,
        fault_plan: "FaultPlan | None" = None,
        preload_domains: tuple = (),
        snapshot_every_s: "float | None" = None,
    ) -> None:
        if queue_limit < 1:
            raise ParameterError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        self.host = host
        self.port = port
        self.default_deadline_s = default_deadline_s
        self.retry_after_s = retry_after_s
        self.max_replays = max_replays
        self.fault_plan = fault_plan
        self.stats = ServerStats()
        self.supervisor = WorkerSupervisor(
            workers,
            cache_file=cache_file,
            cache_size=cache_size,
            fault_plan=fault_plan,
            preload_domains=preload_domains,
            snapshot_every_s=snapshot_every_s,
        )
        self._queue: "asyncio.Queue[_Job]" = asyncio.Queue(
            maxsize=queue_limit
        )
        self._dispatchers = (
            max(1, workers) if dispatchers is None else max(1, dispatchers)
        )
        self._engine = EvaluationEngine(
            cache_size=cache_size, cache_file=cache_file
        )
        self._comparators: dict = {}
        self._server: "asyncio.base_events.Server | None" = None
        self._tasks: list[asyncio.Task] = []
        self._response_frames = 0
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Spawn the fleet, bind the socket; returns ``(host, port)``."""
        await self.supervisor.start()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._dispatch_loop())
            for _ in range(self._dispatchers)
        ]
        return self.host, self.port

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting, cancel dispatchers, reap the fleet."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        await self.supervisor.stop()
        self._engine.close()

    async def __aenter__(self) -> "BatchServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- connection handling --------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Per-connection read loop: admit, shed, or reject frames."""
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    frame = await protocol.read_frame(reader)
                except protocol.ProtocolError:
                    # The stream cannot resynchronise after a malformed
                    # or truncated frame — drop the connection; the
                    # client reconnects and replays.
                    self.stats.protocol_errors += 1
                    break
                if frame is None:
                    break
                await self._admit_frame(frame, writer, write_lock)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def _admit_frame(
        self,
        frame: protocol.Frame,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        if frame.type == protocol.MSG_PING:
            await self._write(
                writer, write_lock,
                protocol.encode_frame(protocol.MSG_PONG, frame.request_id),
            )
            return
        if frame.type != protocol.MSG_REQUEST:
            self.stats.protocol_errors += 1
            await self._write(
                writer, write_lock,
                protocol.encode_error(
                    frame.request_id,
                    f"unexpected frame type {frame.type}",
                ),
            )
            return
        try:
            domain, batch = protocol.decode_request(frame.payload)
        except (protocol.ProtocolError, ParameterError) as exc:
            self.stats.protocol_errors += 1
            await self._write(
                writer, write_lock,
                protocol.encode_error(frame.request_id, str(exc)),
            )
            return
        deadline_s = (
            frame.deadline_ms / 1000.0
            if frame.deadline_ms
            else self.default_deadline_s
        )
        job = _Job(
            request_id=frame.request_id,
            domain=domain,
            batch=batch,
            deadline=time.monotonic() + deadline_s,
            writer=writer,
            write_lock=write_lock,
        )
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            # Shed newest: the queued requests have already waited and
            # are nearest their deadlines; the newcomer gets an honest
            # retry hint instead of a doomed queue slot.
            self.stats.shed_queue_full += 1
            await self._write(
                writer, write_lock,
                protocol.encode_retry_after(
                    frame.request_id, self.retry_after_s
                ),
            )
            return
        self.stats.requests_admitted += 1

    # -- dispatch -------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            job = await self._queue.get()
            try:
                await self._process(job)
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - a dispatcher must survive any one job's failure (e.g. a connection torn down mid-write); the client's retry path covers the lost response
                self.stats.protocol_errors += 1

    async def _process(self, job: _Job) -> None:
        """Run one admitted job to a response frame."""
        if job.deadline is not None and time.monotonic() >= job.deadline:
            self.stats.shed_over_deadline += 1
            await self._send(job, protocol.encode_deadline(job.request_id))
            return
        payload = {
            "id": job.request_id,
            "domain": job.domain,
            "columns": job.batch.columns(),
            "deadline": job.deadline,
        }
        replays = 0
        while True:
            if job.deadline is not None and time.monotonic() >= job.deadline:
                self.stats.shed_over_deadline += 1
                await self._send(
                    job, protocol.encode_deadline(job.request_id)
                )
                return
            try:
                reply = await self.supervisor.submit(
                    payload, deadline=job.deadline
                )
                kind, body = reply[0], reply[2:]
            except WorkerDiedError:
                # Replay on a sibling: evaluation is pure and the store
                # deduplicates by digest, so the replay re-gathers
                # whatever the dead worker already persisted and
                # recomputes only what it never finished.
                self.stats.replays += 1
                replays += 1
                if replays <= self.max_replays:
                    continue
                kind, body = await self._evaluate_inprocess(payload)
            except WorkerStuckError:
                self.stats.deadline_exceeded += 1
                await self._send(
                    job, protocol.encode_deadline(job.request_id)
                )
                return
            except WorkerUnavailableError:
                self.stats.degraded_inprocess += 1
                kind, body = await self._evaluate_inprocess(payload)
            except protocol.DeadlineError:
                self.stats.shed_over_deadline += 1
                await self._send(
                    job, protocol.encode_deadline(job.request_id)
                )
                return
            break
        if kind == "ok":
            self.stats.responses_ok += 1
            data = protocol.encode_response(job.request_id, *body)
        elif kind == "deadline":
            self.stats.deadline_exceeded += 1
            data = protocol.encode_deadline(job.request_id)
        else:
            self.stats.worker_errors += 1
            data = protocol.encode_error(job.request_id, body[0])
        await self._send(job, data)

    async def _evaluate_inprocess(self, payload: dict) -> tuple:
        """Degraded path: evaluate on this process's engine (threaded).

        Same :func:`~repro.engine.serve.worker.evaluate_job` body the
        workers run, so replies (and their bits) are identical.
        """
        loop = asyncio.get_running_loop()
        reply = await loop.run_in_executor(
            None,
            evaluate_job,
            self._engine,
            self._comparators,
            payload["domain"],
            payload["columns"],
            payload["deadline"],
        )
        return reply[0], reply[1:]

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        data: bytes,
    ) -> None:
        """Write one admission-path frame (pong / shed / reject)."""
        async with write_lock:
            try:
                writer.write(data)
                await writer.drain()
            except (OSError, ConnectionError, RuntimeError):
                # The client went away before its answer; nothing to do.
                pass

    async def _send(self, job: _Job, data: bytes) -> None:
        """Write one response frame, applying the truncation fault."""
        plan = self.fault_plan
        self._response_frames += 1
        truncate = (
            plan is not None
            and plan.truncates_frame(self._response_frames)
        )
        async with job.write_lock:
            try:
                if truncate:
                    # A mid-write transport fault: ship a prefix, then
                    # hard-close so the client sees a truncated frame.
                    self.stats.frames_truncated += 1
                    job.writer.write(data[: max(1, len(data) // 3)])
                    await job.writer.drain()
                    job.writer.transport.abort()
                    return
                job.writer.write(data)
                await job.writer.drain()
            except (OSError, ConnectionError, RuntimeError):
                # The client went away (possibly mid-close); its retry
                # path handles the rest.
                pass
