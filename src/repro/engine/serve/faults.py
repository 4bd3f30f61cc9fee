"""Deterministic fault injection for the serving tier.

A :class:`FaultPlan` is an immutable, picklable description of *which*
failures to inject *when*: it travels to the worker processes inside
their :class:`~repro.engine.serve.worker.WorkerSpec` and to the server's
response path, so a chaos test (or the latency benchmark's one-kill
phase) replays the exact same fault schedule on every run.  All
randomness is seeded — ``corrupt_file`` with the same seed flips the
same bytes — because a chaos suite is only trustworthy if its chaos is
reproducible.

The injectable faults mirror the real failure modes the tier defends
against:

* **worker kill** — worker K calls ``os._exit`` just before processing
  its Nth batch (indistinguishable from an OOM kill / SIGKILL to the
  supervisor);
* **response delay** — worker K sleeps before answering each batch
  (a slow or stuck worker, for deadline/cancellation tests);
* **frame truncation** — the server drops the connection after sending
  a prefix of every Nth response frame (a mid-write network fault);
* **cache corruption** — seeded byte damage to a persisted store
  snapshot (tests the :class:`~repro.errors.StoreCorruptError`
  start-cold path end to end).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class FaultPlan:
    """Immutable, seeded schedule of injected failures.

    Attributes:
        seed: RNG seed for the randomized injections (byte corruption).
        kill_worker_at: ``(worker_index, batch_number)`` pairs — worker
            ``index`` exits hard just before processing its
            ``batch_number``-th batch (0-based, counted per process
            incarnation).
        kill_every_generation: By default only a worker's first
            incarnation is killed, so a restart recovers; ``True`` kills
            every incarnation — a permanent crash loop for that slot,
            for backoff/degradation tests.
        delay_worker_s: Seconds each affected worker sleeps before
            answering a batch (0 disables).
        delay_workers: Which worker indices the delay applies to;
            empty means *all* workers when ``delay_worker_s`` is set.
        truncate_response_every: The server truncates (and drops the
            connection after) every Nth response frame, 1-based;
            0 disables.
    """

    seed: int = 0
    kill_worker_at: tuple[tuple[int, int], ...] = ()
    kill_every_generation: bool = False
    delay_worker_s: float = 0.0
    delay_workers: tuple[int, ...] = field(default_factory=tuple)
    truncate_response_every: int = 0

    def kill_batch(self, worker_index: int, generation: int) -> "int | None":
        """The batch number at which this incarnation must die, if any."""
        if generation > 0 and not self.kill_every_generation:
            return None
        for index, batch_number in self.kill_worker_at:
            if index == worker_index:
                return batch_number
        return None

    def delay_for(self, worker_index: int) -> float:
        """Pre-response sleep for this worker (0 when unaffected)."""
        if self.delay_worker_s <= 0.0:
            return 0.0
        if self.delay_workers and worker_index not in self.delay_workers:
            return 0.0
        return self.delay_worker_s

    def truncates_frame(self, frame_number: int) -> bool:
        """Whether the server truncates this (1-based) response frame."""
        every = self.truncate_response_every
        return every > 0 and frame_number % every == 0

    def kill_delays(
        self, count: int, lo_s: float = 0.05, hi_s: float = 0.5
    ) -> tuple[float, ...]:
        """``count`` seeded SIGKILL delays in ``[lo_s, hi_s)`` seconds.

        For kill-and-resume chaos tests that murder an external process
        at randomized-but-reproducible points in its run: the same plan
        yields the same kill schedule, so a crash found once replays.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if hi_s < lo_s:
            raise ValueError(
                f"hi_s must be >= lo_s, got hi {hi_s} < lo {lo_s}"
            )
        rng = np.random.default_rng(self.seed)
        return tuple(float(d) for d in rng.uniform(lo_s, hi_s, size=count))

    def corrupt_file(self, path: "str | Path", flips: int = 64) -> int:
        """Flip ``flips`` seeded-random bytes of ``path`` in place.

        Returns the number of bytes damaged.  Offsets and XOR masks come
        from ``default_rng(seed)``, so the same plan produces the same
        damage — a corruption test that only fails sometimes is worse
        than none.
        """
        path = Path(path)
        raw = bytearray(path.read_bytes())
        if not raw:
            return 0
        rng = np.random.default_rng(self.seed)
        offsets = rng.integers(0, len(raw), size=min(flips, len(raw)))
        masks = rng.integers(1, 256, size=offsets.size)
        for offset, mask in zip(offsets, masks):
            raw[int(offset)] ^= int(mask)
        path.write_bytes(bytes(raw))
        return int(offsets.size)

    def truncate_file(self, path: "str | Path", keep_fraction: float = 0.5) -> int:
        """Truncate ``path`` to a fraction of its size; returns new size.

        The partial-write spelling of cache damage (power loss mid-save)
        as opposed to :meth:`corrupt_file`'s bit rot.
        """
        path = Path(path)
        raw = path.read_bytes()
        keep = int(len(raw) * keep_fraction)
        path.write_bytes(raw[:keep])
        return keep


def hard_exit(code: int = 13) -> None:
    """Die like a crash: no atexit, no cleanup, no finally blocks.

    ``os._exit`` from inside the worker is indistinguishable from an
    external SIGKILL to everything watching the process — which is the
    point: the supervisor must recover from the worst spelling of death.
    """
    os._exit(code)
