"""Durable execution: crash-resumable checkpoints for streaming jobs.

A 100M-draw Monte-Carlo or a fleet-scale DSE sweep is minutes of work
that PR 5 made restartable only from zero: a SIGKILL of the *parent*
process (OOM kill, node preemption, deploy restart) lost everything.
The two contracts that make cheap durable execution possible already
existed — reducer partials merge bit-identically in any order, and
chunk sources regenerate any row range deterministically
(``PCG64.advance``) — so a checkpoint only ever needs to persist the
**merged partials plus a completion bitmap**, never raw draws.

:class:`CheckpointJournal` maintains that state over fixed row ranges
("units", a whole number of chunks each).  As units complete, their
partials merge into the journal and the journal atomically rewrites its
file (tmp + fsync + ``os.replace`` via
:mod:`repro.engine.atomicio`) at a configurable row/time cadence, so a
crash at any instant leaves either the previous checkpoint or the new
one — never a torn file.  On resume the journal revalidates the **job
identity** — source digest, seed, row count, chunk size, unit size,
reduction schema, format version — and raises a typed
:class:`~repro.errors.CheckpointMismatchError` on drift, because
silently merging partials from a different job would produce a wrong
answer with no warning.  A corrupted or truncated checkpoint is
detected by a whole-file checksum and handled like a corrupt cache
snapshot: log and start cold (the checkpoint is a recovery artefact,
never ground truth).

The file is an array container (:mod:`repro.engine.container`)
with the digest on::

    b"GFCKPT" | u16 format | 16-byte digest | u32 header length
    | JSON header | raw array bytes

The JSON header carries the job identity plus ``rows_done`` (``meta``)
and the array table; the arrays are the ``done`` bitmap and the
reducers' packed state.  The digest (SHA-256 over every other byte,
truncated to 16 bytes) catches truncation and bit flips before the
table is read; the container's decoder bounds-checks the table,
rejects trailing bytes and never unpickles.  A file in the format-1
layout (``GFCKPT`` + blake2b-128 digest + length-prefixed JSON +
``npz``) is recognised by its own checksum and rejected as a
``format`` identity mismatch, never misread and never discarded.

Only a finished checkpoint is canonical.  A cadence write (some unit
still pending) packs the reservoir sketch in memory order, which
depends on the merge schedule, and so skips its priority sort and
gathers.  Resume depends only on the kept *set*, so a run resumed from
such a file still ends bit-identical, and the write made once every
unit is done sorts: a finished file's bytes are the same under any
schedule.  On load, reducer state is checked for its set invariants
(never its order); malformed state starts cold like a corrupt file,
while a member whose configuration drifted (a reservoir's ``k``, a
histogram's bins) is a :class:`~repro.errors.CheckpointMismatchError`
naming that member.

A flush is split in two.  The **snapshot** runs synchronously at the
unit boundary: the header fields, a copy of the ``done`` bitmap and the
reducers' packed state, whose arrays the reducers never write again.
The **write job** (encode, SHA-256, atomic write) runs in the flushing
thread when the journal is used directly, so the file is on disk when
``complete``/``mark``/``flush`` return.  Inside a streaming run
(:meth:`CheckpointJournal.writing_behind`) it runs on one process-wide
writer thread while the stream reduces the next unit.  A journal has at
most one write in flight, and the next flush waits for it, so files
land in unit order and writes per run are unchanged.  The run waits for
the last write before it returns or raises.  A write that lags its unit
costs at most recomputable work: a crash leaves the previous complete
file, never a torn one.

The driver is :func:`repro.engine.vector.streaming.run_stream`
(``checkpoint=`` keyword), surfaced as
``EvaluationEngine.reduce_stream(checkpoint=...)``,
``monte_carlo_stream(checkpoint=...)`` and the CLI's
``mc --stream --checkpoint PATH``.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import json
import logging
import math
import os
import pickle
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.engine import container
from repro.engine.atomicio import atomic_write_bytes
from repro.engine.vector.reducers import StreamingReduction
from repro.errors import (
    CheckpointMismatchError,
    ContainerError,
    ParameterError,
    StoreCorruptError,
)

logger = logging.getLogger(__name__)

#: Bumped on any change to the checkpoint layout or reducer state
#: packing; a version mismatch is an identity mismatch (the old file
#: cannot be trusted to deserialize), not a corruption.
CHECKPOINT_FORMAT_VERSION = 2

_MAGIC = b"GFCKPT"
#: ``magic | u16 format``: the container prefix of a checkpoint file.
_PREFIX = _MAGIC + CHECKPOINT_FORMAT_VERSION.to_bytes(2, "little")

#: Default unit count when no ``every_rows`` cadence is given: the run
#: is split into ~64 resume units so a crash loses at most ~1.6% of a
#: long job, while the bitmap and flush overhead stay negligible.
_DEFAULT_UNITS = 64

#: Name prefix of the process-wide checkpoint writer thread.
WRITER_THREAD_PREFIX = "repro-checkpoint-writer"

_WRITER_LOCK = threading.Lock()
#: ``(pid, executor)`` of the writer; a forked child sees another pid
#: and starts its own (the parent's thread does not survive a fork).
_WRITER: "tuple[int, ThreadPoolExecutor] | None" = None


def _writer() -> ThreadPoolExecutor:
    """The one writer thread of this process, started on first use.

    One thread serves every journal and run: starting and joining a
    writer per run raises peak resident memory well above what one
    long-lived thread costs.
    """
    global _WRITER
    with _WRITER_LOCK:
        if _WRITER is None or _WRITER[0] != os.getpid():
            _WRITER = (os.getpid(), ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=WRITER_THREAD_PREFIX
            ))
        return _WRITER[1]


@dataclass(frozen=True)
class Checkpoint:
    """Checkpointing configuration for one streaming run.

    ``every_rows`` sets the durability granularity: partials are flushed
    (and resumable) every that-many rows, rounded up to whole chunks.
    When ``None``, the run is split into ~64 units and flushed on the
    ``every_s`` wall-clock cadence instead (plus a final flush either
    way, unless the last cadence flush already covered every unit).
    ``every_s=None`` disables the timer.
    """

    path: "Path | str"
    every_rows: "int | None" = None
    every_s: "float | None" = 5.0


def source_token(source) -> str:
    """A stable identity digest for a chunk source.

    Sources that define ``checkpoint_token()`` (e.g.
    :class:`~repro.engine.vector.streaming.MonteCarloChunkSource`)
    provide a semantic digest of their study definition; anything else
    falls back to a digest of its pickle, which is exactly the payload
    a span worker would receive.
    """
    token = getattr(source, "checkpoint_token", None)
    if token is not None:
        return str(token())
    return hashlib.blake2b(
        pickle.dumps(source), digest_size=container.DIGEST_BYTES
    ).hexdigest()


class CheckpointJournal:
    """Atomic persistence of merged partials + unit-completion bitmap.

    Construct with :meth:`open`, which loads and validates any existing
    file at the configured path.  The streaming executor then drains
    :meth:`pending` and calls :meth:`complete` per finished unit; the
    journal merges, marks, and flushes on its cadence.  :attr:`merged`
    is the live reduction holding everything completed so far.
    """

    def __init__(
        self,
        config: Checkpoint,
        prototype: StreamingReduction,
        identity: dict,
        units: "list[tuple[int, int]]",
    ) -> None:
        self.config = config
        self.path = Path(config.path)
        self.prototype = prototype
        self.identity = identity
        self.units = units
        self.done = np.zeros(len(units), dtype=bool)
        self.merged = prototype.fresh()
        #: Units restored from disk at open() (observability + tests).
        self.resumed_units = 0
        #: Successful flushes this journal performed (tests).
        self.flushes = 0
        self._rows_since_flush = 0
        self._last_flush_s = time.monotonic()
        #: Write depth: 1 inside :meth:`writing_behind`, else 0.
        self._behind = False
        self._inflight: "Future | None" = None

    # -- construction ---------------------------------------------------

    @classmethod
    def open(
        cls,
        config: Checkpoint,
        source,
        reduction: StreamingReduction,
        *,
        n: int,
        chunk_rows: int,
    ) -> "CheckpointJournal":
        """Build a journal for this job, resuming from disk if possible.

        Raises :class:`CheckpointMismatchError` when the file on disk
        belongs to a different job; starts cold (with a warning) when
        the file is corrupt or truncated or its reducer state is
        malformed.
        """
        if config.every_rows is not None and config.every_rows < 1:
            raise ParameterError(
                f"checkpoint every_rows must be >= 1, got {config.every_rows}"
            )
        if config.every_s is not None and config.every_s <= 0:
            raise ParameterError(
                f"checkpoint every_s must be > 0, got {config.every_s}"
            )
        n_chunks = math.ceil(n / chunk_rows)
        if config.every_rows is not None:
            unit_chunks = max(1, math.ceil(config.every_rows / chunk_rows))
        else:
            unit_chunks = max(1, math.ceil(n_chunks / _DEFAULT_UNITS))
        unit_rows = unit_chunks * chunk_rows
        units = [
            (start, min(start + unit_rows, n))
            for start in range(0, n, unit_rows)
        ]
        seed = getattr(source, "seed", None)
        identity = {
            "format": CHECKPOINT_FORMAT_VERSION,
            "source": source_token(source),
            "seed": None if seed is None else int(seed),
            "n_rows": int(n),
            "chunk_rows": int(chunk_rows),
            "unit_chunks": int(unit_chunks),
            "schema": reduction.schema_token(),
        }
        journal = cls(config, reduction, identity, units)
        try:
            raw = journal.path.read_bytes()
        except FileNotFoundError:
            return journal
        try:
            meta, arrays = _decode(raw)
        except StoreCorruptError as error:
            logger.warning(
                "checkpoint %s is unusable (%s); starting from scratch",
                journal.path, error,
            )
            return journal
        stored = {key: meta.get(key) for key in identity}
        if stored != identity:
            drift = sorted(
                key for key in identity if stored[key] != identity[key]
            )
            raise CheckpointMismatchError(
                f"checkpoint {journal.path} belongs to a different job "
                f"(mismatched: {', '.join(drift)}); delete it to start over"
            )
        done = arrays["done"]
        if done.shape[0] != len(units):
            raise CheckpointMismatchError(
                f"checkpoint {journal.path} has {done.shape[0]} units, "
                f"expected {len(units)}"
            )
        try:
            merged = reduction.from_state(
                {key[len("s."):]: array for key, array in arrays.items()
                 if key.startswith("s.")}
            )
        except StoreCorruptError as error:
            logger.warning(
                "checkpoint %s is unusable (%s); starting from scratch",
                journal.path, error,
            )
            return journal
        except ParameterError as error:
            # Same schema token, different member configuration (a
            # reservoir's k, a histogram's bins): a different job.
            raise CheckpointMismatchError(
                f"checkpoint {journal.path} belongs to a different job "
                f"(mismatched: {error}); delete it to start over"
            ) from error
        journal.done = done.copy()
        journal.merged = merged
        journal.resumed_units = int(np.count_nonzero(journal.done))
        return journal

    # -- progress -------------------------------------------------------

    @property
    def finished(self) -> bool:
        """Whether every unit is already complete."""
        return bool(self.done.all())

    @property
    def rows_done(self) -> int:
        """Rows covered by completed units."""
        return sum(
            stop - start
            for (start, stop), flag in zip(self.units, self.done)
            if flag
        )

    def pending(self) -> "list[tuple[int, int, int]]":
        """``(unit_index, start_row, stop_row)`` of incomplete units."""
        return [
            (index, start, stop)
            for index, (start, stop) in enumerate(self.units)
            if not self.done[index]
        ]

    def complete(self, index: int, partial: StreamingReduction) -> None:
        """Merge one finished unit's partial and maybe flush."""
        if self.done[index]:
            raise ParameterError(f"unit {index} completed twice")
        self.merged.merge(partial)
        self.mark(index)

    def mark(self, index: int) -> None:
        """Record a unit whose rows were folded into :attr:`merged` directly.

        The sequential executor updates :attr:`merged` in place (no
        per-unit partial, no merge pass — reducer state is a pure
        function of which rows were reduced, so the result is identical
        and the per-unit overhead disappears) and then marks here.
        Safe because flushes only ever run from this method, i.e. at
        unit boundaries: persisted state always covers exactly the
        marked units.
        """
        if self.done[index]:
            raise ParameterError(f"unit {index} completed twice")
        self.done[index] = True
        start, stop = self.units[index]
        self._rows_since_flush += stop - start
        self.flush()

    # -- persistence ----------------------------------------------------

    def _due(self) -> bool:
        if self.config.every_rows is not None and (
            self._rows_since_flush >= self.config.every_rows
        ):
            return True
        return self.config.every_s is not None and (
            time.monotonic() - self._last_flush_s >= self.config.every_s
        )

    def settle(self) -> bool:
        """The final write of a run: flush unless the last write already
        covers every marked unit (a unit-cadence run whose last unit
        was full-size has just written the finished file).  Inside
        :meth:`writing_behind` the write is queued like any other and
        the block's exit waits for it."""
        return self._rows_since_flush > 0 and self.flush(force=True)

    def flush(self, force: bool = False) -> bool:
        """Atomically rewrite the file if due (or ``force``).

        Returns whether a write was made.  The call takes a snapshot
        at the unit boundary: ``meta``, a copy of ``done`` and the
        reduction's packed state, whose arrays the reducers never
        write again (they rebind or copy).  The write job (encode,
        SHA-256, :func:`atomic_write_bytes`) runs here, so the file is
        on disk when this returns, except inside
        :meth:`writing_behind`, where it runs on the writer thread
        while the caller reduces the next unit.  Either way the
        previous write finishes first (its error raises here), so
        files land in order.
        """
        if not force and not self._due():
            return False
        meta = dict(self.identity)
        meta["rows_done"] = int(self.rows_done)
        arrays: dict[str, np.ndarray] = {"done": self.done.copy()}
        # Only a finished checkpoint is canonical: cadence writes skip
        # the reservoir sort, which resume does not need.
        state = self.merged.to_state(canonical=self.finished)
        for key, array in state.items():
            arrays[f"s.{key}"] = array
        self._wait()
        # The job runs in a copy of this context, so context-scoped
        # spans of the write nest under the flush on either thread.
        write = functools.partial(
            contextvars.copy_context().run, self._write, meta, arrays
        )
        if self._behind:
            self._inflight = _writer().submit(write)
        else:
            write()
        self._rows_since_flush = 0
        self._last_flush_s = time.monotonic()
        return True

    def _write(self, meta: dict, arrays: "dict[str, np.ndarray]") -> None:
        atomic_write_bytes(self.path, _encode(meta, arrays))
        self.flushes += 1

    def _wait(self) -> None:
        """Finish the write in flight, if any, raising its error."""
        inflight, self._inflight = self._inflight, None
        if inflight is not None:
            inflight.result()

    @contextmanager
    def writing_behind(self, *, flush_on_error: bool = False):
        """Write behind the caller for the duration of one run.

        Inside the block each flush queues its write job on the
        process-wide writer thread (write depth 1); outside it, writes
        are synchronous (depth 0).  No write is in flight once the
        block exits.  On a clean exit a failed write raises its own
        error.  When an error is already propagating it wins: a failed
        write is logged.  ``flush_on_error`` then also writes every
        marked unit, synchronously; only a caller whose merged state
        holds whole units (merged partials, not rows folded in place)
        may ask for it.
        """
        self._behind = True
        try:
            yield self
        except BaseException as error:
            self._behind = False
            try:
                self._wait()
                if flush_on_error:
                    self.flush(force=True)
            except Exception:  # noqa: BLE001 - the error already propagating wins; the failed write is logged with its traceback, not swallowed
                logger.exception(
                    "checkpoint %s: write failed while %s propagated",
                    self.path, type(error).__name__,
                )
            raise
        self._behind = False
        self._wait()


def _encode(meta: dict, arrays: "dict[str, np.ndarray]") -> bytes:
    """The container bytes for ``meta`` and ``arrays`` (in dict order)."""
    return container.encode(meta, arrays, prefix=_PREFIX, digest=True)


def _decode(raw: bytes) -> "tuple[dict, dict[str, np.ndarray]]":
    """Parse checkpoint bytes into ``(meta, arrays)``.

    Raises :class:`StoreCorruptError` on any structural damage — the
    checksum catches truncation and bit flips before the array table is
    read, and the table is bounds-checked entry by entry.  A valid
    format-1 file decodes to its identity header and no arrays, so the
    caller's identity check rejects it on ``format``.  The arrays are
    read-only views into ``raw``.
    """
    try:
        meta, arrays = container.decode(raw, prefix=_PREFIX, digest=True)
    except ContainerError as error:
        meta = _format1_meta(raw)
        if meta is None:
            raise StoreCorruptError(f"checkpoint {error}") from error
        return meta, {}
    done = arrays.get("done")
    if done is None or done.dtype != bool or done.ndim != 1:
        raise StoreCorruptError("checkpoint has no 1-d bool 'done' bitmap")
    return meta, arrays


def _format1_meta(raw: bytes) -> "dict | None":
    """The identity header of a format-1 file; ``None`` when ``raw`` is
    not one.

    Format 1 was ``GFCKPT`` + blake2b-128 over the body + a body of
    u32 length, JSON identity and ``npz`` arrays.  Only the identity is
    read (the ``npz`` part never is), and ``format`` is pinned to 1:
    the layout, not the header, says which format a file is.  A
    format-1 checksum over an unreadable identity raises
    :class:`StoreCorruptError`.
    """
    digest_at = len(_MAGIC)
    body = raw[digest_at + container.DIGEST_BYTES :]
    if len(body) < 4 or not raw.startswith(_MAGIC) or (
        hashlib.blake2b(body, digest_size=container.DIGEST_BYTES).digest()
        != raw[digest_at : digest_at + container.DIGEST_BYTES]
    ):
        return None
    try:
        meta = json.loads(body[4 : 4 + int.from_bytes(body[:4], "little")])
    except (ValueError, RecursionError) as error:
        raise StoreCorruptError(f"checkpoint header unreadable: {error}") from error
    if not isinstance(meta, dict):
        raise StoreCorruptError("checkpoint header is not an object")
    return {**meta, "format": 1}
