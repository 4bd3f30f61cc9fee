"""Fused sample→evaluate→reduce chunk execution (out-of-core, multi-core).

The materialized parameter-space pipeline (PR 4) allocates every result
column for the whole batch — ~30 float64 columns per row — which walls
out near a million draws.  This module executes parameter-space
workloads as a stream instead: a **chunk source** produces one
``(ParameterBatch, ScenarioBatch)`` chunk at a time, the vector kernels
evaluate it, and a :class:`~repro.engine.vector.reducers.StreamingReduction`
folds the chunk's :class:`BatchResult` into bounded summary state before
the next chunk is generated.  Peak memory is ``O(chunk_rows)``, not
``O(n)`` — a 100M-draw Monte-Carlo fits in the same footprint as a
128k-draw one.

Chunk sources
-------------

* :class:`ArrayChunkSource` — zero-copy row slices of an in-memory
  :class:`ParameterBatch` / :class:`ScenarioBatch` pair (the
  ``reduce=`` mode of :meth:`EvaluationEngine.evaluate_param_batch`).
* :class:`SharedArrayChunkSource` — the multi-process spelling: the
  columns are written once into one
  :class:`multiprocessing.shared_memory.SharedMemory` block as an array
  container; workers attach by name and slice NumPy views straight out
  of the block (zero-copy, nothing re-pickled per chunk); each column
  keeps its shape, so an ``(n, w)`` per-application lifetime block
  travels as is.
* :class:`MonteCarloChunkSource` — the fully out-of-core spelling for
  Monte-Carlo studies (any valid scenario, tiled per chunk): no input
  columns exist anywhere.  Each chunk
  *generates* its own draws from a seeded per-chunk RNG stream —
  ``PCG64(seed)`` advanced by ``start * n_distributions`` draws — which
  bit-reproduces the sequential draw order of
  :func:`repro.analysis.montecarlo.sample_value_columns`, so streamed
  studies sample exactly what the materialized (and legacy scalar)
  paths sample.

Execution
---------

:func:`run_stream` drives a reduction over a source either sequentially
or on a caller-supplied ``ProcessPoolExecutor``: the row range is split
into one contiguous **span** per worker (span boundaries are multiples
of the chunk size, chunk sizes are rounded up to the reduction's
alignment), each worker loops its span chunk-by-chunk into a fresh
reduction, and the parent merges the per-worker partials in span order.
The reducers' mergeable-partials contract makes the merged result
bit-identical to a sequential run for any chunk size and worker count.
Pool infrastructure failures degrade, never corrupt: an unpicklable
source streams sequentially, and a worker process dying mid-run costs
only an in-process recompute of the spans it lost (completed partials
are kept; the event is counted in :data:`STREAM_STATS`) — results
never change, only speed.

In-process streams (the sequential path and the checkpointed
sequential path) draw one chunk ahead: for a source that declares
``PREFETCH_SAFE`` (:class:`MonteCarloChunkSource`), a producer thread
runs ``source.chunk`` for chunk ``j + 1`` while the calling thread
evaluates, reduces — and, when checkpointing, marks and flushes —
chunk ``j``.  NumPy releases the GIL in the PCG64 fill and the
transform ufuncs, so on a second core sampling leaves the critical
path.  Chunks are still reduced in order on the calling thread, so
results are bit-identical to drawing inline.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import math
import pickle
import threading
from concurrent.futures import BrokenExecutor, Executor, ThreadPoolExecutor
from multiprocessing import shared_memory

import numpy as np

from repro.core.scenario import Scenario
from repro.engine import container
from repro.engine.vector.checkpoint import Checkpoint, CheckpointJournal
from repro.engine.vector.columns import ScenarioBatch
from repro.engine.vector.evaluator import VectorizedEvaluator
from repro.engine.vector.fused import resolve_kernel_tier
from repro.engine.vector.params import ParameterBatch
from repro.engine.vector.reducers import StreamingReduction
from repro.errors import ParameterError

#: Default rows per streamed chunk.  At ~30 result columns of float64
#: plus kernel temporaries this bounds per-worker peak memory around
#: 60–80 MB; it is also the chunk size of the materialized pipeline's
#: thread dispatch, so the two paths share tuning.
DEFAULT_STREAM_CHUNK_ROWS = 131_072

#: Hard cap on streaming workers (the kernels go memory-bandwidth bound).
MAX_STREAM_WORKERS = 8

#: Name prefix of the one-chunk-ahead sampling thread of an in-process
#: stream (it lives for one run; see :func:`_fold_chunks`).
PREFETCH_THREAD_PREFIX = "repro-stream-prefetch"

#: One chain evaluator per process: stateless, shared by every span
#: worker and by fallback paths regardless of the requested tier.
_EVALUATOR = VectorizedEvaluator(kernel_tier="numpy")

#: Per-thread cache of the fused-tier evaluator.  Thread-local because a
#: fused kernel's scratch pool is single-threaded state; the tier is
#: resolved per call so ``REPRO_KERNEL`` changes (tests, operators) take
#: effect without a process restart.
_TIERED = threading.local()


def _evaluator_for(kernel_tier: "str | None") -> VectorizedEvaluator:
    if resolve_kernel_tier(kernel_tier) == "chain":
        return _EVALUATOR
    evaluator = getattr(_TIERED, "fused", None)
    if evaluator is None:
        evaluator = _TIERED.fused = VectorizedEvaluator(kernel_tier="fused")
    return evaluator


class StreamStats:
    """Process-wide counters for streaming fault recovery.

    ``run_stream`` increments these when a worker process dies mid-span
    and the parent recomputes the lost spans in-process.  They exist so
    operators (and the regression tests) can observe that the recovery
    path fired — the *results* are bit-identical either way, which is
    exactly why a counter is the only externally visible trace.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.broken_pool_recoveries = 0
        self.spans_recovered = 0

    def note_recovery(self, spans: int) -> None:
        """Record one broken-pool event that recovered ``spans`` spans."""
        with self._lock:
            self.broken_pool_recoveries += 1
            self.spans_recovered += spans

    def snapshot(self) -> dict[str, int]:
        """Copy the counters (for reports and assertions)."""
        with self._lock:
            return {
                "broken_pool_recoveries": self.broken_pool_recoveries,
                "spans_recovered": self.spans_recovered,
            }

    def reset(self) -> None:
        """Zero the counters (test isolation)."""
        with self._lock:
            self.broken_pool_recoveries = 0
            self.spans_recovered = 0


#: Module-level recovery counters for this process's ``run_stream`` calls.
STREAM_STATS = StreamStats()


def aligned_chunk_rows(chunk_rows: "int | None", alignment: int, n: int) -> int:
    """The effective chunk size: clamped to ``n``, rounded up to alignment."""
    chunk = (
        DEFAULT_STREAM_CHUNK_ROWS if chunk_rows is None else int(chunk_rows)
    )
    if chunk < 1:
        raise ParameterError(f"chunk_rows must be >= 1, got {chunk}")
    alignment = max(1, int(alignment))
    chunk = min(chunk, max(1, n))
    return ((chunk + alignment - 1) // alignment) * alignment


# ----------------------------------------------------------------------
# Chunk sources
# ----------------------------------------------------------------------


class ArrayChunkSource:
    """Chunk view over an in-memory parameter/scenario batch pair."""

    __slots__ = ("params", "batch", "n")

    def __init__(self, params: ParameterBatch, batch: ScenarioBatch) -> None:
        if params.size != batch.size:
            raise ParameterError(
                f"parameter batch has {params.size} rows, "
                f"scenario batch has {batch.size}"
            )
        self.params = params
        self.batch = batch
        self.n = batch.size

    def chunk(self, start: int, stop: int) -> tuple[ParameterBatch, ScenarioBatch]:
        return (
            self.params.slice_rows(start, stop),
            self.batch.slice_rows(start, stop),
        )


class SharedArrayChunkSource:
    """Multi-process chunk source over one shared-memory container.

    :meth:`pack` writes every column of the pair — parameter overrides,
    the base parameter row and the scenario columns, each in its own
    shape — into one :class:`~multiprocessing.shared_memory.SharedMemory`
    segment once, as an array container (:mod:`repro.engine.container`,
    no digest, arrays 8-byte aligned).  The pickled source is the
    segment name, its byte count and the row count.  Workers attach on
    first use and decode zero-copy NumPy views per chunk, so a span
    task re-pickles nothing per chunk and no row data is ever copied to
    a worker.

    The creating process must call :meth:`close` (which unlinks the
    segment) once streaming is done; :class:`EvaluationEngine` does this
    in a ``finally`` block.
    """

    def __init__(self) -> None:
        self.n = 0
        self._shm_name: str | None = None
        self._nbytes = 0
        self._shm: shared_memory.SharedMemory | None = None
        self._owner = False

    @classmethod
    def pack(
        cls, params: ParameterBatch, batch: ScenarioBatch
    ) -> "SharedArrayChunkSource":
        """Write the pair's columns into one shared segment."""
        if params.size != batch.size:
            raise ParameterError(
                f"parameter batch has {params.size} rows, "
                f"scenario batch has {batch.size}"
            )
        keys = sorted(params.columns)
        arrays = {f"p{key}": params.columns[key] for key in keys}
        if params.base_row is not None:
            arrays["base_row"] = np.asarray(params.base_row, dtype=np.float64)
        arrays.update(batch.columns())
        parts = [
            memoryview(part).cast("B")
            for part in container.encode_parts(
                {"params": keys}, arrays, align=8
            )
        ]
        source = cls()
        source.n = batch.size
        source._nbytes = sum(part.nbytes for part in parts)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, source._nbytes)
        )
        try:
            offset = 0
            for part in parts:
                shm.buf[offset : offset + part.nbytes] = part
                offset += part.nbytes
        except BaseException:
            # Nobody owns the segment yet — unlink here or leak it.
            shm.close()
            shm.unlink()
            raise
        source._shm = shm
        source._shm_name = shm.name
        source._owner = True
        return source

    # -- pickling (workers get the name, never the data) ---------------

    def __getstate__(self) -> dict:
        return {"n": self.n, "shm_name": self._shm_name,
                "nbytes": self._nbytes}

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        self.n = state["n"]
        self._shm_name = state["shm_name"]
        self._nbytes = state["nbytes"]

    def _attach(self) -> shared_memory.SharedMemory:
        # Workers spawned by the engine's pool share the parent's
        # resource-tracker process, so the attach-side registration is
        # an idempotent no-op and the parent's unlink cleans up exactly
        # once — no per-worker unregister gymnastics needed.
        if self._shm is None:
            self._shm = shared_memory.SharedMemory(name=self._shm_name)
        return self._shm

    def chunk(self, start: int, stop: int) -> tuple[ParameterBatch, ScenarioBatch]:
        buf = self._attach().buf
        if len(buf) != self._nbytes:
            # Some platforms round a segment up to whole pages.
            buf = buf[: self._nbytes]
        meta, arrays = container.decode(buf)
        rows = slice(start, stop)
        # Broadcast (length-1) columns and the base row are copied out
        # of the segment; only per-row slices stay views into it.
        columns = {}
        for key in meta["params"]:
            column = arrays[f"p{key}"]
            columns[key] = column[rows] if column.shape[0] > 1 else column.copy()
        base_row = arrays.get("base_row")
        params = ParameterBatch(
            stop - start,
            base_row=None if base_row is None else base_row.copy(),
            columns=columns,
        )
        batch = ScenarioBatch(**{
            name: arrays[name][rows] for name, _ in ScenarioBatch.COLUMNS
        })
        return params, batch

    def close(self) -> None:
        """Detach; the creating process also unlinks the segment."""
        shm, self._shm = self._shm, None
        if shm is not None:
            shm.close()
            if self._owner:
                shm.unlink()


class MonteCarloChunkSource:
    """Chunkwise Monte-Carlo draw generation — no materialized inputs.

    Holds only the study definition: the base comparator's extracted
    parameter row, the distributions (which must all provide
    ``apply_column`` — validated by the caller), the seed and the fixed
    scenario.  ``chunk(start, stop)`` advances a fresh ``PCG64(seed)``
    by ``start * n_distributions`` draws and samples the chunk's value
    matrix, bit-reproducing rows ``[start, stop)`` of the sequential
    draw order (one unit double per value, row-major) that
    :func:`~repro.analysis.montecarlo.sample_value_columns` consumes.
    Workers therefore sample their own spans independently with zero
    coordination and zero shipped data.
    """

    __slots__ = ("n", "base_row", "distributions", "seed", "scenario", "_scratch")

    #: Rows per sampling tile (a 16384 x k float64 slab fits in L2).
    SAMPLE_TILE_ROWS = 16_384

    #: ``chunk`` is thread-safe and a chunk's columns stay valid until
    #: the next-but-one call on the same thread (a two-slot ring), so an
    #: in-process stream may draw the next chunk while this one is
    #: evaluated (see :func:`_fold_chunks`).
    PREFETCH_SAFE = True

    def __init__(
        self,
        base_row: np.ndarray,
        distributions: tuple,
        seed: int,
        scenario: Scenario,
        n: int,
    ) -> None:
        if n < 1:
            raise ParameterError(f"n_samples must be >= 1, got {n}")
        self.n = n
        self.base_row = np.asarray(base_row, dtype=np.float64)
        self.distributions = tuple(distributions)
        self.seed = seed
        self.scenario = scenario
        self._scratch = threading.local()

    def __getstate__(self):
        # Scratch buffers are per-process, per-thread; workers rebuild
        # their own on first chunk.
        return (self.n, self.base_row, self.distributions, self.seed,
                self.scenario)

    def __setstate__(self, state) -> None:
        self.n, self.base_row, self.distributions, self.seed, self.scenario = state
        self._scratch = threading.local()

    def _buffers(self, m: int, k: int) -> tuple[np.ndarray, list[np.ndarray]]:
        """Per-thread sampling scratch: one unit-draw tile + a column ring.

        The unit draws of a chunk pass through one
        ``SAMPLE_TILE_ROWS x k`` tile, so the full ``m x k`` matrix never
        exists.  The value columns handed to ``ParameterBatch`` come
        from a two-slot ring: a chunk's columns are recycled only by
        the next-but-one call, so a prefetching stream may draw chunk
        ``j + 1`` while chunk ``j`` is still being evaluated, and a
        steady-state stream allocates nothing per chunk.  Slots are
        sized to the largest chunk seen and sliced to ``m``.  Buffers
        are thread-local because threads may share one source instance.
        """
        tls = self._scratch
        if not hasattr(tls, "slots"):
            tls.tile, tls.slots, tls.turn = np.empty((0, k)), [None, None], 0
        rows = min(m, self.SAMPLE_TILE_ROWS)
        if tls.tile.shape[0] < rows:
            tls.tile = np.empty((rows, k))
        tls.turn ^= 1
        slot = tls.slots[tls.turn]
        if slot is None or slot[0].shape[0] < m:
            slot = tls.slots[tls.turn] = [np.empty(m) for _ in range(k)]
        return tls.tile, [column[:m] for column in slot]

    def chunk(self, start: int, stop: int) -> tuple[ParameterBatch, ScenarioBatch]:
        m = stop - start
        k = len(self.distributions)
        rng = np.random.default_rng(self.seed)
        rng.bit_generator.advance(start * k)
        tile, cols = self._buffers(m, k)
        # Drawing tile by tile consumes the generator in the same
        # row-major order as one (m, k) fill, and each slab stays
        # cache-resident across its k strided column reads; the
        # transform is elementwise, so values are tile-independent.
        for s in range(0, m, tile.shape[0]):
            e = min(s + tile.shape[0], m)
            u = tile[: e - s]
            rng.random(out=u)
            for j, dist in enumerate(self.distributions):
                dist.column_from_uniform(u[:, j], out=cols[j][s:e])
        params = ParameterBatch(m, base_row=self.base_row)
        for dist, col in zip(self.distributions, cols):
            dist.apply_column(params, col)
        return params, ScenarioBatch.tile(self.scenario, m)

    def checkpoint_token(self) -> str:
        """Semantic job-identity digest for checkpoint validation.

        Covers everything that determines the evaluated rows *except*
        the seed, which the checkpoint identity records separately (a
        seed drift should name the seed, not an opaque source digest).
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self.base_row.tobytes())
        digest.update(repr(self.scenario).encode("utf-8"))
        digest.update(str(self.n).encode("utf-8"))
        for dist in self.distributions:
            digest.update(repr((
                getattr(dist, "name", type(dist).__name__),
                getattr(dist, "low", None),
                getattr(dist, "high", None),
                getattr(dist, "kind", None),
            )).encode("utf-8"))
        return digest.hexdigest()


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def _chunk_bounds(spans, chunk_rows: int):
    """``(start, stop, span_index_or_None)`` per chunk, in row order.

    The third field names the span a chunk completes (``None`` for
    every other chunk).
    """
    for index, (start, stop) in enumerate(spans):
        for s in range(start, stop, chunk_rows):
            e = min(s + chunk_rows, stop)
            yield s, e, (index if e == stop else None)


def _fold_chunks(
    source,
    reduction: StreamingReduction,
    spans: "list[tuple[int, int]]",
    chunk_rows: int,
    evaluator: VectorizedEvaluator,
    prefetch: bool,
    on_span=None,
) -> StreamingReduction:
    """Evaluate and reduce every chunk of ``spans`` in order.

    ``on_span(i)`` runs once the last chunk of ``spans[i]`` is reduced
    (the checkpointed loop marks its unit there).

    Prefetch depth is 1 when ``prefetch`` is set and the source
    declares ``PREFETCH_SAFE``: a producer thread, started for this run
    and joined before it returns or raises, draws chunk ``j + 1`` while
    this thread evaluates and reduces chunk ``j``; each draw runs in a
    copy of the caller's context, so contextvar-scoped spans nest under
    the caller.  Otherwise depth is 0 and each chunk is drawn here,
    after the previous one is done.  Either way a draw is asked for
    only after the chunk before it has been taken, so the source keeps
    at most two chunks live, and a draw that raises surfaces when the
    loop reaches that chunk, after every earlier chunk is reduced.
    """
    bounds = _chunk_bounds(spans, chunk_rows)
    with ThreadPoolExecutor(
        max_workers=1, thread_name_prefix=PREFETCH_THREAD_PREFIX
    ) as producer:
        # The executor starts its thread on the first submit only, so a
        # depth-0 stream never creates one.
        if prefetch and getattr(source, "PREFETCH_SAFE", False):
            def draw(start, stop):
                return producer.submit(
                    contextvars.copy_context().run, source.chunk, start, stop
                ).result
        else:
            def draw(start, stop):
                return functools.partial(source.chunk, start, stop)

        bound = next(bounds, None)
        ahead = None if bound is None else draw(bound[0], bound[1])
        while ahead is not None:
            start, _, span_done = bound
            params, batch = ahead()
            bound = next(bounds, None)
            ahead = None if bound is None else draw(bound[0], bound[1])
            reduction.update(evaluator.reduce_batch(params, batch), start)
            # Drop the chunk views before the next lap (and before a
            # shared-memory source detaches — a live view keeps the
            # mapping exported).
            del params, batch
            if span_done is not None and on_span is not None:
                on_span(span_done)
    return reduction


def _reduce_span(
    source,
    reduction: StreamingReduction,
    start: int,
    stop: int,
    chunk_rows: int,
    close_source: bool = True,
    kernel_tier: "str | None" = None,
    prefetch: bool = False,
) -> StreamingReduction:
    """Fold one contiguous row span, chunk by chunk.

    The pool worker body (``workers > 1``), and, with ``prefetch=True``,
    the sequential in-process path of :func:`run_stream`, which then
    draws one chunk ahead on a producer thread (see
    :func:`_fold_chunks`).  Pool workers never prefetch: each already
    owns a core.

    Spawned workers receive their own unpickled ``source`` copy; for
    shared-memory sources that copy attaches lazily to the segment, so
    the worker must detach before returning or each span task strands a
    mapping until process exit.  ``close()`` is idempotent and only the
    packing process unlinks, so the parent-side sequential path may run
    through here too.

    ``close_source=False`` is the parent-side *recovery* spelling: when
    ``run_stream`` recomputes a dead worker's span in-process it must
    not close the parent's own source between spans — for an owning
    shared-memory source that close would unlink the segment out from
    under the remaining spans.  The caller's ``finally`` closes it once
    at the end instead.
    """
    try:
        return _fold_chunks(
            source, reduction, [(start, stop)], chunk_rows,
            _evaluator_for(kernel_tier), prefetch,
        )
    finally:
        close = getattr(source, "close", None)
        if close is not None and close_source:
            close()


def _spans(n: int, chunk_rows: int, workers: int) -> list[tuple[int, int]]:
    """Split ``[0, n)`` into one chunk-aligned contiguous span per worker."""
    n_chunks = math.ceil(n / chunk_rows)
    workers = max(1, min(workers, n_chunks))
    base, extra = divmod(n_chunks, workers)
    spans: list[tuple[int, int]] = []
    chunk_start = 0
    for w in range(workers):
        count = base + (1 if w < extra else 0)
        start = chunk_start * chunk_rows
        chunk_start += count
        spans.append((start, min(chunk_start * chunk_rows, n)))
    return spans


def run_stream(
    source,
    reduction: StreamingReduction,
    *,
    chunk_rows: "int | None" = None,
    workers: int = 1,
    pool: "Executor | None" = None,
    checkpoint: "Checkpoint | None" = None,
    kernel_tier: "str | None" = None,
) -> StreamingReduction:
    """Reduce a chunk source, sequentially or on a process pool.

    ``kernel_tier`` selects the kernel tier the chunk workers evaluate
    through (see :mod:`repro.engine.vector.fused`); the default honours
    ``REPRO_KERNEL`` in each worker process, fused when unset.

    Returns a **new** reduction (the caller's ``reduction`` is only a
    prototype).  With ``workers > 1`` and a ``pool``, one span task per
    worker runs :func:`_reduce_span` over its own fresh partial and the
    parent merges the partials in span order.

    Fault tolerance: a worker process dying mid-span (OOM kill, crash,
    SIGKILL) breaks the pool and fails every unfinished span future —
    but completed partials are already in hand, and partials are
    mergeable, so the parent recomputes **only the lost spans**
    in-process and merges as usual.  The merged result stays
    bit-identical to the fault-free run by the reducer contract; the
    event is counted in :data:`STREAM_STATS`.  A pool that is already
    broken at submit time degrades to the fully sequential path.
    Model errors raised by the kernels propagate unchanged.

    Durability: with ``checkpoint=``, progress is journalled through a
    :class:`~repro.engine.vector.checkpoint.CheckpointJournal` — merged
    partials plus a unit-completion bitmap, atomically rewritten on the
    configured cadence — and a rerun against the same checkpoint path
    validates the job identity, skips completed units, and finishes to
    a result **bit-identical** to an uninterrupted run (the kernels are
    deterministic and the final reduction state is a pure function of
    which rows were reduced, not of how the work was scheduled).  Each
    write runs on the checkpoint writer thread while the next unit is
    reduced; none is in flight when this returns or raises.
    """
    n = int(source.n)
    if n < 1:
        raise ParameterError("streaming reduction needs at least one row")
    chunk = aligned_chunk_rows(chunk_rows, reduction.alignment, n)
    if checkpoint is not None:
        journal = CheckpointJournal.open(
            checkpoint, source, reduction, n=n, chunk_rows=chunk
        )
        return _run_stream_checkpointed(
            source, reduction, journal, chunk,
            workers if pool is not None else 1, pool,
            kernel_tier,
        )
    spans = _spans(n, chunk, workers if pool is not None else 1)
    if len(spans) > 1 and _picklable(source, reduction):
        try:
            futures = [
                pool.submit(_reduce_span, source, reduction.fresh(), start,
                            stop, chunk, True, kernel_tier)
                for start, stop in spans
            ]
        except BrokenExecutor:
            # The pool's workers were already dead before this run
            # started: nothing was dispatched, stream sequentially.
            futures = []
        else:
            parts: "list[StreamingReduction | None]" = [None] * len(spans)
            lost: list[int] = []
            try:
                for index, future in enumerate(futures):
                    try:
                        parts[index] = future.result()
                    except BrokenExecutor:
                        # This span's worker died (or the broken pool
                        # failed the span before it started).  Completed
                        # siblings keep their partials; recompute just
                        # this span in the parent, without closing the
                        # parent's source between spans.
                        lost.append(index)
                        start, stop = spans[index]
                        parts[index] = _reduce_span(
                            source, reduction.fresh(), start, stop, chunk,
                            close_source=False, kernel_tier=kernel_tier,
                        )
            except BaseException:
                # A model error from one span: cancel unstarted siblings
                # so the (cached, reused) pool is not left grinding
                # through a doomed run's remaining spans, then propagate
                # unchanged.
                for future in futures:
                    future.cancel()
                raise
            if lost:
                STREAM_STATS.note_recovery(len(lost))
            merged = reduction.fresh()
            for part in parts:
                merged.merge(part)
            return merged
    return _reduce_span(
        source, reduction.fresh(), 0, n, chunk,
        kernel_tier=kernel_tier, prefetch=True,
    )


def _run_stream_checkpointed(
    source,
    reduction: StreamingReduction,
    journal: CheckpointJournal,
    chunk: int,
    workers: int,
    pool: "Executor | None",
    kernel_tier: "str | None" = None,
) -> StreamingReduction:
    """Drain a journal's pending units, parallel or sequential.

    Scheduling mirrors :func:`run_stream`'s span path — one task per
    pending unit, broken-pool spans recomputed in-process — with the
    journal merging and persisting each finished unit.  Either path
    writes behind (:meth:`CheckpointJournal.writing_behind`): a unit's
    write runs on the writer thread while the next unit is reduced,
    and no write is in flight when this returns or raises.  An
    already-finished checkpoint returns without touching the source.
    """
    pending = journal.pending()
    if not pending:
        return journal.merged
    if (
        len(pending) > 1 and workers > 1 and pool is not None
        and _picklable(source, reduction)
    ):
        try:
            futures = [
                pool.submit(_reduce_span, source, reduction.fresh(), start,
                            stop, chunk, True, kernel_tier)
                for _, start, stop in pending
            ]
        except BrokenExecutor:
            futures = []
        if futures:
            lost = 0
            # Merged partials hold whole units only, so on an error the
            # journal persists what completed before it: a model error
            # (or Ctrl-C) should not cost the finished units.
            with journal.writing_behind(flush_on_error=True):
                try:
                    for future, (index, start, stop) in zip(futures, pending):
                        try:
                            part = future.result()
                        except BrokenExecutor:
                            lost += 1
                            part = _reduce_span(
                                source, reduction.fresh(), start, stop, chunk,
                                close_source=False, kernel_tier=kernel_tier,
                            )
                        journal.complete(index, part)
                except BaseException:
                    for future in futures:
                        future.cancel()
                    raise
                if lost:
                    STREAM_STATS.note_recovery(lost)
                journal.settle()
            return journal.merged
    try:
        # Fold straight into the journal's merged reduction — no
        # per-unit partial to build and merge — through one prefetching
        # loop over every chunk of every pending unit, so the draw of
        # the next unit overlaps this unit's mark and flush.  Because
        # merged may hold a *half-done* unit the moment an error
        # interrupts a unit, this path must never flush outside mark()
        # (which runs exactly at unit boundaries): an interruption
        # simply keeps the last cadence flush as the recovery point,
        # which is the documented durability granularity.
        with journal.writing_behind():
            _fold_chunks(
                source, journal.merged,
                [(start, stop) for _, start, stop in pending], chunk,
                _evaluator_for(kernel_tier), True,
                on_span=lambda span: journal.mark(pending[span][0]),
            )
            journal.settle()
    finally:
        close = getattr(source, "close", None)
        if close is not None:
            close()
    return journal.merged


def _picklable(source, reduction: StreamingReduction) -> bool:
    """Whether the span tasks can ship to spawn workers at all.

    Probed up-front (the state is small — shared-memory sources pickle
    a name and a directory, Monte-Carlo sources a study definition) so
    an unpicklable payload — e.g. distributions applied via lambdas —
    degrades to the sequential path instead of failing mid-stream, and
    genuine worker-side model errors are never masked by the fallback.
    """
    try:
        pickle.dumps((source, reduction))
        return True
    except (pickle.PicklingError, TypeError, AttributeError, ValueError):
        return False
