"""Shared batch evaluation engine for FPGA-vs-ASIC comparisons.

Every analysis layer that reproduces the paper's figures — sweeps,
heatmaps, design-space exploration, Monte-Carlo and tornado sensitivity —
reduces to the same primitive: assess a (comparator, scenario) pair and
read the FPGA:ASIC ratio.  :class:`EvaluationEngine` centralises that
primitive behind one batch API with

* an array-backed, set-associative result table
  (:class:`~repro.engine.store.ShardedResultStore`) keyed on stable
  128-bit digests of ``(device pair, suite, scenario)``.  Batch callers
  are answered with vectorised gather straight from packed NumPy column
  blocks — no :class:`ComparisonResult` is allocated on the batch path;
  object callers get dataclasses materialised lazily from the same
  columns.  ``save_cache`` / ``load_cache`` persist the table to
  a snapshot file so warmth survives across processes and CLI runs;
* memoised :meth:`repro.config.Parameters.build_suite` construction
  (safe under concurrent access), so DSE grids revisiting a
  configuration reuse the same suite object; and
* the NumPy kernels for every miss group worth a batch: same-comparator
  groups of at least :data:`MIN_VECTOR_BATCH` scenarios, parameter
  batches chunked over threads, and streamed reductions on a ``spawn``
  process pool.

Evaluation is pure — ``compare()`` depends only on the frozen comparator
and scenario — so cached, vectorised and parallel execution return
results bit-identical to the sequential per-point loops.  For serving
this engine to many clients over a socket see :mod:`repro.engine.serve`.
"""

from __future__ import annotations

import atexit
import dataclasses
import logging
import multiprocessing
import os
import threading
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.config import Parameters
from repro.core.comparison import ComparisonResult, PlatformComparator
from repro.core.scenario import Scenario
from repro.core.suite import ModelSuite
from repro.engine.cache import CacheStats
from repro.engine.store import (
    ShardedResultStore,
    batch_digests,
    comparator_digest,
    materialise_comparison,
    pack_batch_rows,
    pack_comparison,
    pair_digest,
    param_batch_digests,
    uniform_lifetime_rows,
)
from repro.engine.vector import (
    BatchResult,
    ParameterBatch,
    ScenarioBatch,
    VectorizedEvaluator,
)
from repro.engine.vector.checkpoint import Checkpoint
from repro.engine.vector.fused import kernel_tier_label
from repro.engine.vector.kernels import ratio_kernel, winner_kernel
from repro.engine.vector.reducers import StreamingReduction
from repro.engine.vector.streaming import (
    MAX_STREAM_WORKERS,
    ArrayChunkSource,
    SharedArrayChunkSource,
    aligned_chunk_rows,
    run_stream,
)
from repro.errors import ParameterError, StoreCorruptError

#: Smallest same-comparator miss group worth routing through the vector
#: kernel: below this the per-batch NumPy overhead beats the saving.
MIN_VECTOR_BATCH = 8

#: Rows per chunk of the parameter-batch dispatch.  Batches above this
#: are split into per-worker column slices (zero-copy NumPy views) and
#: composed on a thread pool — the heavy array kernels release the GIL —
#: which also bounds peak temporary memory for million-row batches.
PARAM_CHUNK_ROWS = 131_072

#: Hard cap on parameter-dispatch threads (beyond this the kernels are
#: memory-bandwidth bound and extra threads only add contention).
MAX_PARAM_THREADS = 8


# ----------------------------------------------------------------------
# Suite memoisation (thread-safe)
# ----------------------------------------------------------------------

_SUITE_CACHE: dict[Parameters, ModelSuite] = {}
_SUITE_LOCK = threading.Lock()
_SUITE_CACHE_MAX = 256


def build_suite_cached(params: Parameters) -> ModelSuite:
    """Memoised :meth:`Parameters.build_suite`, safe under concurrency.

    :class:`Parameters` is frozen and hashable, and ``build_suite`` is a
    pure constructor, so identical parameter sets share one suite
    object.  A double-checked lock guarantees exactly one build per
    parameter set even when many threads (or async tasks dispatched to a
    worker pool) race on the same configuration — every caller gets the
    *same* object, which keeps digest/key identity coherent.
    """
    suite = _SUITE_CACHE.get(params)
    if suite is not None:
        return suite
    with _SUITE_LOCK:
        suite = _SUITE_CACHE.get(params)
        if suite is None:
            suite = params.build_suite()
            while len(_SUITE_CACHE) >= _SUITE_CACHE_MAX:
                _SUITE_CACHE.pop(next(iter(_SUITE_CACHE)))
            _SUITE_CACHE[params] = suite
    return suite


class EvaluationEngine:
    """Batch evaluator with an array result store and opt-in parallelism.

    One engine instance is meant to be shared across analyses: the store
    then spans sweeps, heatmap panels, DSE grids and Monte-Carlo draws
    alike.  A module-level default (:func:`default_engine`) backs every
    analysis entry point unless the caller injects their own.

    Args:
        cache_size: Entry bound of the result store (``0`` disables
            caching).
        workers: Thread count of the chunked parameter-batch dispatch
            and the default worker count of streamed reductions;
            ``None`` uses every core (each capped, see
            :data:`MAX_PARAM_THREADS` and :data:`MAX_STREAM_WORKERS`),
            ``1`` runs both sequentially.  Results are identical either
            way.
        vectorize: Route cache-miss batches through the NumPy kernel
            (:class:`VectorizedEvaluator`).  Results stay bit-identical
            to the scalar path — the kernel mirrors its operation order
            exactly — and still populate the store, so scalar and vector
            callers share warmth.  ``False`` restores the pure scalar
            path everywhere (including the ``*_batch`` APIs, which then
            columnise scalar results).
        kernel_tier: Kernel tier for the streaming reduce paths
            (``fused`` or ``numpy``); ``None`` honours the
            ``REPRO_KERNEL`` environment variable, fused when unset.  See
            :mod:`repro.engine.vector.fused`.
        cache_file: Optional store snapshot path; when it exists its entries
            are loaded at construction, and :meth:`save_cache` with no
            argument writes back to it — cache warmth then survives
            across processes and CLI runs.
    """

    def __init__(
        self,
        cache_size: int = 4096,
        workers: int | None = None,
        vectorize: bool = True,
        cache_file: "str | Path | None" = None,
        kernel_tier: "str | None" = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.vectorize = vectorize
        # Validates the spelling eagerly: a bad tier fails at
        # construction, not mid-stream in a worker process.
        kernel_tier_label(kernel_tier)
        self.kernel_tier = kernel_tier
        self._vector = VectorizedEvaluator()
        self._store = ShardedResultStore(capacity=cache_size)
        self._stream_pool: ProcessPoolExecutor | None = None
        self._stream_pool_workers = 0
        self._pool_lock = threading.Lock()
        self._computed_lock = threading.Lock()
        self._rows_computed = 0
        self.cache_file = Path(cache_file) if cache_file is not None else None
        if self.cache_file is not None and self.cache_file.exists():
            self.load_cache(self.cache_file)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/size counters of the result store."""
        return self._store.stats()

    @property
    def kernel_tier_name(self) -> str:
        """Label of the kernel tier streaming reduces resolve to.

        ``fused-numpy``/``numpy-chain`` — resolved live
        so an engine with no explicit ``kernel_tier`` reflects the
        current ``REPRO_KERNEL`` environment."""
        return kernel_tier_label(self.kernel_tier)

    @property
    def rows_computed(self) -> int:
        """Kernel/scalar assessments actually computed (deduplicated).

        Cache hits and in-batch duplicates never increment this — it is
        the ground truth for "concurrent clients never recompute a
        cell" assertions in the serving tests.
        """
        with self._computed_lock:
            return self._rows_computed

    def _note_computed(self, count: int) -> None:
        with self._computed_lock:
            self._rows_computed += count

    def clear_cache(self) -> None:
        """Drop cached results and reset counters."""
        self._store.clear()

    def save_cache(self, path: "str | Path | None" = None) -> Path:
        """Persist the result store to ``path`` (default: ``cache_file``)."""
        target = Path(path) if path is not None else self.cache_file
        if target is None:
            raise ParameterError(
                "no cache file configured; pass a path or set cache_file"
            )
        return self._store.save(target)

    def load_cache(self, path: "str | Path") -> int:
        """Merge a persisted store into this engine; returns entries read.

        A truncated, corrupted, or format-incompatible cache file is
        logged and skipped (returns 0) — the engine starts cold instead
        of crashing, because a damaged cache only costs recomputation,
        never correctness.  A missing file still raises
        :class:`FileNotFoundError`.
        """
        try:
            return self._store.load(path)
        except StoreCorruptError as exc:
            logging.getLogger(__name__).warning(
                "discarding unusable cache file %s (starting cold): %s",
                path, exc,
            )
            return 0

    def close(self) -> None:
        """Shut down the streaming worker pool (if one was started).

        Idempotent and safe under concurrent callers: the pool is
        detached under a lock, so exactly one caller shuts it down and
        repeated/racing ``close()`` calls are no-ops.  The engine stays
        usable afterwards — the pool restarts lazily on demand.
        """
        with self._pool_lock:
            stream_pool, self._stream_pool = self._stream_pool, None
            self._stream_pool_workers = 0
        if stream_pool is not None:
            stream_pool.shutdown(wait=True)

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Suite construction
    # ------------------------------------------------------------------

    def suite_for(self, params: Parameters) -> ModelSuite:
        """Memoised suite construction (see :func:`build_suite_cached`)."""
        return build_suite_cached(params)

    # ------------------------------------------------------------------
    # Evaluation (object path, lazy materialisation)
    # ------------------------------------------------------------------

    def evaluate(
        self, comparator: PlatformComparator, scenario: Scenario
    ) -> ComparisonResult:
        """Assess one pair through the store."""
        return self.evaluate_pairs(((comparator, scenario),))[0]

    def evaluate_many(
        self, comparator: PlatformComparator, scenarios: Iterable[Scenario]
    ) -> tuple[ComparisonResult, ...]:
        """Assess one comparator across many scenarios, in order."""
        return self.evaluate_pairs([(comparator, s) for s in scenarios])

    def evaluate_pairs(
        self, pairs: Iterable[tuple[PlatformComparator, Scenario]]
    ) -> tuple[ComparisonResult, ...]:
        """Assess many (comparator, scenario) pairs, preserving order.

        Duplicate pairs within the batch are assessed once; pairs seen
        by earlier calls are served from the result store, with the
        :class:`ComparisonResult` materialised lazily from the packed
        columns (bit-identical to the originally computed object).
        Misses run through the vector kernel (same-comparator groups of
        at least :data:`MIN_VECTOR_BATCH`) or the scalar models, then
        populate the store.
        """
        pair_list = list(pairs)
        if not pair_list:
            return ()
        digests = [pair_digest(c, s) for c, s in pair_list]

        unique: dict[tuple[int, int], tuple[PlatformComparator, Scenario]] = {}
        for digest, pair in zip(digests, pair_list):
            unique.setdefault(digest, pair)

        keys = np.array(list(unique), dtype=np.uint64)
        hits, floats, ints = self._store.get_batch(keys[:, 0], keys[:, 1])
        results: dict[tuple[int, int], ComparisonResult] = {}
        misses: list[tuple[tuple[int, int], PlatformComparator, Scenario]] = []
        for j, (digest, (comparator, scenario)) in enumerate(unique.items()):
            if hits[j]:
                results[digest] = materialise_comparison(
                    floats[j], ints[j], scenario
                )
            else:
                misses.append((digest, comparator, scenario))

        if misses and self.vectorize:
            misses = self._vector_compute(misses, results)
        if misses:
            self._note_computed(len(misses))
            packed = []
            for digest, comparator, scenario in misses:
                result = results[digest] = comparator.compare(scenario)
                row = pack_comparison(result, comparator)
                if row is not None:
                    packed.append((digest, *row))
            if packed:
                self._store.put_batch(
                    np.array([p[0][0] for p in packed], dtype=np.uint64),
                    np.array([p[0][1] for p in packed], dtype=np.uint64),
                    np.array([p[1] for p in packed]),
                    np.array([p[2] for p in packed]),
                )

        ordered: list[ComparisonResult] = []
        for digest, (_, scenario) in zip(digests, pair_list):
            result = results[digest]
            if result.scenario != scenario:
                # The digest normalises equivalent scenario spellings
                # (scalar vs per-application lifetimes), but callers must
                # get back the exact scenario they passed in.
                result = dataclasses.replace(result, scenario=scenario)
            ordered.append(result)
        return tuple(ordered)

    def _vector_compute(
        self,
        misses: list[tuple[tuple[int, int], PlatformComparator, Scenario]],
        results: dict[tuple[int, int], ComparisonResult],
    ) -> list[tuple[tuple[int, int], PlatformComparator, Scenario]]:
        """Serve miss groups through the vector kernel; return the rest.

        Misses are grouped by comparator identity; groups of at least
        :data:`MIN_VECTOR_BATCH` scenarios are evaluated as one batch,
        their uniform-lifetime rows packed into the store, and every row
        materialised into a :class:`ComparisonResult` for the caller.
        The remainder (small groups) is returned for the scalar path,
        preserving batch order.
        """
        groups: dict[tuple[int, int], list[int]] = {}
        for index, (_, comparator, _) in enumerate(misses):
            groups.setdefault(comparator_digest(comparator), []).append(index)

        handled: set[int] = set()
        for indices in groups.values():
            if len(indices) < MIN_VECTOR_BATCH:
                continue
            batch = ScenarioBatch.from_scenarios([misses[i][2] for i in indices])
            result = self._vector.evaluate_batch(misses[indices[0]][1], batch)
            self._note_computed(len(indices))
            rows = np.flatnonzero(uniform_lifetime_rows(batch.lifetime))
            keys = np.array([misses[i][0] for i in indices], dtype=np.uint64)
            self._store.put_batch(
                keys[rows, 0], keys[rows, 1], *pack_batch_rows(result, rows)
            )
            for row, i in enumerate(indices):
                digest, _, scenario = misses[i]
                results[digest] = result.comparison(row, scenario)
            handled.update(indices)
        if not handled:
            return misses
        return [m for i, m in enumerate(misses) if i not in handled]

    # ------------------------------------------------------------------
    # Array-land batch evaluation (no per-row result materialisation)
    # ------------------------------------------------------------------

    def evaluate_batch(
        self,
        comparator: PlatformComparator,
        scenarios: "ScenarioBatch | Iterable[Scenario]",
    ) -> BatchResult:
        """Assess one comparator over a batch, staying in array-land.

        Cache hits are answered with a vectorised gather from the
        result store — no ``Scenario`` or :class:`ComparisonResult`
        objects exist anywhere on a warm path — and misses run through
        the vector kernel (deduplicated by digest within the batch),
        then populate the store, so batch and object callers share
        warmth in both directions.  With ``vectorize=False`` the scalar
        path runs instead and its results are columnised, so callers see
        one API either way.
        """
        if not self.vectorize:
            if isinstance(scenarios, ScenarioBatch):
                scenario_list = [
                    scenarios.scenario_at(i) for i in range(scenarios.size)
                ]
            else:
                scenario_list = list(scenarios)
            return BatchResult.from_results(
                self.evaluate_many(comparator, scenario_list), comparator
            )
        batch = (
            scenarios
            if isinstance(scenarios, ScenarioBatch)
            else ScenarioBatch.from_scenarios(tuple(scenarios))
        )
        if self._store.capacity == 0:
            self._note_computed(batch.size)
            return self._vector.evaluate_batch(comparator, batch)
        lo, hi = batch_digests(comparator, batch)
        return self._through_store(
            batch, lo, hi,
            lambda rows: self._vector.evaluate_batch(comparator, batch.take(rows)),
        )

    def _through_store(
        self,
        batch: ScenarioBatch,
        lo: np.ndarray,
        hi: np.ndarray,
        compute: Callable[[np.ndarray], BatchResult],
    ) -> BatchResult:
        """Gather ``batch``'s hits from the store and compute the rest.

        Misses are deduplicated by digest, computed once through
        ``compute(rows)``, and their uniform-lifetime rows inserted.
        Ratios and winners are recomputed from the totals with the same
        kernels the vector path uses, so they are bit-identical to a
        fresh evaluation.
        """
        hits, floats, ints = self._store.get_batch(lo, hi)
        miss_idx = np.nonzero(~hits)[0]
        computed = None
        if miss_idx.size:
            # Sorting on ``lo`` alone is enough: a rare pair of keys that
            # share ``lo`` but not ``hi`` may leave a duplicate unmerged,
            # which costs one extra row and is never a wrong merge.
            miss_lo, miss_hi = lo[miss_idx], hi[miss_idx]
            order = np.argsort(miss_lo)
            sorted_lo, sorted_hi = miss_lo[order], miss_hi[order]
            head = np.ones(order.size, dtype=bool)
            head[1:] = (sorted_lo[1:] != sorted_lo[:-1]) | (
                sorted_hi[1:] != sorted_hi[:-1]
            )
            inverse = np.empty(order.size, dtype=np.intp)
            inverse[order] = np.cumsum(head) - 1
            unique_rows = miss_idx[order[head]]
            computed = compute(unique_rows)
            self._note_computed(int(unique_rows.size))
            comp_f, comp_i = pack_batch_rows(
                computed, np.arange(unique_rows.size)
            )
            stored = (
                slice(None) if batch.lifetime.ndim == 1
                else uniform_lifetime_rows(batch.lifetime[unique_rows])
            )
            self._store.put_batch(
                lo[unique_rows[stored]], hi[unique_rows[stored]],
                comp_f[stored], comp_i[stored],
            )
            floats[miss_idx] = comp_f[inverse]
            ints[miss_idx] = comp_i[inverse]
        result = self._assemble_batch(batch, floats, ints)
        if batch.lifetime.ndim == 1:
            return result
        # A (n, w) lifetime block: hits are uniform rows, whose packed
        # per-application column spans the block; heterogeneous rows
        # never hit and take theirs from the kernel.
        width = batch.lifetime.shape[1]
        apps = {
            k: np.repeat(v[:, None], width, axis=1)
            for k, v in result.asic_app_components.items()
        }
        gens = np.repeat(result.asic_generations[:, None], width, axis=1)
        if computed is not None:
            for k, v in apps.items():
                v[miss_idx] = computed.asic_app_components[k][inverse]
            gens[miss_idx] = computed.asic_generations[inverse]
        return dataclasses.replace(
            result, asic_app_components=apps, asic_generations=gens
        )

    @staticmethod
    def _assemble_batch(
        batch: ScenarioBatch, floats: np.ndarray, ints: np.ndarray
    ) -> BatchResult:
        """Build a :class:`BatchResult` over gathered/scattered columns."""
        from repro.engine.store import (
            _COMPONENTS,
            _FT_APP_COMP,
            _FT_ASIC_COMP,
            _FT_ASIC_PC,
            _FT_ASIC_TOTAL,
            _FT_FPGA_COMP,
            _FT_FPGA_PC,
            _FT_FPGA_TOTAL,
            _IT_ASIC_GEN,
            _IT_FPGA_GEN,
            _IT_N_FPGA,
        )

        fpga_totals = np.ascontiguousarray(floats[:, _FT_FPGA_TOTAL])
        asic_totals = np.ascontiguousarray(floats[:, _FT_ASIC_TOTAL])
        return BatchResult(
            ratios=ratio_kernel(fpga_totals, asic_totals),
            winners=winner_kernel(fpga_totals, asic_totals),
            fpga_totals=fpga_totals,
            asic_totals=asic_totals,
            fpga_components={
                name: floats[:, _FT_FPGA_COMP + j]
                for j, name in enumerate(_COMPONENTS)
            },
            asic_components={
                name: floats[:, _FT_ASIC_COMP + j]
                for j, name in enumerate(_COMPONENTS)
            },
            fpga_per_chip_embodied_kg=floats[:, _FT_FPGA_PC],
            asic_per_chip_embodied_kg=floats[:, _FT_ASIC_PC],
            n_fpga=ints[:, _IT_N_FPGA],
            fpga_generations=ints[:, _IT_FPGA_GEN],
            asic_generations=ints[:, _IT_ASIC_GEN],
            num_apps=batch.num_apps.copy(),
            asic_app_components={
                name: floats[:, _FT_APP_COMP + j]
                for j, name in enumerate(_COMPONENTS)
            },
        )

    def evaluate_pairs_batch(
        self, pairs: Iterable[tuple[PlatformComparator, Scenario]]
    ) -> BatchResult:
        """Assess many (comparator, scenario) pairs, staying in array-land.

        Every row may carry its own suite (DSE grids, tornado
        endpoints, legacy Monte-Carlo callers); the pairs are columnised
        into a :class:`ParameterBatch` and routed through
        :meth:`evaluate_param_batch`, so the sub-models are vectorised
        from extracted parameter columns and rows are cached in the
        result store under vectorised column-fold digests (batches
        larger than the store bypass it).  Parity with the scalar path
        is ``rtol <= 1e-12``.
        """
        pair_list = list(pairs)
        if not self.vectorize:
            return BatchResult.from_results(
                self.evaluate_pairs(pair_list), [c for c, _ in pair_list]
            )
        params = ParameterBatch.from_comparators([c for c, _ in pair_list])
        batch = ScenarioBatch.from_scenarios(tuple(s for _, s in pair_list))
        return self.evaluate_param_batch(params, batch)

    def evaluate_param_batch(
        self,
        params: ParameterBatch,
        scenarios: "ScenarioBatch | Iterable[Scenario]",
        *,
        reduce: "StreamingReduction | None" = None,
        chunk_rows: "int | None" = None,
        stream_workers: "int | None" = None,
    ) -> "BatchResult | StreamingReduction":
        """Assess parameter-space rows, columnar end to end.

        The workhorse of the parameter-space pipeline: Monte-Carlo
        draws, DSE grids and tornado endpoints all reduce to a
        :class:`ParameterBatch` against a :class:`ScenarioBatch`.

        * Batches that fit the result store are keyed by vectorised
          column-fold digests
          (:func:`~repro.engine.store.param_batch_digests`) — warm rows
          are answered by the store's batched gather, misses run
          through the kernels and populate it, so a re-run of the same
          seeded study is pure gather.
        * Batches larger than the store bypass it.
        * Huge batches are split into per-worker column slices
          (:data:`PARAM_CHUNK_ROWS` rows each, zero-copy views) and
          composed on a thread pool — NumPy releases the GIL in the
          kernels, so chunks genuinely run multi-core.

        With ``reduce=`` a :class:`StreamingReduction` prototype, the
        batch streams through :meth:`reduce_stream` instead: chunks are
        evaluated and folded into the reducers without ever holding
        more than ``chunk_rows`` result rows per worker, the result
        store is bypassed entirely (reduced rows are summarised, not
        cached), and the *merged reduction* is returned in place of a
        :class:`BatchResult`.  Multi-worker streaming packs the per-row
        columns into a shared-memory block once, so spawn workers slice
        them zero-copy.  Requires ``vectorize=True``.

        With ``vectorize=False`` the rows are evaluated through the
        scalar object path (requires an extraction-mode batch carrying
        its comparators) and columnised, so callers see one API.
        """
        batch = (
            scenarios
            if isinstance(scenarios, ScenarioBatch)
            else ScenarioBatch.from_scenarios(tuple(scenarios))
        )
        if params.size != batch.size:
            raise ParameterError(
                f"parameter batch has {params.size} rows, "
                f"scenario batch has {batch.size}"
            )
        if reduce is not None:
            return self._reduce_param_batch(
                params, batch, reduce, chunk_rows, stream_workers
            )
        if not self.vectorize:
            if params.comparators is None:
                raise ParameterError(
                    "vectorize=False needs a comparator-backed "
                    "ParameterBatch (from_comparators)"
                )
            pair_list = [
                (c, batch.scenario_at(i))
                for i, c in enumerate(params.comparators)
            ]
            return BatchResult.from_results(
                self.evaluate_pairs(pair_list), list(params.comparators)
            )

        if not (0 < batch.size <= self._store.capacity and params.digestable):
            self._note_computed(batch.size)
            return self._compute_param_chunks(params, batch)
        lo, hi = param_batch_digests(params, batch)
        return self._through_store(
            batch, lo, hi,
            lambda rows: self._compute_param_chunks(
                params.take(rows), batch.take(rows)
            ),
        )

    def _reduce_param_batch(
        self,
        params: ParameterBatch,
        batch: ScenarioBatch,
        reduction: StreamingReduction,
        chunk_rows: "int | None",
        stream_workers: "int | None",
    ) -> StreamingReduction:
        """Stream an in-memory batch through :meth:`reduce_stream`."""
        if not self.vectorize:
            raise ParameterError(
                "streaming reduction requires vectorize=True"
            )
        workers = self.stream_workers(stream_workers)
        # A batch that fits one (aligned) chunk runs as a single
        # sequential span either way — packing shared memory for it
        # would be pure copy overhead.
        single_chunk = batch.size <= aligned_chunk_rows(
            chunk_rows, reduction.alignment, batch.size
        )
        if workers > 1 and not single_chunk:
            source = SharedArrayChunkSource.pack(params, batch)
            try:
                return self.reduce_stream(
                    source, reduction, chunk_rows=chunk_rows, workers=workers
                )
            finally:
                source.close()
        return self.reduce_stream(
            ArrayChunkSource(params, batch), reduction,
            chunk_rows=chunk_rows, workers=1,
        )

    def _compute_param_chunks(
        self, params: ParameterBatch, batch: ScenarioBatch
    ) -> BatchResult:
        """Kernel-evaluate a parameter batch, chunked and multi-core.

        Small batches run as one kernel call.  Larger ones are split
        into :data:`PARAM_CHUNK_ROWS`-row column slices; slices are
        NumPy views (and base-mode broadcast columns are shared), so
        splitting copies no row data.  Chunks are composed concurrently
        on a thread pool unless ``workers=1`` pinned the engine to
        sequential execution; results are concatenated in row order, so
        chunking never changes values.
        """
        n = batch.size
        if n <= PARAM_CHUNK_ROWS:
            return self._vector.evaluate_param_batch(params, batch)
        ranges = [
            (start, min(start + PARAM_CHUNK_ROWS, n))
            for start in range(0, n, PARAM_CHUNK_ROWS)
        ]

        def piece(bounds: tuple[int, int]) -> BatchResult:
            start, stop = bounds
            return self._vector.evaluate_param_batch(
                params.slice_rows(start, stop), batch.slice_rows(start, stop)
            )

        threads = min(
            len(ranges),
            self.workers or (os.cpu_count() or 1),
            MAX_PARAM_THREADS,
        )
        if threads <= 1:
            parts = [piece(bounds) for bounds in ranges]
        else:
            # A per-call pool sized to the computed bound: chunked
            # dispatch only triggers for 100k+-row batches, so pool
            # startup is noise, and a `workers` pin is always honoured.
            with ThreadPoolExecutor(
                max_workers=threads, thread_name_prefix="repro-vector"
            ) as pool:
                parts = list(pool.map(piece, ranges))
        return BatchResult.concat(parts)

    def _stream_pool_get(self, workers: int) -> ProcessPoolExecutor:
        """The streaming chunk pool (spawn), resized when workers change.

        A pool whose workers died (OOM-killed mid-stream) is discarded
        and rebuilt here, so one broken run degrades that run to the
        sequential fallback without losing parallelism forever.
        """
        with self._pool_lock:
            if self._stream_pool is not None and (
                self._stream_pool_workers != workers
                # ProcessPoolExecutor flags itself once a worker dies;
                # submitting to it would only ever raise BrokenExecutor.
                or getattr(self._stream_pool, "_broken", False)
            ):
                stale, self._stream_pool = self._stream_pool, None
                stale.shutdown(wait=False)
            if self._stream_pool is None:
                self._stream_pool = ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=multiprocessing.get_context("spawn"),
                )
                self._stream_pool_workers = workers
            return self._stream_pool

    def stream_workers(self, workers: "int | None" = None) -> int:
        """Effective streaming worker count (multi-core by default).

        ``workers`` if given, else the engine's ``workers`` pin, else
        every available core — always capped at
        :data:`MAX_STREAM_WORKERS` (the kernels go memory-bandwidth
        bound, and each worker holds a chunk of result columns).
        """
        if workers is None:
            resolved = self.workers or (os.cpu_count() or 1)
        else:
            resolved = workers
        if resolved < 1:
            raise ParameterError(f"workers must be >= 1, got {resolved}")
        return min(resolved, MAX_STREAM_WORKERS)

    def reduce_stream(
        self,
        source,
        reduction: StreamingReduction,
        *,
        chunk_rows: "int | None" = None,
        workers: "int | None" = None,
        checkpoint: "Checkpoint | None" = None,
    ) -> StreamingReduction:
        """Fold a chunk source through the kernels into ``reduction``.

        The fused sample→evaluate→reduce executor behind the streaming
        (``reduce=``) modes: never materialises more than one chunk of
        rows per worker and never touches the result store.  With more
        than one effective worker the chunks run on the engine's cached
        ``spawn`` process pool (see
        :func:`repro.engine.vector.streaming.run_stream` for the span
        protocol and the sequential fallback); the returned reduction
        is bit-identical for any chunk size and worker count.

        ``checkpoint=`` (a :class:`~repro.engine.vector.Checkpoint`)
        makes the run durable: progress persists atomically on the
        configured cadence and a rerun resumes from completed units —
        still bit-identical to an uninterrupted run.
        """
        workers = self.stream_workers(workers)
        pool = self._stream_pool_get(workers) if workers > 1 else None
        result = run_stream(
            source, reduction, chunk_rows=chunk_rows, workers=workers,
            pool=pool, checkpoint=checkpoint, kernel_tier=self.kernel_tier,
        )
        self._note_computed(int(source.n))
        return result


_DEFAULT_ENGINE: EvaluationEngine | None = None
_DEFAULT_ENGINE_LOCK = threading.Lock()


def default_engine() -> EvaluationEngine:
    """The process-wide engine backing analysis calls with no injection.

    Created lazily under a lock (safe to race from threads/tasks — every
    caller observes the same instance); its streaming pool (if any) is
    shut down by an ``atexit`` hook so a lazily-started
    :class:`ProcessPoolExecutor` never leaks at interpreter exit.
    """
    global _DEFAULT_ENGINE
    with _DEFAULT_ENGINE_LOCK:
        if _DEFAULT_ENGINE is None:
            _DEFAULT_ENGINE = EvaluationEngine()
        return _DEFAULT_ENGINE


def reset_default_engine() -> None:
    """Close and discard the shared default engine.

    The next :func:`default_engine` call builds a fresh default.  Used
    by tests (cache isolation), by :func:`configure_default_engine`, and
    as the interpreter-exit hook.
    """
    global _DEFAULT_ENGINE
    with _DEFAULT_ENGINE_LOCK:
        engine, _DEFAULT_ENGINE = _DEFAULT_ENGINE, None
    if engine is not None:
        engine.close()


def configure_default_engine(**kwargs: object) -> EvaluationEngine:
    """Replace the shared default engine with a freshly configured one.

    Accepts :class:`EvaluationEngine` constructor arguments (``workers``,
    ``vectorize``, ``cache_size``, ``cache_file``, ...).  The previous
    default (and its streaming pool) is closed.  Returns the new default
    so callers can keep a handle — the CLI uses this for
    ``--workers`` / ``--no-vectorize`` / ``--cache-file``.
    """
    global _DEFAULT_ENGINE
    engine = EvaluationEngine(**kwargs)  # type: ignore[arg-type]
    with _DEFAULT_ENGINE_LOCK:
        previous, _DEFAULT_ENGINE = _DEFAULT_ENGINE, engine
    if previous is not None:
        previous.close()
    return engine


atexit.register(reset_default_engine)


def resolve_engine(engine: EvaluationEngine | None) -> EvaluationEngine:
    """``engine`` if given, else the shared default."""
    return engine if engine is not None else default_engine()
