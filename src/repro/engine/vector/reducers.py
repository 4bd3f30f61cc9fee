"""Streaming reducers: mergeable chunk reductions over batch results.

The paper's headline claims are *distributional* — FPGA win
probabilities, ratio quantiles, Pareto frontiers — yet the columnar
pipeline materialised a full :class:`~repro.engine.vector.BatchResult`
row per draw, hitting a memory wall near a million draws.  This module
provides the reduction layer of the fused sample→evaluate→reduce
streaming path: each reducer consumes one chunk of a
:class:`BatchResult` at a time, keeps only a bounded summary state, and
exposes a **mergeable-partials contract** so per-chunk (and per-worker)
reductions combine into exactly the reduction of the whole stream.

Determinism is part of the contract.  Every reducer here produces
**bit-identical state for any chunk size and worker count**, provided
chunk boundaries respect the reducer's :attr:`alignment`:

* :class:`MomentsReducer` — online count/mean/variance/min/max with
  win-independent Kahan–Neumaier compensation.  Partial sums are kept
  per fixed *absolute-index block* (``block`` rows each), so a chunking
  into 8k or 128k rows produces the same block partials; the final
  cross-block combine walks blocks in index order with a compensated
  (Neumaier) accumulator.  Merging unions disjoint block partials.
* :class:`WinCountReducer` — integer win/total counters (exact under
  any chunking by construction).
* :class:`HistogramReducer` — fixed-bin counts plus underflow /
  overflow / non-finite tallies; merging adds counts.
* :class:`ReservoirQuantiles` — a bottom-k priority sample ("reservoir
  sketch"): every draw gets a deterministic pseudo-random priority from
  a splitmix64 hash of its **absolute draw index**, and the sketch
  keeps the ``k`` smallest priorities.  The kept *set* is therefore a
  pure function of the stream, independent of chunking, and merging is
  concatenate-and-recompress.  Updates hash in cache-sized tiles and
  append the rows that may enter to a pending buffer; the immutable
  kept arrays are recompressed only when that buffer fills or the
  state is read, and a threshold left stale in between admits a
  superset, so the set does not change.  Quantiles are exact whenever
  the stream holds at most ``k`` finite values, and carry the usual
  ``O(1/sqrt(k))`` rank error beyond that.
* :class:`TopKReducer` / :class:`ParetoReducer` — DSE reductions: the
  ``k`` best rows by greener-platform total (ties broken by row index)
  and the streaming non-dominated front over
  ``(fpga_total, asic_total)``.

:class:`StreamingReduction` bundles named reducers behind one
``update`` / ``merge`` / ``fresh`` surface; the chunk executors in
:mod:`repro.engine.vector.streaming` drive it.

Durability rides on a second contract: every reducer serialises its
complete state to packed NumPy arrays via ``to_state()`` and rebuilds
from them via ``from_state()`` (an instance method on any reducer with
the same configuration, like ``fresh()``).  The round trip is
bit-identical — ``from_state(to_state(r))`` then ``merge`` behaves
exactly like merging ``r`` itself — which is what lets
:class:`~repro.engine.vector.checkpoint.CheckpointJournal` persist
merged partials mid-run and resume a killed job to the exact answer an
uninterrupted run would have produced.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import Protocol, runtime_checkable

import numpy as np

from repro.engine.vector.evaluator import BatchResult
from repro.errors import ParameterError, StoreCorruptError

#: Default absolute-index block of :class:`MomentsReducer` partial sums.
#: Chunk sizes are rounded up to a multiple of the reduction's
#: alignment, so any chunking shares the same block partials and the
#: final moments are bit-identical across chunk sizes and worker counts.
REDUCE_BLOCK = 16_384

#: Default sample size of :class:`ReservoirQuantiles`.  Rank error is
#: ``~sqrt(q(1-q)/k)`` — about 0.2% at the median for the default — and
#: streams with at most ``k`` finite values are summarised exactly.
DEFAULT_RESERVOIR_K = 65_536

#: Rows :meth:`ReservoirQuantiles.update` hashes and filters per step,
#: a power of two: a tile's uint64 priorities and their scratch
#: (128 KiB each) stay in L2 cache, where whole-chunk hashing streams
#: 1 MiB arrays.  The pending buffer holds ``max(k, RESERVOIR_TILE_ROWS)``
#: rows, so a compression partitions at most ``2k`` entries, and one
#: tile always fits after it.
RESERVOIR_TILE_ROWS = 16_384


@runtime_checkable
class StreamingReducer(Protocol):
    """One mergeable streaming reduction over batch-result chunks.

    Implementations keep bounded state and obey the mergeable-partials
    contract: ``fresh()`` partials updated with disjoint chunk ranges
    and merged (in any order) reach the same state as one reducer fed
    the whole stream in order, bit-identically, provided every chunk
    boundary is a multiple of :attr:`alignment`.
    """

    #: Chunk boundaries must be multiples of this (1 = don't care).
    alignment: int

    def fresh(self) -> "StreamingReducer":
        """An empty reducer with this reducer's configuration."""
        ...

    def update(self, result: BatchResult, offset: int) -> None:
        """Consume a chunk whose first row has absolute index ``offset``."""
        ...

    def merge(self, other: "StreamingReducer") -> None:
        """Fold another partial (over disjoint rows) into this one."""
        ...

    def to_state(self) -> dict[str, np.ndarray]:
        """This reducer's complete state as packed NumPy arrays."""
        ...

    def from_state(self, state: dict[str, np.ndarray]) -> "StreamingReducer":
        """A new reducer rebuilt from :meth:`to_state` output.

        Like :meth:`fresh`, this is called on a configured prototype;
        implementations validate that the state's configuration matches
        and raise :class:`~repro.errors.ParameterError` on drift, and
        raise :class:`~repro.errors.StoreCorruptError` on state that
        breaks their invariants.
        """
        ...


def _neumaier_sum(values: Iterable[float]) -> float:
    """Compensated (Neumaier) sum, deterministic in iteration order."""
    total = 0.0
    compensation = 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation


class MomentsReducer:
    """Streaming count/mean/variance/min/max over finite column values.

    Partial sums are kept per fixed absolute-index block (see module
    docstring), making the state — and therefore the final moments —
    bit-identical for any block-aligned chunking.  Non-finite values
    are counted but excluded from the moments, mirroring
    :attr:`MonteCarloResult.finite_ratios` semantics.
    """

    __slots__ = ("alignment", "source", "_blocks")

    def __init__(self, source: str = "ratios", block: int = REDUCE_BLOCK) -> None:
        if block < 1:
            raise ParameterError(f"block must be >= 1, got {block}")
        self.alignment = block
        self.source = source
        #: block index -> (n_total, n_finite, sum, M2, min, max) where
        #: M2 is the block's centred sum of squares — kept instead of a
        #: raw sum of squares so the cross-block (Chan) variance
        #: combine never catastrophically cancels for large-magnitude,
        #: tightly clustered columns (e.g. kg totals).
        self._blocks: dict[int, tuple[int, int, float, float, float, float]] = {}

    def fresh(self) -> "MomentsReducer":
        return MomentsReducer(source=self.source, block=self.alignment)

    def update(self, result: BatchResult, offset: int) -> None:
        values = np.asarray(getattr(result, self.source), dtype=np.float64)
        block = self.alignment
        if offset % block:
            raise ParameterError(
                f"chunk offset {offset} is not aligned to block {block}"
            )
        finite_all = np.isfinite(values)
        all_finite = bool(finite_all.all())
        centred_buf = np.empty(min(block, values.shape[0]))
        for start in range(0, values.shape[0], block):
            segment = values[start : start + block]
            if all_finite:
                # Fast path for fully finite chunks (every realistic
                # stream): same reductions over the same values — the
                # masked spellings below select the whole segment — so
                # the stored partials are bit-identical, without the
                # mask temporaries and fancy-indexed copies.
                n_finite = int(segment.shape[0])
                total = float(segment.sum())
                centred = np.subtract(
                    segment, total / n_finite, out=centred_buf[: n_finite]
                )
                np.multiply(centred, centred, out=centred)
                m2 = float(centred.sum())
                seg_min = float(segment.min())
                seg_max = float(segment.max())
            else:
                finite = finite_all[start : start + block]
                n_finite = int(np.count_nonzero(finite))
                masked = np.where(finite, segment, 0.0)
                total = float(masked.sum())
                if n_finite:
                    centred = np.where(finite, segment - total / n_finite, 0.0)
                    m2 = float((centred * centred).sum())
                else:
                    m2 = 0.0
                seg_min = float(segment[finite].min()) if n_finite else math.inf
                seg_max = float(segment[finite].max()) if n_finite else -math.inf
            key = (offset + start) // block
            if key in self._blocks:
                raise ParameterError(f"block {key} reduced twice")
            self._blocks[key] = (
                int(segment.shape[0]), n_finite, total, m2, seg_min, seg_max,
            )

    def merge(self, other: "MomentsReducer") -> None:
        overlap = self._blocks.keys() & other._blocks.keys()
        if overlap:
            raise ParameterError(f"merging overlapping blocks {sorted(overlap)}")
        self._blocks.update(other._blocks)

    def to_state(self) -> dict[str, np.ndarray]:
        keys = sorted(self._blocks)
        rows = [self._blocks[k] for k in keys]
        return {
            "block": np.array([self.alignment], dtype=np.int64),
            "keys": np.array(keys, dtype=np.int64),
            "counts": np.array([r[:2] for r in rows], dtype=np.int64
                               ).reshape(len(rows), 2),
            "sums": np.array([r[2:] for r in rows], dtype=np.float64
                             ).reshape(len(rows), 4),
        }

    def from_state(self, state: dict[str, np.ndarray]) -> "MomentsReducer":
        if int(state["block"][0]) != self.alignment:
            raise ParameterError(
                f"checkpointed block {int(state['block'][0])} != "
                f"configured block {self.alignment}"
            )
        restored = self.fresh()
        keys = np.asarray(state["keys"], dtype=np.int64)
        counts = np.asarray(state["counts"], dtype=np.int64)
        sums = np.asarray(state["sums"], dtype=np.float64)
        n = keys.shape[0] if keys.ndim == 1 else -1
        if counts.shape != (n, 2) or sums.shape != (n, 4):
            raise StoreCorruptError(
                f"checkpointed moments hold {keys.shape} keys, "
                f"{counts.shape} counts and {sums.shape} sums, expected "
                f"(n,), (n, 2) and (n, 4)"
            )
        for i, key in enumerate(keys):
            restored._blocks[int(key)] = (
                int(counts[i, 0]), int(counts[i, 1]),
                float(sums[i, 0]), float(sums[i, 1]),
                float(sums[i, 2]), float(sums[i, 3]),
            )
        return restored

    # -- finalisation ---------------------------------------------------

    @property
    def n_total(self) -> int:
        """Rows seen (finite or not)."""
        return sum(b[0] for b in self._blocks.values())

    @property
    def n_finite(self) -> int:
        """Rows with a finite value."""
        return sum(b[1] for b in self._blocks.values())

    def moments(self) -> dict[str, float]:
        """``{n, n_finite, mean, var, std, min, max}`` over finite values.

        The cross-block combine walks blocks in index order — a
        Neumaier-compensated accumulator for the mean, Chan's parallel
        M2 update for the variance — so the result is a pure function
        of the stream contents (independent of chunk size and worker
        count) and the variance stays accurate even when the spread is
        many orders of magnitude below the mean.
        """
        ordered = [self._blocks[k] for k in sorted(self._blocks)]
        n = sum(b[0] for b in ordered)
        n_finite = sum(b[1] for b in ordered)
        if n_finite == 0:
            nan = float("nan")
            return {"n": float(n), "n_finite": 0.0, "mean": nan, "var": nan,
                    "std": nan, "min": nan, "max": nan}
        total = _neumaier_sum(b[2] for b in ordered)
        run_n = 0
        run_mean = 0.0
        run_m2 = 0.0
        for b_n, b_finite, b_sum, b_m2, _, _ in ordered:
            if b_finite == 0:
                continue
            b_mean = b_sum / b_finite
            merged = run_n + b_finite
            delta = b_mean - run_mean
            run_m2 += b_m2 + delta * delta * run_n * b_finite / merged
            run_mean += delta * b_finite / merged
            run_n = merged
        var = max(0.0, run_m2 / n_finite)
        return {
            "n": float(n),
            "n_finite": float(n_finite),
            "mean": total / n_finite,
            "var": var,
            "std": math.sqrt(var),
            "min": min(b[4] for b in ordered),
            "max": max(b[5] for b in ordered),
        }


class WinCountReducer:
    """Exact per-platform win counters (totals-based, like ``winners``)."""

    __slots__ = ("alignment", "n", "fpga_wins")

    def __init__(self) -> None:
        self.alignment = 1
        self.n = 0
        self.fpga_wins = 0

    def fresh(self) -> "WinCountReducer":
        return WinCountReducer()

    def update(self, result: BatchResult, offset: int) -> None:
        # Fused-tier results carry an exact precomputed win count
        # (counted on the float64 winner mask) — consuming it skips
        # materialising the string winner column per chunk.
        count = getattr(result, "fpga_win_count", None)
        if count is not None:
            self.n += int(result.size)
            self.fpga_wins += int(count)
            return
        self.n += int(result.winners.shape[0])
        self.fpga_wins += int(np.count_nonzero(result.winners == "fpga"))

    def merge(self, other: "WinCountReducer") -> None:
        self.n += other.n
        self.fpga_wins += other.fpga_wins

    def to_state(self) -> dict[str, np.ndarray]:
        return {"counts": np.array([self.n, self.fpga_wins], dtype=np.int64)}

    def from_state(self, state: dict[str, np.ndarray]) -> "WinCountReducer":
        counts = np.asarray(state["counts"], dtype=np.int64)
        restored = self.fresh()
        restored.n = int(counts[0])
        restored.fpga_wins = int(counts[1])
        return restored

    @property
    def fpga_win_probability(self) -> float:
        """Fraction of rows the FPGA won (0 rows -> ``nan``)."""
        return self.fpga_wins / self.n if self.n else float("nan")


class HistogramReducer:
    """Fixed-bin histogram with underflow/overflow/non-finite tallies.

    Bin edges are ``bins`` equal-width intervals over ``[lo, hi]``
    (right-closed on the last bin, matching :func:`numpy.histogram`).
    Merging adds counts, so any chunking yields identical counts.
    """

    __slots__ = ("alignment", "source", "lo", "hi", "counts",
                 "underflow", "overflow", "non_finite")

    def __init__(
        self, lo: float, hi: float, bins: int = 64, source: str = "ratios"
    ) -> None:
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise ParameterError(f"need finite hi > lo, got [{lo}, {hi}]")
        if bins < 1:
            raise ParameterError(f"bins must be >= 1, got {bins}")
        self.alignment = 1
        self.source = source
        self.lo = float(lo)
        self.hi = float(hi)
        self.counts = np.zeros(bins, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0
        self.non_finite = 0

    def fresh(self) -> "HistogramReducer":
        return HistogramReducer(self.lo, self.hi, int(self.counts.shape[0]),
                                source=self.source)

    @property
    def edges(self) -> np.ndarray:
        """The ``bins + 1`` bin edges."""
        return np.linspace(self.lo, self.hi, int(self.counts.shape[0]) + 1)

    def update(self, result: BatchResult, offset: int) -> None:
        values = np.asarray(getattr(result, self.source), dtype=np.float64)
        finite = values[np.isfinite(values)]
        self.non_finite += int(values.shape[0] - finite.shape[0])
        self.underflow += int(np.count_nonzero(finite < self.lo))
        self.overflow += int(np.count_nonzero(finite > self.hi))
        inside = finite[(finite >= self.lo) & (finite <= self.hi)]
        self.counts += np.histogram(inside, bins=int(self.counts.shape[0]),
                                    range=(self.lo, self.hi))[0]

    def merge(self, other: "HistogramReducer") -> None:
        if (other.lo, other.hi, other.counts.shape) != (
            self.lo, self.hi, self.counts.shape
        ):
            raise ParameterError("merging histograms with different bins")
        self.counts += other.counts
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.non_finite += other.non_finite

    def to_state(self) -> dict[str, np.ndarray]:
        return {
            "range": np.array([self.lo, self.hi], dtype=np.float64),
            "counts": self.counts.copy(),
            "tallies": np.array(
                [self.underflow, self.overflow, self.non_finite],
                dtype=np.int64,
            ),
        }

    def from_state(self, state: dict[str, np.ndarray]) -> "HistogramReducer":
        rng = np.asarray(state["range"], dtype=np.float64)
        counts = np.asarray(state["counts"], dtype=np.int64)
        if (float(rng[0]), float(rng[1]), counts.shape) != (
            self.lo, self.hi, self.counts.shape
        ):
            raise ParameterError("checkpointed histogram has different bins")
        restored = self.fresh()
        restored.counts = counts.copy()
        tallies = np.asarray(state["tallies"], dtype=np.int64)
        restored.underflow = int(tallies[0])
        restored.overflow = int(tallies[1])
        restored.non_finite = int(tallies[2])
        return restored


_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser — a bijection on uint64 (no collisions)."""
    with np.errstate(over="ignore"):  # modular uint64 arithmetic on purpose
        z = x + np.uint64(_GOLDEN)
        z = (z ^ (z >> _SHIFT1)) * _MIX1
        z = (z ^ (z >> _SHIFT2)) * _MIX2
        return z ^ (z >> _SHIFT3)


def _splitmix64_premix(out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """All of :func:`_splitmix64` but its last xorshift, in place, given
    ``out = x + golden`` (mod 2**64).  The last step ``z ^= z >> 31``
    keeps the top 31 bits of ``z``, so ``splitmix64(x) < t`` implies
    ``out < _premix_bound(t)``: a pre-filter that needs the last step
    on admitted rows only.  Integer arithmetic is exact, and array
    integer ufuncs wrap silently, so no ``errstate`` is needed."""
    np.right_shift(out, _SHIFT1, out=tmp)
    np.bitwise_xor(out, tmp, out=out)
    np.multiply(out, _MIX1, out=out)
    np.right_shift(out, _SHIFT2, out=tmp)
    np.bitwise_xor(out, tmp, out=out)
    np.multiply(out, _MIX2, out=out)
    return out


def _premix_bound(threshold: "int | None") -> "np.uint64 | None":
    """The smallest multiple of ``2**33`` above every premix value whose
    priority is below ``threshold`` (``None``: no bound below 2**64)."""
    if threshold is None or threshold >> 33 == (1 << 31) - 1:
        return None
    return np.uint64(((threshold >> 33) + 1) << 33)


class ReservoirQuantiles:
    """Deterministic bottom-k quantile sketch over finite column values.

    Every row's priority is ``splitmix64(index ^ mix(seed))`` — a pure
    function of its absolute draw index — and the sketch keeps the
    ``k`` rows with the smallest priorities (a uniform random sample of
    the stream).  Because priorities ignore chunk boundaries and
    splitmix64 is injective (no ties), the kept set is bit-identical
    for any chunk size and worker count; merging partials is
    concatenate-and-recompress.  Streams with at most ``k`` finite
    values are held in full, so small studies get *exact* quantiles.

    The state is split in two.  The *kept* arrays hold at most ``k``
    entries and are never written in place: each compression rebinds
    them to fresh arrays, so a caller may hold them (the checkpoint
    journal encodes them behind the stream) while updates go on.  A
    reused *pending* buffer collects the rows :meth:`update` admits.

    :meth:`update` hashes each chunk in :data:`RESERVOIR_TILE_ROWS`-row
    tiles and admits a tile's finite rows that may beat the *threshold*,
    the largest kept priority (every finite row while fewer than ``k``
    are kept).  The test runs one step before the hash ends, against a
    bound the threshold implies (:func:`_splitmix64_premix`), so only
    admitted rows pay the last step; a few admitted rows may not beat
    the threshold.  Compression — concatenate the kept and pending
    entries, keep the ``k`` smallest priorities — runs only when the
    pending buffer cannot take a tile's admitted rows, or when the
    state is observed (:meth:`to_state`, :meth:`merge`, :meth:`sample`,
    :meth:`quantiles`).  Between compressions the threshold is stale:
    it is at least the ``k``-th smallest priority seen so far, so the
    pending rows are a superset of the new rows that belong to the
    bottom ``k``.  Every row left out has at least ``k`` kept rows
    below it and cannot be in the bottom ``k``, so each compression
    reaches the same set as compressing after every row would.
    """

    __slots__ = ("alignment", "source", "k", "_seed_mix", "_n_seen",
                 "_priorities", "_values", "_bound", "_fill", "_buffers")

    def __init__(
        self, k: int = DEFAULT_RESERVOIR_K, seed: int = 0,
        source: str = "ratios",
    ) -> None:
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        self.alignment = 1
        self.source = source
        self.k = k
        self._seed_mix = int(_splitmix64(np.uint64(seed & _MASK64)))
        self._n_seen = 0
        #: The kept set: at most ``k`` entries, rebound, never written.
        self._priorities = np.empty(0, dtype=np.uint64)
        self._values = np.empty(0, dtype=np.float64)
        #: Premix admission bound from the largest kept priority once
        #: ``k`` are kept (see :func:`_premix_bound`), else ``None``.
        self._bound: "np.uint64 | None" = None
        #: Admitted rows waiting in the pending buffer.
        self._fill = 0
        #: Tile scratch and the pending buffer, allocated on first update.
        self._buffers: tuple[np.ndarray, ...] | None = None

    def fresh(self) -> "ReservoirQuantiles":
        clone = ReservoirQuantiles(k=self.k, source=self.source)
        clone._seed_mix = self._seed_mix
        return clone

    @property
    def n_seen(self) -> int:
        """Finite values observed so far."""
        return self._n_seen

    @property
    def exact(self) -> bool:
        """Whether the sketch still holds *every* finite value."""
        return self._n_seen <= self.k

    def _pending(self) -> tuple[np.ndarray, np.ndarray]:
        """Views of the admitted rows waiting in the pending buffer."""
        if not self._fill:
            return self._priorities[:0], self._values[:0]
        priorities, values = self._buffers[-2:]
        return priorities[: self._fill], values[: self._fill]

    def _keep(self, parts: "list[tuple[np.ndarray, np.ndarray]]") -> None:
        """Rebind the kept set to the bottom ``k`` of the union of
        ``(priorities, values)`` parts, in fresh arrays."""
        k = self.k
        priorities = np.concatenate([p for p, _ in parts])
        if priorities.shape[0] <= k:
            values = np.concatenate([v for _, v in parts])
            full = priorities.shape[0] == k
            self._bound = _premix_bound(int(priorities.max()) if full else None)
        else:
            # The k-th smallest priority from a partition of the private
            # concatenation; each part's rows at or below it are then
            # gathered straight into the new kept arrays.  Priorities
            # are injective, so exactly k rows qualify.
            priorities.partition(k - 1)
            threshold = priorities[k - 1]
            self._bound = _premix_bound(int(threshold))
            priorities = np.empty(k, dtype=np.uint64)
            values = np.empty(k, dtype=np.float64)
            fill = 0
            for part_priorities, part_values in parts:
                rows = np.flatnonzero(part_priorities <= threshold)
                rows = rows[: k - fill]
                stop = fill + rows.shape[0]
                part_priorities.take(rows, out=priorities[fill:stop], mode="clip")
                part_values.take(rows, out=values[fill:stop], mode="clip")
                fill = stop
        self._priorities, self._values = priorities, values

    def _compress(self) -> None:
        """Fold the pending rows into the kept set."""
        if self._fill:
            self._keep([(self._priorities, self._values), self._pending()])
            self._fill = 0

    def __getstate__(self) -> dict:
        """The compressed state: the kept set, never the tile scratch or
        the pending buffer (an unpickled copy allocates its own)."""
        self._compress()
        return {name: getattr(self, name) for name in self.__slots__
                if name != "_buffers"}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._buffers = None

    def update(self, result: BatchResult, offset: int) -> None:
        values = np.asarray(getattr(result, self.source), dtype=np.float64)
        if self._buffers is None:
            tile, pending = RESERVOIR_TILE_ROWS, max(self.k, RESERVOIR_TILE_ROWS)
            # Row ``j`` of the tile-aligned block at ``base`` hashes
            # ``(base + j) ^ seed_mix``.  ``base`` has no bits below the
            # tile size, so that is the high bits of ``base ^ seed_mix``
            # plus ``j ^ (the low bits of seed_mix)``, kept here.
            low = np.arange(tile, dtype=np.uint64)
            np.bitwise_xor(low, np.uint64(self._seed_mix % tile), out=low)
            self._buffers = (
                low,
                np.empty(tile, dtype=np.uint64), np.empty(tile, dtype=np.uint64),
                np.empty(tile, dtype=bool),
                np.empty(pending, dtype=np.uint64),
                np.empty(pending, dtype=np.float64),
            )
        (low, mix_buf, tmp_buf, admit_buf,
         pending_priorities, pending_values) = self._buffers
        offset = int(offset)
        # A finite sum means every value is finite (any NaN or infinity
        # makes it non-finite); otherwise tiles mask their rows.
        with np.errstate(over="ignore", invalid="ignore"):
            all_finite = math.isfinite(np.add.reduce(values))
        high_bits = _MASK64 ^ (RESERVOIR_TILE_ROWS - 1)
        # Tiles are the chunk's pieces of aligned tile-size blocks of
        # absolute indices, so each hashes with one add.
        for block in range(offset - offset % RESERVOIR_TILE_ROWS,
                           offset + values.shape[0], RESERVOIR_TILE_ROWS):
            j = max(offset - block, 0)
            tile = values[block + j - offset : block + RESERVOIR_TILE_ROWS - offset]
            n = tile.shape[0]
            mix, tmp = mix_buf[:n], tmp_buf[:n]
            mixed_base = (block ^ self._seed_mix) & high_bits
            np.add(low[j : j + n], np.uint64((mixed_base + _GOLDEN) & _MASK64),
                   out=mix)
            _splitmix64_premix(mix, tmp)
            admit = None
            if not all_finite:
                admit = np.isfinite(tile, out=admit_buf[:n])
                self._n_seen += int(np.count_nonzero(admit))
                if self._bound is not None:
                    admit &= mix < self._bound
            else:
                self._n_seen += n
                if self._bound is not None:
                    admit = np.less(mix, self._bound, out=admit_buf[:n])
            rows = None if admit is None else np.flatnonzero(admit)
            count = n if rows is None else rows.shape[0]
            if self._fill + count > pending_priorities.shape[0]:
                self._compress()
            fill = self._fill
            self._fill = fill + count
            into_priorities = pending_priorities[fill : fill + count]
            into_values = pending_values[fill : fill + count]
            if count == n:
                into_priorities[...] = mix
                into_values[...] = tile
            else:
                # `mode="clip"` lets `take` write `out` directly; the
                # default "raise" gathers into a buffer and copies.
                mix.take(rows, out=into_priorities, mode="clip")
                tile.take(rows, out=into_values, mode="clip")
            # The last splitmix64 step, on the admitted rows only.
            np.right_shift(into_priorities, _SHIFT3, out=tmp[:count])
            np.bitwise_xor(into_priorities, tmp[:count], out=into_priorities)

    def merge(self, other: "ReservoirQuantiles") -> None:
        if other.k != self.k or other._seed_mix != self._seed_mix:
            raise ParameterError("merging reservoirs with different k/seed")
        self._n_seen += other._n_seen
        self._keep([(self._priorities, self._values), self._pending(),
                    (other._priorities, other._values), other._pending()])
        self._fill = 0

    def to_state(self, *, canonical: bool = True) -> dict[str, np.ndarray]:
        # The kept *set* is a pure function of the stream but the
        # in-memory array order is not (it depends on the merge and
        # compression schedule).  Canonical state is packed in
        # ascending-priority order, so a finished checkpoint serializes
        # identically however the run was scheduled; priorities are
        # injective, so the order is total.  ``canonical=False`` is
        # internal to the checkpoint journal's cadence writes, which
        # skip the argsort and gathers (resume needs only the set) and
        # take the kept arrays themselves: they are never written again.
        # ``take`` gathers through the index array faster than fancy
        # indexing does.
        self._compress()
        priorities, values = self._priorities, self._values
        if canonical:
            order = np.argsort(priorities)
            priorities, values = priorities.take(order), values.take(order)
        return {
            "config": np.array([self.k, self._seed_mix], dtype=np.uint64),
            "n_seen": np.array([self._n_seen], dtype=np.int64),
            "priorities": priorities,
            "values": values,
        }

    def from_state(self, state: dict[str, np.ndarray]) -> "ReservoirQuantiles":
        config = np.asarray(state["config"], dtype=np.uint64)
        if int(config[0]) != self.k or int(config[1]) != self._seed_mix:
            raise ParameterError(
                "checkpointed reservoir has different k/seed"
            )
        n_seen = int(state["n_seen"][0])
        priorities = np.asarray(state["priorities"], dtype=np.uint64)
        values = np.asarray(state["values"], dtype=np.float64)
        # Set invariants only: the order is free (see `to_state`).
        if not (
            priorities.ndim == values.ndim == 1
            and priorities.shape[0] == values.shape[0] == min(n_seen, self.k)
        ):
            raise StoreCorruptError(
                f"checkpointed reservoir holds {priorities.shape} priorities "
                f"and {values.shape} values, expected "
                f"{min(n_seen, self.k)} of each for n_seen={n_seen}"
            )
        restored = self.fresh()
        restored._n_seen = n_seen
        restored._keep([(priorities, values)])
        return restored

    def sample(self) -> np.ndarray:
        """The kept values, sorted ascending (a copy)."""
        self._compress()
        return np.sort(self._values)

    def quantiles(self, qs: Sequence[float]) -> dict[float, float]:
        """Requested quantiles of the sketch (``nan`` when empty).

        Exact while :attr:`exact` holds; otherwise the estimate carries
        ``~sqrt(q(1-q)/k)`` rank error.
        """
        self._compress()
        if self._values.shape[0] == 0:
            return {float(q): float("nan") for q in qs}
        values = np.quantile(self._values, list(qs))
        return {float(q): float(v) for q, v in zip(qs, values)}


def _kept_rows(
    state: dict[str, np.ndarray], what: str, k: "int | None" = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Copies of a row-keeping reducer's ``indices``/``fpga``/``asic``/
    ``ratios`` state, checked: four equal-length 1-d arrays, at most
    ``k`` rows when ``k`` is given, and no negative row index."""
    arrays = (
        np.asarray(state["indices"], dtype=np.int64),
        np.asarray(state["fpga"], dtype=np.float64),
        np.asarray(state["asic"], dtype=np.float64),
        np.asarray(state["ratios"], dtype=np.float64),
    )
    shapes = [array.shape for array in arrays]
    if any(len(shape) != 1 for shape in shapes) or len(set(shapes)) != 1:
        raise StoreCorruptError(
            f"checkpointed {what} holds indices/fpga/asic/ratios of shapes "
            f"{shapes}, expected four equal-length 1-d arrays"
        )
    rows = shapes[0][0]
    if k is not None and rows > k:
        raise StoreCorruptError(
            f"checkpointed {what} holds {rows} rows, more than k={k}"
        )
    if rows and int(arrays[0].min()) < 0:
        raise StoreCorruptError(
            f"checkpointed {what} holds a negative row index"
        )
    return tuple(array.copy() for array in arrays)


class TopKReducer:
    """The ``k`` rows with the smallest greener-platform total.

    Keeps ``(index, fpga_total, asic_total, ratio)`` per kept row.
    Ordering is by ``(min(fpga, asic), index)`` — the index tiebreak
    makes the kept set and its order deterministic under any chunking.
    """

    __slots__ = ("alignment", "k", "_indices", "_fpga", "_asic", "_ratios")

    def __init__(self, k: int = 64) -> None:
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        self.alignment = 1
        self.k = k
        self._indices = np.empty(0, dtype=np.int64)
        self._fpga = np.empty(0, dtype=np.float64)
        self._asic = np.empty(0, dtype=np.float64)
        self._ratios = np.empty(0, dtype=np.float64)

    def fresh(self) -> "TopKReducer":
        return TopKReducer(k=self.k)

    def _compress(self) -> None:
        if self._indices.shape[0] > self.k:
            key = np.minimum(self._fpga, self._asic)
            order = np.lexsort((self._indices, key))[: self.k]
            self._indices = self._indices[order]
            self._fpga = self._fpga[order]
            self._asic = self._asic[order]
            self._ratios = self._ratios[order]

    def update(self, result: BatchResult, offset: int) -> None:
        n = result.size
        self._indices = np.concatenate(
            [self._indices, np.arange(offset, offset + n, dtype=np.int64)]
        )
        self._fpga = np.concatenate([self._fpga, result.fpga_totals])
        self._asic = np.concatenate([self._asic, result.asic_totals])
        self._ratios = np.concatenate([self._ratios, result.ratios])
        self._compress()

    def merge(self, other: "TopKReducer") -> None:
        if other.k != self.k:
            raise ParameterError("merging top-k reducers with different k")
        self._indices = np.concatenate([self._indices, other._indices])
        self._fpga = np.concatenate([self._fpga, other._fpga])
        self._asic = np.concatenate([self._asic, other._asic])
        self._ratios = np.concatenate([self._ratios, other._ratios])
        self._compress()

    def to_state(self) -> dict[str, np.ndarray]:
        return {
            "config": np.array([self.k], dtype=np.int64),
            "indices": self._indices.copy(),
            "fpga": self._fpga.copy(),
            "asic": self._asic.copy(),
            "ratios": self._ratios.copy(),
        }

    def from_state(self, state: dict[str, np.ndarray]) -> "TopKReducer":
        if int(state["config"][0]) != self.k:
            raise ParameterError("checkpointed top-k has different k")
        restored = self.fresh()
        (restored._indices, restored._fpga, restored._asic,
         restored._ratios) = _kept_rows(state, "top-k", self.k)
        return restored

    def rows(self) -> list[dict[str, float]]:
        """Kept rows ordered greenest-first (then by index)."""
        key = np.minimum(self._fpga, self._asic)
        order = np.lexsort((self._indices, key))
        return [
            {
                "index": int(self._indices[i]),
                "fpga_total_kg": float(self._fpga[i]),
                "asic_total_kg": float(self._asic[i]),
                "ratio": float(self._ratios[i]),
            }
            for i in order
        ]


def _pareto_mask(fpga: np.ndarray, asic: np.ndarray,
                 indices: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows, minimising both totals.

    Domination matches :func:`repro.analysis.dse._dominates`: strictly
    better somewhere, no worse anywhere — exact coordinate duplicates
    do not dominate each other and are all kept.  After sorting by
    ``(fpga, asic)``, any dominator of a row precedes it, so one
    vectorised pass over the strict running minimum of ``asic`` (and
    the ``fpga`` of the row that set it) decides every row.
    """
    n = fpga.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool)
    nan_rows = np.isnan(fpga) | np.isnan(asic)
    if nan_rows.any():
        # NaN never satisfies any comparison, so such rows can neither
        # dominate nor be dominated — the materialized `_dominates`
        # keeps them on the front, and the streamed front must match.
        mask = _pareto_mask(fpga[~nan_rows], asic[~nan_rows],
                            indices[~nan_rows])
        result = np.ones(n, dtype=bool)
        result[~nan_rows] = mask
        return result
    order = np.lexsort((indices, asic, fpga))
    x = fpga[order]
    y = asic[order]
    #: Strict prefix minimum of y (earlier rows only).
    running = np.concatenate(([np.inf], np.minimum.accumulate(y)[:-1]))
    setter = y < running  # rows that lower the minimum are on the front
    #: x of the row that set the current minimum (earliest achiever —
    #: any later equal-y row has x >= it, x being the sort key).
    setter_pos = np.maximum.accumulate(np.where(setter, np.arange(n), -1))
    setter_x = np.where(setter_pos >= 0, x[np.maximum(setter_pos, 0)], np.inf)
    # A non-setter survives only as an exact duplicate of the setter:
    # y == running min and x == setter x (x < setter_x is impossible).
    keep_sorted = setter | ((y == running) & (x == setter_x))
    mask = np.zeros(n, dtype=bool)
    mask[order] = keep_sorted
    return mask


class ParetoReducer:
    """Streaming non-dominated front over ``(fpga_total, asic_total)``.

    The front of a union equals the front of the union of fronts, so
    each update filters the chunk against the running front and merging
    concatenates two fronts and re-filters — deterministic under any
    chunking (the front is a pure set function of the stream; rows are
    reported in index order).
    """

    __slots__ = ("alignment", "_indices", "_fpga", "_asic", "_ratios")

    def __init__(self) -> None:
        self.alignment = 1
        self._indices = np.empty(0, dtype=np.int64)
        self._fpga = np.empty(0, dtype=np.float64)
        self._asic = np.empty(0, dtype=np.float64)
        self._ratios = np.empty(0, dtype=np.float64)

    def fresh(self) -> "ParetoReducer":
        return ParetoReducer()

    def _refilter(self) -> None:
        mask = _pareto_mask(self._fpga, self._asic, self._indices)
        self._indices = self._indices[mask]
        self._fpga = self._fpga[mask]
        self._asic = self._asic[mask]
        self._ratios = self._ratios[mask]

    def update(self, result: BatchResult, offset: int) -> None:
        n = result.size
        self._indices = np.concatenate(
            [self._indices, np.arange(offset, offset + n, dtype=np.int64)]
        )
        self._fpga = np.concatenate([self._fpga, result.fpga_totals])
        self._asic = np.concatenate([self._asic, result.asic_totals])
        self._ratios = np.concatenate([self._ratios, result.ratios])
        self._refilter()

    def merge(self, other: "ParetoReducer") -> None:
        self._indices = np.concatenate([self._indices, other._indices])
        self._fpga = np.concatenate([self._fpga, other._fpga])
        self._asic = np.concatenate([self._asic, other._asic])
        self._ratios = np.concatenate([self._ratios, other._ratios])
        self._refilter()

    def to_state(self) -> dict[str, np.ndarray]:
        return {
            "indices": self._indices.copy(),
            "fpga": self._fpga.copy(),
            "asic": self._asic.copy(),
            "ratios": self._ratios.copy(),
        }

    def from_state(self, state: dict[str, np.ndarray]) -> "ParetoReducer":
        restored = self.fresh()
        (restored._indices, restored._fpga, restored._asic,
         restored._ratios) = _kept_rows(state, "Pareto front")
        return restored

    def rows(self) -> list[dict[str, float]]:
        """Front rows in ascending index order."""
        order = np.argsort(self._indices)
        return [
            {
                "index": int(self._indices[i]),
                "fpga_total_kg": float(self._fpga[i]),
                "asic_total_kg": float(self._asic[i]),
                "ratio": float(self._ratios[i]),
            }
            for i in order
        ]


class StreamingReduction:
    """A named bundle of reducers driven as one unit.

    The chunk executors call :meth:`update` per chunk and :meth:`merge`
    per worker partial; :attr:`alignment` is the least common multiple
    of the member alignments, so one rounded chunk size satisfies every
    member's determinism contract.
    """

    __slots__ = ("reducers",)

    def __init__(self, reducers: dict[str, StreamingReducer]) -> None:
        if not reducers:
            raise ParameterError("StreamingReduction needs at least one reducer")
        for name in reducers:
            if "::" in name:
                # "::" separates member name from state field in the
                # flattened to_state() keys; allowing it in names would
                # make the flattening ambiguous.
                raise ParameterError(f"reducer name {name!r} contains '::'")
        self.reducers = dict(reducers)

    def __getitem__(self, name: str) -> StreamingReducer:
        return self.reducers[name]

    @property
    def alignment(self) -> int:
        return math.lcm(*(r.alignment for r in self.reducers.values()))

    def fresh(self) -> "StreamingReduction":
        return StreamingReduction(
            {name: r.fresh() for name, r in self.reducers.items()}
        )

    def update(self, result: BatchResult, offset: int) -> None:
        for reducer in self.reducers.values():
            reducer.update(result, offset)

    def merge(self, other: "StreamingReduction") -> None:
        if other.reducers.keys() != self.reducers.keys():
            raise ParameterError("merging reductions with different members")
        for name, reducer in self.reducers.items():
            reducer.merge(other.reducers[name])

    def schema_token(self) -> str:
        """A stable identity string for checkpoint compatibility checks.

        Two reductions with the same token have the same member names,
        reducer types, and alignments — the shape-level contract a
        checkpoint must match before its partials can be merged.
        """
        return ";".join(
            f"{name}:{type(self.reducers[name]).__name__}"
            f":{self.reducers[name].alignment}"
            for name in sorted(self.reducers)
        )

    def to_state(self, *, canonical: bool = True) -> dict[str, np.ndarray]:
        """Member states flattened under ``"<member>::<field>"`` keys.

        ``canonical=False`` is internal to the checkpoint journal's
        cadence writes: a :class:`ReservoirQuantiles` member then keeps
        its memory order instead of sorting by priority.
        """
        state: dict[str, np.ndarray] = {}
        for name in sorted(self.reducers):
            reducer = self.reducers[name]
            if canonical or not isinstance(reducer, ReservoirQuantiles):
                fields = reducer.to_state()
            else:
                fields = reducer.to_state(canonical=False)
            for field, array in fields.items():
                state[f"{name}::{field}"] = array
        return state

    def from_state(self, state: dict[str, np.ndarray]) -> "StreamingReduction":
        """A reduction rebuilt from :meth:`to_state` output.

        A member's configuration drift raises :class:`ParameterError`
        and malformed member state :class:`StoreCorruptError`; either
        message names the member.
        """
        grouped: dict[str, dict[str, np.ndarray]] = {}
        for key, array in state.items():
            name, _, field = key.partition("::")
            grouped.setdefault(name, {})[field] = array
        if grouped.keys() != self.reducers.keys():
            raise ParameterError(
                f"checkpointed members {sorted(grouped)} != "
                f"configured members {sorted(self.reducers)}"
            )
        restored: dict[str, StreamingReducer] = {}
        for name, reducer in self.reducers.items():
            try:
                restored[name] = reducer.from_state(grouped[name])
            except ParameterError as error:
                raise type(error)(f"member {name!r}: {error}") from error
            except (KeyError, IndexError) as error:
                raise StoreCorruptError(
                    f"member {name!r}: malformed state ({error!r})"
                ) from error
        return StreamingReduction(restored)


#: Every shipped :class:`StreamingReducer` implementation.  The GF-CKPT
#: audit check and the checkpoint round-trip property tests walk this
#: registry, so adding a reducer here forces it through the state
#: contract (``to_state``/``from_state``) and its bit-identity tests.
REDUCER_REGISTRY: tuple[type, ...] = (
    MomentsReducer,
    WinCountReducer,
    HistogramReducer,
    ReservoirQuantiles,
    TopKReducer,
    ParetoReducer,
)
