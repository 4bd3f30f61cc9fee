"""Monte-Carlo uncertainty propagation over Table 1 parameter ranges.

The paper's Section 5 stresses that inputs are uncertain (proprietary
yields, project durations, coarse sustainability reports).  This module
samples scenario-level model knobs from user-declared distributions and
reports the induced distribution of the FPGA:ASIC ratio — including the
probability that the FPGA is the greener platform.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.engine import EvaluationEngine, resolve_engine
from repro.engine.vector import (
    DEFAULT_RESERVOIR_K,
    REDUCE_BLOCK,
    Checkpoint,
    HistogramReducer,
    MomentsReducer,
    MonteCarloChunkSource,
    ParameterBatch,
    ReservoirQuantiles,
    ScenarioBatch,
    StreamingReduction,
    WinCountReducer,
    extract_row,
)
from repro.errors import ParameterError


@dataclass(frozen=True)
class ParameterDistribution:
    """One uncertain model knob.

    Attributes:
        name: Knob label (reported in results).
        low / high: Range bounds (Table 1 style).
        apply: Callback ``(comparator, value) -> PlatformComparator``
            returning a comparator with the knob set to ``value``.
        kind: ``"uniform"`` or ``"loguniform"`` sampling over the range.
        apply_column: Optional vectorised twin of ``apply``: callback
            ``(params, values) -> None`` writing the knob's parameter
            columns of a whole draw batch (one
            :meth:`~repro.engine.vector.ParameterBatch.set_col` call per
            affected column).  When every distribution of a Monte-Carlo
            study provides one, :func:`monte_carlo_batch` runs fully
            columnar — no per-draw comparator objects exist at all.  The
            callback must perturb exactly what ``apply`` perturbs
            (results are cross-checked to ``rtol <= 1e-12`` in tests).
    """

    name: str
    low: float
    high: float
    apply: Callable[[PlatformComparator, float], PlatformComparator]
    kind: str = "uniform"
    apply_column: "Callable[[ParameterBatch, np.ndarray], None] | None" = None

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ParameterError(f"{self.name}: high < low")
        if self.kind not in ("uniform", "loguniform"):
            raise ParameterError(f"{self.name}: unknown sampling kind {self.kind!r}")
        if self.kind == "loguniform" and self.low <= 0.0:
            raise ParameterError(f"{self.name}: loguniform requires low > 0")

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one value from this distribution."""
        if self.kind == "loguniform":
            return float(np.exp(rng.uniform(np.log(self.low), np.log(self.high))))
        return float(rng.uniform(self.low, self.high))

    def column_from_uniform(
        self, u: np.ndarray, out: "np.ndarray | None" = None
    ) -> np.ndarray:
        """Map unit-interval draws onto this distribution, vectorised.

        Applies the same affine (or log-affine) transform NumPy's
        ``Generator.uniform`` applies to its underlying unit doubles, so
        a column built from ``rng.random(n)`` is bit-identical to ``n``
        sequential :meth:`sample` calls on the same generator state.

        ``out`` recycles a caller-owned buffer for the result (the
        streaming chunk source reuses per-thread columns to avoid
        megabyte allocations per chunk); the transform itself runs
        in place either way — same operations, same operand order,
        bit-identical values, one temporary instead of three.
        """
        u = np.asarray(u, dtype=np.float64)
        if self.kind == "loguniform":
            log_low, log_high = np.log(self.low), np.log(self.high)
            out = np.multiply(log_high - log_low, u, out=out)
            np.add(log_low, out, out=out)
            return np.exp(out, out=out)
        out = np.multiply(self.high - self.low, u, out=out)
        np.add(self.low, out, out=out)
        return out


def sample_value_columns(
    distributions: Sequence[ParameterDistribution],
    rng: np.random.Generator,
    n: int,
) -> list[np.ndarray]:
    """Sample every distribution as a column, draw-major.

    Consumes the generator exactly like the historical per-draw loop
    (draw 0 samples every distribution in order, then draw 1, ...), so
    seeded columnar runs reproduce the scalar path's draws bit-for-bit
    — one matrix fill instead of ``n x len(distributions)`` scalar
    calls.  Returns one value column per distribution, in order.
    """
    u = rng.random((n, len(distributions)))
    return [
        dist.column_from_uniform(u[:, j])
        for j, dist in enumerate(distributions)
    ]


class ColumnSamples(Sequence):
    """Per-draw sample dicts, materialised lazily from value columns.

    Behaves like the tuple-of-dicts the scalar path records (length,
    indexing, slicing, equality against any sequence of mappings) while
    storing only the underlying NumPy columns — a million-draw study
    carries a few arrays, not a million dicts.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Mapping[str, np.ndarray]) -> None:
        self._columns = dict(columns)

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """The name -> value-column mapping behind the sequence."""
        return self._columns

    def __len__(self) -> int:
        if not self._columns:
            return 0
        return int(next(iter(self._columns.values())).shape[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(
                self[i] for i in range(*index.indices(len(self)))
            )
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        return {
            name: float(column[index])
            for name, column in self._columns.items()
        }

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnSamples):
            return self._columns.keys() == other._columns.keys() and all(
                np.array_equal(self._columns[k], other._columns[k])
                for k in self._columns
            )
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(
                self[i] == other[i] for i in range(len(self))
            )
        return NotImplemented

    __hash__ = None  # mutable columns; mirror list/dict semantics

    def __repr__(self) -> str:
        return (
            f"ColumnSamples(n={len(self)}, names={sorted(self._columns)})"
        )


def quantiles_from_sorted(
    sorted_values: np.ndarray, qs: Sequence[float]
) -> np.ndarray:
    """Linear-method quantiles of an already-sorted array, O(len(qs)).

    Reproduces ``np.quantile(values, qs)`` (default ``linear``
    interpolation) bit-for-bit — including NumPy's ``gamma >= 0.5``
    lerp rewrite that keeps the result monotone — without the O(n)
    partition per call, so cached-sort consumers get constant-time
    quantiles.
    """
    q = np.asarray(qs, dtype=np.float64)
    if q.size and (q.min() < 0.0 or q.max() > 1.0):
        raise ValueError("Quantiles must be in the range [0, 1]")
    n = sorted_values.shape[0]
    virtual = q * (n - 1)
    previous = np.clip(np.floor(virtual).astype(np.intp), 0, n - 1)
    following = np.minimum(previous + 1, n - 1)
    gamma = virtual - previous
    a = sorted_values[previous]
    b = sorted_values[following]
    diff = b - a
    result = a + diff * gamma
    fix = gamma >= 0.5
    result[fix] = b[fix] - diff[fix] * (1.0 - gamma[fix])
    return result


@dataclass(frozen=True)
class MonteCarloResult:
    """Sampled distribution of the FPGA:ASIC ratio.

    ``winners`` (when provided by :func:`monte_carlo` /
    :func:`monte_carlo_batch`) carries the totals-based per-draw winner,
    which stays correct even where the ratio's sign stops tracking the
    greener platform (credit-negative ASIC totals).

    ``samples`` is a per-draw sequence of ``{knob: value}`` dicts — an
    eager tuple on the object path, a lazy :class:`ColumnSamples` view
    on the columnar path.  Columnar results additionally expose the raw
    value columns via ``sample_columns`` for array-land consumers.
    """

    ratios: np.ndarray
    samples: Sequence[dict[str, float]]
    winners: np.ndarray | None = None
    sample_columns: "Mapping[str, np.ndarray] | None" = None

    @property
    def n_samples(self) -> int:
        """Number of Monte-Carlo draws."""
        return int(self.ratios.size)

    def _cached(self, name: str, compute) -> np.ndarray:
        """Lazily computed per-instance cache slot (frozen-safe).

        ``ratios`` is treated as immutable once a result is built, so
        derived views (the finite subset, its sort) are computed once
        and reused — ``summary()``/``quantiles()`` on a 100M-draw result
        cost one sort total, not one per call.
        """
        value = self.__dict__.get(name)
        if value is None:
            value = compute()
            object.__setattr__(self, name, value)
        return value

    @property
    def finite_ratios(self) -> np.ndarray:
        """Draws with a finite ratio (degenerate zero-ASIC totals excluded)."""
        return self._cached(
            "_finite_ratios", lambda: self.ratios[np.isfinite(self.ratios)]
        )

    @property
    def sorted_finite_ratios(self) -> np.ndarray:
        """The finite draws sorted ascending, computed once and cached.

        Every :meth:`quantiles`/:meth:`summary` call used to re-reduce
        the full ratio array; with the sort cached they are O(#quantiles)
        after the first call.  Treat the returned array as read-only.
        """
        return self._cached(
            "_sorted_finite", lambda: np.sort(self.finite_ratios)
        )

    @property
    def n_non_finite(self) -> int:
        """Draws whose ratio is ``+/-inf``/``nan`` (zero ASIC totals).

        Excluded from :meth:`quantiles` and :meth:`summary` moments; they
        still count toward :attr:`fpga_win_probability`.
        """
        return int(self.ratios.size - self.finite_ratios.size)

    @property
    def fpga_win_probability(self) -> float:
        """Fraction of draws where the FPGA is the greener platform.

        Decided on :attr:`winners` (totals-based, matching
        :attr:`ComparisonResult.winner`) when the result carries them,
        which stays correct even for draws whose ASIC total goes
        credit-negative and inverts the quotient's sign.  Without
        winners the ``ratio < 1`` proxy applies, robust to non-finite
        ratios per :attr:`ComparisonResult.ratio`'s edge semantics:
        ``-inf`` (negative FPGA total against a zero ASIC total) is a
        decisive FPGA win, while ``+inf`` and ``nan`` count as draws the
        FPGA did *not* win — the probability stays well-defined either
        way.
        """
        if self.winners is not None:
            wins = int(np.count_nonzero(self.winners == "fpga"))
        else:
            wins = int(np.count_nonzero(self.ratios < 1.0))
        return wins / self.ratios.size

    def quantiles(self, qs: Sequence[float] = (0.05, 0.25, 0.5, 0.75, 0.95)) -> dict[float, float]:
        """Requested quantiles over the finite ratio draws.

        Values are bit-identical to ``np.quantile`` (linear method) but
        interpolated from :attr:`sorted_finite_ratios`, so repeated
        calls never re-sort or re-partition the draw array.
        All-non-finite distributions return ``nan`` for every quantile
        rather than raising.
        """
        finite = self.sorted_finite_ratios
        if finite.size == 0:
            return {float(q): float("nan") for q in qs}
        values = quantiles_from_sorted(finite, qs)
        return {float(q): float(v) for q, v in zip(qs, values)}

    def summary(self) -> dict[str, float]:
        """Flat summary for reporting (moments over finite draws)."""
        quantiles = self.quantiles()
        finite = self.finite_ratios
        mean = (
            float(self._cached("_ratio_mean", lambda: np.mean(finite)))
            if finite.size else float("nan")
        )
        return {
            "n_samples": float(self.n_samples),
            "fpga_win_probability": self.fpga_win_probability,
            "ratio_mean": mean,
            "ratio_p05": quantiles[0.05],
            "ratio_p50": quantiles[0.5],
            "ratio_p95": quantiles[0.95],
        }


@dataclass(frozen=True)
class StreamingMonteCarloResult:
    """Bounded-memory summary of a streamed Monte-Carlo study.

    The streaming twin of :class:`MonteCarloResult`: built by
    :func:`monte_carlo_batch` in ``reduce=`` mode (or
    :func:`monte_carlo_stream`) from merged
    :class:`~repro.engine.vector.StreamingReduction` partials, it holds
    a few counters, the exact online moments and a quantile sketch —
    never the per-draw ratio array — so a 100M-draw study summarises in
    the same footprint as a 100k-draw one.

    Fidelity contract versus the materialized path over the same seeded
    draws: ``n_samples``/``n_non_finite``/``fpga_win_probability`` are
    *exact* (integer counters), the moments are bit-reproducible across
    chunk sizes and worker counts and match ``np.mean`` within
    ``rtol <= 1e-12``, and :meth:`quantiles` are exact while
    :attr:`quantile_exact` holds (finite draws fit the sketch) and
    carry ``~sqrt(q(1-q)/quantile_k)`` rank error beyond that.
    """

    n_samples: int
    n_finite: int
    fpga_wins: int
    ratio_mean: float
    ratio_var: float
    ratio_min: float
    ratio_max: float
    #: Sorted finite-ratio sample kept by the reservoir sketch.
    quantile_sample: np.ndarray
    quantile_exact: bool
    quantile_k: int
    #: Optional fixed-bin histogram: ``(counts, edges)`` arrays.
    histogram: "tuple[np.ndarray, np.ndarray] | None" = None

    @classmethod
    def from_reduction(
        cls, reduction: StreamingReduction
    ) -> "StreamingMonteCarloResult":
        """Summarise merged ``moments``/``wins``/``quantiles`` reducers.

        The streaming-backed constructor: expects the members built by
        :func:`monte_carlo_reduction` (an optional ``histogram`` member
        is carried through when present).
        """
        moments = reduction["moments"].moments()
        wins = reduction["wins"]
        sketch = reduction["quantiles"]
        hist = reduction.reducers.get("histogram")
        return cls(
            n_samples=wins.n,
            n_finite=int(moments["n_finite"]),
            fpga_wins=wins.fpga_wins,
            ratio_mean=moments["mean"],
            ratio_var=moments["var"],
            ratio_min=moments["min"],
            ratio_max=moments["max"],
            quantile_sample=sketch.sample(),
            quantile_exact=sketch.exact,
            quantile_k=sketch.k,
            histogram=None if hist is None else (hist.counts.copy(),
                                                 hist.edges),
        )

    @property
    def n_non_finite(self) -> int:
        """Draws whose ratio is ``+/-inf``/``nan`` (zero ASIC totals)."""
        return self.n_samples - self.n_finite

    @property
    def fpga_win_probability(self) -> float:
        """Fraction of draws the FPGA won — exact (totals-based counter)."""
        return self.fpga_wins / self.n_samples

    def quantiles(
        self, qs: Sequence[float] = (0.05, 0.25, 0.5, 0.75, 0.95)
    ) -> dict[float, float]:
        """Requested quantiles over the sketch's finite-ratio sample."""
        if self.quantile_sample.shape[0] == 0:
            return {float(q): float("nan") for q in qs}
        values = quantiles_from_sorted(self.quantile_sample, qs)
        return {float(q): float(v) for q, v in zip(qs, values)}

    def summary(self) -> dict[str, float]:
        """Flat summary, same keys as :meth:`MonteCarloResult.summary`."""
        quantiles = self.quantiles()
        return {
            "n_samples": float(self.n_samples),
            "fpga_win_probability": self.fpga_win_probability,
            "ratio_mean": self.ratio_mean,
            "ratio_p05": quantiles[0.05],
            "ratio_p50": quantiles[0.5],
            "ratio_p95": quantiles[0.95],
        }


def monte_carlo_reduction(
    *,
    seed: int = 2024,
    quantile_k: int = DEFAULT_RESERVOIR_K,
    block: int = REDUCE_BLOCK,
    histogram: "tuple[float, float, int] | None" = None,
) -> StreamingReduction:
    """The default reducer bundle of a streamed Monte-Carlo study.

    Exact win counters, block-partial online moments and a
    deterministic bottom-k quantile sketch (seeded with the study seed,
    so re-runs reproduce the sketch bit-for-bit); pass
    ``histogram=(lo, hi, bins)`` to additionally stream a fixed-bin
    ratio histogram.
    """
    reducers: dict = {
        "moments": MomentsReducer(block=block),
        "wins": WinCountReducer(),
        "quantiles": ReservoirQuantiles(k=quantile_k, seed=seed),
    }
    if histogram is not None:
        lo, hi, bins = histogram
        reducers["histogram"] = HistogramReducer(lo, hi, bins)
    return StreamingReduction(reducers)


def _validate_study(
    distributions: Sequence[ParameterDistribution], n_samples: int
) -> None:
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    if not distributions:
        raise ParameterError("at least one ParameterDistribution is required")


def _resolve_seed(seed: "int | None", allow_unseeded: bool) -> int:
    """Resolve a study seed, forcing unseeded runs to be an explicit opt-in.

    Every Monte-Carlo entry point is seeded by default so results are
    reproducible by construction.  ``seed=None`` is only honoured when
    the caller passes ``allow_unseeded=True``; the opt-in still resolves
    to one concrete entropy-drawn integer up front, so the draw RNG, the
    per-chunk streaming RNGs and the quantile sketch all share a single
    seed and the (irreproducible) run stays internally consistent.
    """
    if seed is not None:
        return int(seed)
    if not allow_unseeded:
        raise ParameterError(
            "seed=None would make the study irreproducible; pass "
            "allow_unseeded=True to opt in explicitly (one fresh entropy "
            "seed is then drawn for the whole study)"
        )
    return int(np.random.SeedSequence().entropy) % 2**32


def _draw_pairs(
    comparator: PlatformComparator,
    scenario: Scenario,
    distributions: Sequence[ParameterDistribution],
    n_samples: int,
    seed: int,
) -> tuple[tuple[dict[str, float], ...], list[tuple[PlatformComparator, Scenario]]]:
    """Sample every draw up-front: ``(samples, (comparator, scenario) pairs)``.

    One body shared by :func:`monte_carlo` and :func:`monte_carlo_batch`
    so the RNG consumption order — the reproducibility contract between
    them — can never drift apart.
    """
    _validate_study(distributions, n_samples)
    rng = np.random.default_rng(seed)
    samples: list[dict[str, float]] = []
    pairs: list[tuple[PlatformComparator, Scenario]] = []
    for _ in range(n_samples):
        drawn: dict[str, float] = {}
        perturbed = comparator
        for dist in distributions:
            value = dist.sample(rng)
            drawn[dist.name] = value
            perturbed = dist.apply(perturbed, value)
        samples.append(drawn)
        pairs.append((perturbed, scenario))
    return tuple(samples), pairs


def monte_carlo(
    comparator: PlatformComparator,
    scenario: Scenario,
    distributions: Sequence[ParameterDistribution],
    n_samples: int = 500,
    seed: "int | None" = 2024,
    engine: EvaluationEngine | None = None,
    *,
    allow_unseeded: bool = False,
) -> MonteCarloResult:
    """Propagate parameter uncertainty into the FPGA:ASIC ratio.

    All draws are sampled up-front (the RNG consumption order is
    identical to the historical per-draw loop, so seeded results are
    bit-for-bit reproducible across versions) and then assessed as one
    batch through ``engine`` — duplicate perturbations and draws shared
    with other analyses hit the cache, and ``workers`` parallelise the
    rest.

    Args:
        comparator: Baseline device pair + suite.
        scenario: Fixed deployment scenario.
        distributions: Knobs to perturb each draw.
        n_samples: Number of draws.
        seed: RNG seed (results are reproducible by construction).
            ``None`` requires ``allow_unseeded=True``.
        engine: Batch evaluator; the shared default when not given.
        allow_unseeded: Explicit opt-in for ``seed=None`` — one fresh
            entropy seed is then drawn for the whole study.
    """
    seed = _resolve_seed(seed, allow_unseeded)
    samples, pairs = _draw_pairs(comparator, scenario, distributions,
                                 n_samples, seed)
    comparisons = resolve_engine(engine).evaluate_pairs(pairs)
    ratios = np.array([c.ratio for c in comparisons], dtype=float)
    winners = np.array([c.winner for c in comparisons])
    return MonteCarloResult(ratios=ratios, samples=samples, winners=winners)


def _columnar_study(
    engine: EvaluationEngine,
    distributions: Sequence[ParameterDistribution],
) -> bool:
    """Whether the study can run without per-draw comparator objects."""
    return bool(
        engine.vectorize
        and distributions
        and all(d.apply_column is not None for d in distributions)
    )


def monte_carlo_batch(
    comparator: PlatformComparator,
    scenario: Scenario,
    distributions: Sequence[ParameterDistribution],
    n_samples: int = 500,
    seed: "int | None" = 2024,
    engine: EvaluationEngine | None = None,
    *,
    reduce: "StreamingReduction | bool | None" = None,
    chunk_rows: "int | None" = None,
    workers: "int | None" = None,
    checkpoint: "Checkpoint | None" = None,
    allow_unseeded: bool = False,
) -> "MonteCarloResult | StreamingMonteCarloResult":
    """Array-land :func:`monte_carlo`: the draws run as one kernel batch.

    Sampling (RNG consumption order included) is identical to
    :func:`monte_carlo` — seeded columnar runs reproduce the scalar
    draws bit-for-bit — but evaluation is columnar end to end:

    * When every distribution provides an ``apply_column`` callback,
      the draws are sampled
      straight into value columns, written onto a base-plus-overrides
      :class:`~repro.engine.vector.ParameterBatch`, and evaluated
      through :meth:`EvaluationEngine.evaluate_param_batch` — no
      per-draw comparator objects, no per-row extraction, no per-row
      digests.  Huge batches are chunked across cores by the engine,
      and batches that fit the result store are cached under
      vectorised column-fold digests (a re-run of the same seeded study
      is pure gather).
    * Otherwise each draw's perturbed comparator is materialised and
      decomposed into parameter columns per row (the compatibility
      path) — still one fused kernel batch.

    Ratios agree with the scalar path to ``rtol <= 1e-12`` either way.
    Columnar results carry :class:`ColumnSamples` (lazy per-draw dicts)
    plus the raw ``sample_columns`` arrays.

    With ``reduce=`` (``True`` for the default
    :func:`monte_carlo_reduction`, or a custom
    :class:`~repro.engine.vector.StreamingReduction` prototype) the
    study streams instead: draws are generated chunk-by-chunk from
    seeded per-chunk RNG streams that bit-reproduce this function's
    sequential draw order, evaluated, and folded into the reducers —
    never materialising more than ``chunk_rows`` rows per worker, multi-
    core by default (``workers``), bypassing the result store — and a
    :class:`StreamingMonteCarloResult` is returned.  Streaming requires
    the fully columnar path (every distribution with ``apply_column``
    and ``vectorize=True``); anything else
    raises rather than silently materialising a 100M-row batch.

    ``checkpoint=`` (a :class:`~repro.engine.vector.Checkpoint`, only
    valid with ``reduce=``) makes the streamed study durable: merged
    reducer partials persist atomically on the configured cadence, and
    rerunning the same seeded study against the same checkpoint path
    resumes from the completed units — the final summary is
    bit-identical to an uninterrupted run.

    ``seed=None`` requires the explicit ``allow_unseeded=True`` opt-in
    (see :func:`monte_carlo`).
    """
    seed = _resolve_seed(seed, allow_unseeded)
    eng = resolve_engine(engine)
    columnar = _columnar_study(eng, distributions)
    if checkpoint is not None and (reduce is None or reduce is False):
        raise ParameterError(
            "checkpoint= requires the streaming path (pass reduce=)"
        )
    if reduce is not None and reduce is not False:
        if not columnar:
            raise ParameterError(
                "streaming Monte-Carlo requires vectorize=True and "
                "apply_column on every distribution"
            )
        _validate_study(distributions, n_samples)
        reduction = (
            reduce if isinstance(reduce, StreamingReduction)
            else monte_carlo_reduction(seed=seed)
        )
        missing = {"moments", "wins", "quantiles"} - reduction.reducers.keys()
        if missing:
            # Checked before streaming: discovering this at result
            # construction would throw away hours of 100M-draw work.
            raise ParameterError(
                "streaming Monte-Carlo reduction is missing members "
                f"{sorted(missing)} (see monte_carlo_reduction)"
            )
        source = MonteCarloChunkSource(
            np.asarray(extract_row(comparator), dtype=np.float64),
            tuple(distributions), seed, scenario, n_samples,
        )
        merged = eng.reduce_stream(
            source, reduction, chunk_rows=chunk_rows, workers=workers,
            checkpoint=checkpoint,
        )
        return StreamingMonteCarloResult.from_reduction(merged)
    if not columnar:
        samples, pairs = _draw_pairs(comparator, scenario, distributions,
                                     n_samples, seed)
        batch = eng.evaluate_pairs_batch(pairs)
        return MonteCarloResult(ratios=batch.ratios, samples=samples,
                                winners=batch.winners)

    _validate_study(distributions, n_samples)
    rng = np.random.default_rng(seed)
    value_columns = sample_value_columns(distributions, rng, n_samples)
    params = ParameterBatch.from_comparator(comparator, n_samples)
    for dist, values in zip(distributions, value_columns):
        dist.apply_column(params, values)
    batch = ScenarioBatch.tile(scenario, n_samples)
    result = eng.evaluate_param_batch(params, batch)
    columns = {
        dist.name: values
        for dist, values in zip(distributions, value_columns)
    }
    return MonteCarloResult(
        ratios=result.ratios,
        samples=ColumnSamples(columns),
        winners=result.winners,
        sample_columns=columns,
    )


def monte_carlo_stream(
    comparator: PlatformComparator,
    scenario: Scenario,
    distributions: Sequence[ParameterDistribution],
    n_samples: int = 500,
    seed: "int | None" = 2024,
    engine: EvaluationEngine | None = None,
    *,
    chunk_rows: "int | None" = None,
    workers: "int | None" = None,
    quantile_k: int = DEFAULT_RESERVOIR_K,
    checkpoint: "Checkpoint | Path | str | None" = None,
    checkpoint_every: "int | None" = None,
    allow_unseeded: bool = False,
) -> StreamingMonteCarloResult:
    """Out-of-core :func:`monte_carlo_batch`: bounded memory at any scale.

    Sugar for ``monte_carlo_batch(..., reduce=...)`` with the default
    reducer bundle sized by ``quantile_k``.  Peak memory is
    ``O(chunk_rows)`` per worker regardless of ``n_samples``, and the
    summary is bit-identical for any chunk size and worker count; see
    :class:`StreamingMonteCarloResult` for the fidelity contract
    against the materialized path.

    ``checkpoint=`` accepts a ready
    :class:`~repro.engine.vector.Checkpoint` or a bare path (with
    ``checkpoint_every`` rows per durable unit); a SIGKILLed run rerun
    with the same arguments resumes from the checkpoint and finishes to
    the exact uninterrupted summary.

    ``seed=None`` requires the explicit ``allow_unseeded=True`` opt-in
    (see :func:`monte_carlo`).
    """
    seed = _resolve_seed(seed, allow_unseeded)
    if checkpoint is not None and not isinstance(checkpoint, Checkpoint):
        checkpoint = Checkpoint(Path(checkpoint), every_rows=checkpoint_every)
    elif checkpoint is None and checkpoint_every is not None:
        raise ParameterError("checkpoint_every requires checkpoint=")
    return monte_carlo_batch(
        comparator, scenario, distributions, n_samples=n_samples, seed=seed,
        engine=engine, chunk_rows=chunk_rows, workers=workers,
        reduce=monte_carlo_reduction(seed=seed, quantile_k=quantile_k),
        checkpoint=checkpoint,
    )
