"""Carbon-aware design-space exploration (extension).

The paper positions GreenFPGA next to carbon-aware DSE platforms (its
ref [16]).  This module provides that workflow on top of the lifecycle
models: enumerate a grid of :class:`~repro.config.Parameters` overrides
(fab location, recycled sourcing, grid, duty cycle, node...), assess a
scenario under every configuration, and return the ranked results plus
the Pareto front over user-chosen objectives.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass

from repro.config import Parameters
from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.devices.catalog import DomainSpec, get_domain
from repro.engine import EvaluationEngine, resolve_engine
from repro.engine.engine import build_suite_cached
from repro.engine.vector import (
    ParameterBatch,
    ParetoReducer,
    ScenarioBatch,
    StreamingReduction,
    TopKReducer,
)
from repro.errors import ParameterError


class FrozenOverrides(Mapping):
    """Immutable, hashable mapping of grid overrides.

    Preserves insertion order (the grid's axis order) and supports every
    read-only ``dict`` operation, so existing callers doing
    ``point.overrides["duty_cycle"]`` or ``dict(point.overrides)`` keep
    working — while :class:`DesignPoint` becomes properly hashable.
    """

    __slots__ = ("_items", "_lookup")

    def __init__(self, overrides: "Mapping | Sequence[tuple[str, object]]") -> None:
        items = overrides.items() if isinstance(overrides, Mapping) else overrides
        object.__setattr__(self, "_items", tuple((str(k), v) for k, v in items))
        object.__setattr__(self, "_lookup", dict(self._items))
        if len(self._lookup) != len(self._items):
            raise ParameterError("duplicate override keys in FrozenOverrides")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FrozenOverrides is immutable")

    def __getitem__(self, key: str) -> object:
        return self._lookup[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._lookup)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        # Order-insensitive, matching __eq__: the same configuration
        # reached through grids with different axis order must collide.
        return hash(frozenset(self._items))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mapping):
            return self._lookup == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in self._items)
        return f"FrozenOverrides({body})"


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated configuration of the design space.

    ``overrides`` is normalised to :class:`FrozenOverrides` on
    construction, so points are hashable (usable in sets/dicts) even
    when built from a plain ``dict``.
    """

    overrides: Mapping
    fpga_total_kg: float
    asic_total_kg: float
    ratio: float

    def __post_init__(self) -> None:
        if not isinstance(self.overrides, FrozenOverrides):
            object.__setattr__(self, "overrides", FrozenOverrides(self.overrides))

    @property
    def best_total_kg(self) -> float:
        """CFP of the greener platform under this configuration."""
        return min(self.fpga_total_kg, self.asic_total_kg)

    @property
    def winner(self) -> str:
        """Greener platform under this configuration."""
        return "fpga" if self.ratio < 1.0 else "asic"

    def as_row(self) -> dict[str, object]:
        """Flat row for reporting."""
        row: dict[str, object] = dict(self.overrides)
        row.update(
            {
                "fpga_total_kg": self.fpga_total_kg,
                "asic_total_kg": self.asic_total_kg,
                "ratio": self.ratio,
                "winner": self.winner,
            }
        )
        return row


def _dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """Whether objective vector ``a`` Pareto-dominates ``b`` (minimising)."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


@dataclass(frozen=True)
class DseResult:
    """All evaluated design points, ranked by greenest outcome.

    ``streamed=True`` marks a result built by the streaming reduction
    path: ``points`` then holds only the top-k greenest configurations
    united with the full Pareto front over
    ``(fpga_total_kg, asic_total_kg)`` — :meth:`best` and
    :meth:`pareto_front` *for those default objectives* are exact
    against the materialized grid, while :meth:`ranked` and fronts over
    other objectives see the kept subset only.
    """

    points: tuple[DesignPoint, ...]
    streamed: bool = False

    @classmethod
    def from_stream(
        cls,
        top: TopKReducer,
        pareto: ParetoReducer,
        overrides_at: Callable[[int], Mapping],
    ) -> "DseResult":
        """The streaming-backed constructor.

        Rebuilds :class:`DesignPoint` objects for the union of the
        top-k and Pareto-front rows (deduplicated by grid index, in
        index order), resolving each kept row's overrides through
        ``overrides_at`` — only the kept points ever exist as objects.
        The global front over the default objectives survives the
        truncation exactly: every kept-but-dominated point is dominated
        by a front member, which is also kept.
        """
        rows: dict[int, dict] = {}
        for row in top.rows() + pareto.rows():
            rows.setdefault(row["index"], row)
        points = tuple(
            DesignPoint(
                overrides=FrozenOverrides(overrides_at(index)),
                fpga_total_kg=rows[index]["fpga_total_kg"],
                asic_total_kg=rows[index]["asic_total_kg"],
                ratio=rows[index]["ratio"],
            )
            for index in sorted(rows)
        )
        return cls(points=points, streamed=True)

    def best(self) -> DesignPoint:
        """The configuration with the lowest best-platform CFP."""
        return min(self.points, key=lambda p: p.best_total_kg)

    def ranked(self) -> list[DesignPoint]:
        """Points sorted by best-platform CFP, greenest first."""
        return sorted(self.points, key=lambda p: p.best_total_kg)

    def pareto_front(
        self, objectives: Sequence[str] = ("fpga_total_kg", "asic_total_kg")
    ) -> list[DesignPoint]:
        """Non-dominated points, minimising every named objective.

        Objectives are attribute names of :class:`DesignPoint`.  Runs a
        sort-based pass: after sorting lexicographically by the objective
        vector, any dominator of a point precedes it, so each point only
        needs checking against the front accumulated so far (near-linear
        for typical fronts, versus the quadratic all-pairs scan).
        """
        if not objectives:
            raise ParameterError("objectives must not be empty")

        def values(point: DesignPoint) -> tuple[float, ...]:
            return tuple(float(getattr(point, obj)) for obj in objectives)

        decorated = sorted(
            ((values(p), i, p) for i, p in enumerate(self.points)),
            key=lambda item: (item[0], item[1]),
        )
        front: list[DesignPoint] = []
        front_values: list[tuple[float, ...]] = []
        for vals, _, point in decorated:
            if not any(_dominates(f, vals) for f in front_values):
                front.append(point)
                front_values.append(vals)
        return front


class GridChunkSource:
    """Chunkwise enumeration of a DSE grid — no materialized grid.

    The streaming twin of :func:`_grid_pairs`: combination ``i`` of the
    row-major grid (last axis fastest, matching
    :func:`itertools.product`) is decoded on demand by mixed-radix
    arithmetic, so a chunk materialises only its own comparators and
    parameter rows.  Picklable by construction (domain spec, scenario,
    grid values, base parameters), so spawn workers enumerate and
    evaluate their spans independently; suite construction is memoised
    per process through :func:`build_suite_cached`.
    """

    __slots__ = ("n", "spec", "scenario", "names", "values", "base")

    def __init__(
        self,
        spec: DomainSpec,
        scenario: Scenario,
        grid: Mapping[str, Sequence[object]],
        base: Parameters,
    ) -> None:
        if not grid:
            raise ParameterError("grid must not be empty")
        self.spec = spec
        self.scenario = scenario
        self.names = tuple(grid)
        self.values = tuple(tuple(grid[name]) for name in self.names)
        if any(not axis for axis in self.values):
            raise ParameterError("grid axes must not be empty")
        self.n = math.prod(len(axis) for axis in self.values)
        self.base = base

    def overrides_at(self, index: int) -> dict[str, object]:
        """Grid combination ``index`` in axis order (last axis fastest)."""
        digits: list[object] = []
        for axis in reversed(self.values):
            index, digit = divmod(index, len(axis))
            digits.append(axis[digit])
        return dict(zip(self.names, reversed(digits)))

    def chunk(self, start: int, stop: int) -> tuple[ParameterBatch, ScenarioBatch]:
        fpga_device = self.spec.fpga_device()
        asic_device = self.spec.asic_device()
        comparators = [
            PlatformComparator(
                fpga_device=fpga_device,
                asic_device=asic_device,
                suite=build_suite_cached(
                    self.base.with_overrides(**self.overrides_at(i))
                ),
            )
            for i in range(start, stop)
        ]
        return (
            ParameterBatch.from_comparators(comparators),
            ScenarioBatch.tile(self.scenario, stop - start),
        )


def _grid_pairs(
    domain: "DomainSpec | str",
    scenario: Scenario,
    grid: Mapping[str, Sequence[object]],
    base: Parameters | None,
    engine: EvaluationEngine | None,
) -> tuple[
    EvaluationEngine,
    list[FrozenOverrides],
    list[tuple[PlatformComparator, Scenario]],
]:
    """Enumerate the grid once for both :func:`explore` spellings.

    Returns the resolved engine plus the per-combination overrides and
    (comparator, scenario) pairs, with suite construction memoised
    through the engine.
    """
    if not grid:
        raise ParameterError("grid must not be empty")
    spec = domain if isinstance(domain, DomainSpec) else get_domain(domain)
    base = base if base is not None else Parameters()
    eng = resolve_engine(engine)

    names = list(grid)
    fpga_device = spec.fpga_device()
    asic_device = spec.asic_device()
    all_overrides: list[FrozenOverrides] = []
    pairs: list[tuple[PlatformComparator, Scenario]] = []
    for combo in itertools.product(*(grid[name] for name in names)):
        overrides = dict(zip(names, combo))
        suite = eng.suite_for(base.with_overrides(**overrides))
        comparator = PlatformComparator(
            fpga_device=fpga_device,
            asic_device=asic_device,
            suite=suite,
        )
        all_overrides.append(FrozenOverrides(overrides))
        pairs.append((comparator, scenario))
    return eng, all_overrides, pairs


def explore(
    domain: "DomainSpec | str",
    scenario: Scenario,
    grid: Mapping[str, Sequence[object]],
    base: Parameters | None = None,
    engine: EvaluationEngine | None = None,
) -> DseResult:
    """Evaluate every combination of ``grid`` overrides.

    Args:
        domain: Table 2 domain (or explicit spec) to compare under.
        scenario: Fixed deployment scenario.
        grid: Parameter-name -> candidate values.  Names must be
            :class:`~repro.config.Parameters` fields.
        base: Baseline parameters for everything not in the grid.
        engine: Batch evaluator; the shared default when not given.
            Suite construction per grid point is memoised through the
            engine, and the whole grid is assessed as one batch of
            object-path pairs (cached in the engine's result store).

    Returns:
        A :class:`DseResult` with one point per grid combination.
    """
    eng, all_overrides, pairs = _grid_pairs(domain, scenario, grid, base, engine)
    comparisons = eng.evaluate_pairs(pairs)
    points = tuple(
        DesignPoint(
            overrides=overrides,
            fpga_total_kg=comparison.fpga.footprint.total,
            asic_total_kg=comparison.asic.footprint.total,
            ratio=comparison.ratio,
        )
        for overrides, comparison in zip(all_overrides, comparisons)
    )
    return DseResult(points=points)


def explore_batch(
    domain: "DomainSpec | str",
    scenario: Scenario,
    grid: Mapping[str, Sequence[object]],
    base: Parameters | None = None,
    engine: EvaluationEngine | None = None,
    *,
    reduce: "StreamingReduction | bool | None" = None,
    chunk_rows: "int | None" = None,
    top_k: int = 64,
    workers: "int | None" = None,
) -> DseResult:
    """Array-land :func:`explore`: the grid runs as one kernel batch.

    Grid enumeration and suite memoisation match :func:`explore`, but
    evaluation goes through the parameter-space pipeline — each
    configuration's suite becomes one model-parameter row of a
    :class:`~repro.engine.vector.ParameterBatch`, the sub-models are
    vectorised from the columns, and every row is computed — so no
    ``ComparisonResult`` is materialised per point.  The returned
    :class:`DseResult` carries the same :class:`DesignPoint` objects
    (totals/ratios within ``rtol <= 1e-12`` of :func:`explore`).

    With ``reduce=`` (``True`` for the default top-k + Pareto bundle,
    or a custom :class:`~repro.engine.vector.StreamingReduction` over
    ``top``/``pareto`` members) the grid *streams*: combinations are
    enumerated chunk-by-chunk (multi-core by default, spawn workers
    decoding their own spans), evaluated, and folded into streaming
    top-k and Pareto-front reducers — never materialising the grid, its
    comparators, or the result columns.
    The returned :class:`DseResult` has ``streamed=True`` and holds the
    top-``top_k`` configurations united with the exact Pareto front
    over the default objectives (see :meth:`DseResult.from_stream`).
    """
    if reduce is not None and reduce is not False:
        eng = resolve_engine(engine)
        if not eng.vectorize:
            raise ParameterError("streaming DSE requires vectorize=True")
        spec = domain if isinstance(domain, DomainSpec) else get_domain(domain)
        source = GridChunkSource(
            spec, scenario, grid, base if base is not None else Parameters()
        )
        reduction = (
            reduce if isinstance(reduce, StreamingReduction)
            else StreamingReduction(
                {"top": TopKReducer(k=top_k), "pareto": ParetoReducer()}
            )
        )
        missing = {"top", "pareto"} - reduction.reducers.keys()
        if missing:
            # Checked before streaming, not at result construction.
            raise ParameterError(
                f"streaming DSE reduction is missing members {sorted(missing)}"
            )
        # Grid chunks materialise comparator objects (fatter than pure
        # column rows), so the default chunk is smaller than the
        # Monte-Carlo streaming default.
        merged = eng.reduce_stream(
            source, reduction, chunk_rows=chunk_rows or 8192, workers=workers
        )
        return DseResult.from_stream(
            merged["top"], merged["pareto"], source.overrides_at
        )
    eng, all_overrides, pairs = _grid_pairs(domain, scenario, grid, base, engine)
    batch = eng.evaluate_pairs_batch(pairs)
    points = tuple(
        DesignPoint(
            overrides=overrides,
            fpga_total_kg=float(batch.fpga_totals[i]),
            asic_total_kg=float(batch.asic_totals[i]),
            ratio=float(batch.ratios[i]),
        )
        for i, overrides in enumerate(all_overrides)
    )
    return DseResult(points=points)
