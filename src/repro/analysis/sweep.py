"""One-dimensional scenario sweeps (paper Figs. 4-6).

A sweep varies one scenario axis (``num_apps``, ``lifetime`` or
``volume``), assesses both platforms at every point, and records total
CFPs and ratios ready for crossover analysis and plotting.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.core.comparison import ComparisonResult, PlatformComparator
from repro.core.scenario import Scenario
from repro.engine import BatchResult, EvaluationEngine, ScenarioBatch, resolve_engine
from repro.errors import ParameterError

#: Axes a sweep can vary and how each value is applied to the scenario.
_AXIS_APPLIERS = {
    "num_apps": lambda scenario, value: scenario.with_num_apps(int(value)),
    "lifetime": lambda scenario, value: scenario.with_lifetime(float(value)),
    "volume": lambda scenario, value: scenario.with_volume(int(value)),
}

SWEEP_AXES = tuple(_AXIS_APPLIERS)


def axis_batch(
    base_scenario: Scenario,
    axis_values: "dict[str, np.ndarray]",
) -> ScenarioBatch:
    """Columnise ``base_scenario`` with one or more axes overridden.

    The array-land twin of applying :data:`_AXIS_APPLIERS` per value:
    ``axis_values`` maps axis names (:data:`SWEEP_AXES`) to equal-length
    arrays, every other scenario field rides along from the base.  Over
    a heterogeneous-lifetime base, a ``lifetime`` axis defines every
    row's uniform lifetime and a ``volume`` axis alone keeps the base's
    per-application lifetimes (an ``(n, w)`` block), both as the scalar
    appliers do; a ``num_apps`` axis raises, as
    :meth:`Scenario.with_num_apps` does.
    """
    for axis in axis_values:
        if axis not in _AXIS_APPLIERS:
            raise ParameterError(
                f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}"
            )
    base_lifetimes = base_scenario.lifetimes
    ragged = (
        any(t != base_lifetimes[0] for t in base_lifetimes)
        and "lifetime" not in axis_values
    )
    if ragged and "num_apps" in axis_values:
        raise ParameterError(
            "varying num_apps requires a uniform app lifetime (unless the "
            "lifetime axis is overridden); rebuild the scenario explicitly "
            "for heterogeneous lifetimes"
        )
    num_apps = axis_values.get("num_apps", base_scenario.num_apps)
    lifetime = axis_values.get("lifetime", base_lifetimes[0])
    # The volume axis truncates like its scalar applier; a base volume
    # rides along as is, fractional or not.
    volume = (
        np.asarray(axis_values["volume"], dtype=np.int64)
        if "volume" in axis_values else base_scenario.volume
    )
    batch = ScenarioBatch.from_arrays(
        num_apps=np.asarray(num_apps, dtype=np.int64),
        lifetime=np.asarray(lifetime, dtype=np.float64),
        volume=volume,
        evaluation_years=base_scenario.evaluation_years,
        app_size_mgates=base_scenario.app_size_mgates,
        enforce_chip_lifetime=base_scenario.enforce_chip_lifetime,
    )
    if ragged:
        batch = replace(
            batch, lifetime=ScenarioBatch.tile(base_scenario, batch.size).lifetime
        )
    return batch


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a one-dimensional sweep.

    Attributes:
        axis: Which scenario axis was varied.
        values: Axis values, in sweep order.
        comparisons: Full comparison at each axis value.
    """

    axis: str
    values: tuple[float, ...]
    comparisons: tuple[ComparisonResult, ...]

    @property
    def fpga_totals(self) -> tuple[float, ...]:
        """FPGA total CFP at each point (kg)."""
        return tuple(c.fpga.footprint.total for c in self.comparisons)

    @property
    def asic_totals(self) -> tuple[float, ...]:
        """ASIC total CFP at each point (kg)."""
        return tuple(c.asic.footprint.total for c in self.comparisons)

    @property
    def ratios(self) -> tuple[float, ...]:
        """FPGA:ASIC ratio at each point."""
        return tuple(c.ratio for c in self.comparisons)

    def winner_at(self, index: int) -> str:
        """Winning platform at sweep point ``index``."""
        return self.comparisons[index].winner

    def rows(self) -> list[dict[str, float | str]]:
        """Flat per-point rows for reporting/CSV."""
        out: list[dict[str, float | str]] = []
        for value, comparison in zip(self.values, self.comparisons):
            row: dict[str, float | str] = {self.axis: value}
            row.update(comparison.summary())
            out.append(row)
        return out


def sweep(
    comparator: PlatformComparator,
    base_scenario: Scenario,
    axis: str,
    values: Sequence[float],
    engine: EvaluationEngine | None = None,
) -> SweepResult:
    """Assess both platforms across ``values`` of one scenario axis.

    Args:
        comparator: Device pair + model suite to assess.
        base_scenario: Scenario whose other axes stay fixed.
        axis: One of :data:`SWEEP_AXES`.
        values: Axis values to visit (any order; preserved).
        engine: Batch evaluator; the shared default (with its cache)
            when not given.

    Raises:
        ParameterError: for an unknown axis or empty values.
    """
    if axis not in _AXIS_APPLIERS:
        raise ParameterError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if not values:
        raise ParameterError("sweep values must not be empty")
    apply_axis = _AXIS_APPLIERS[axis]
    comparisons = resolve_engine(engine).evaluate_many(
        comparator, (apply_axis(base_scenario, value) for value in values)
    )
    return SweepResult(
        axis=axis,
        values=tuple(float(v) for v in values),
        comparisons=comparisons,
    )


@dataclass(frozen=True)
class SweepBatch:
    """Array-land outcome of a one-dimensional sweep.

    The batch twin of :class:`SweepResult`: per-point quantities are
    NumPy arrays read straight off the vector kernel, and no
    :class:`ComparisonResult` is materialised anywhere.

    Attributes:
        axis: Which scenario axis was varied.
        values: Axis values, in sweep order (any order is preserved,
            including descending and single-point axes).
        batch: Full :class:`BatchResult` with totals, winners and
            per-component breakdowns.
    """

    axis: str
    values: np.ndarray
    batch: BatchResult

    @property
    def ratios(self) -> np.ndarray:
        """FPGA:ASIC ratio at each point."""
        return self.batch.ratios

    @property
    def fpga_totals(self) -> np.ndarray:
        """FPGA total CFP at each point (kg)."""
        return self.batch.fpga_totals

    @property
    def asic_totals(self) -> np.ndarray:
        """ASIC total CFP at each point (kg)."""
        return self.batch.asic_totals

    @property
    def winners(self) -> np.ndarray:
        """Winning platform at each point (``"fpga"`` / ``"asic"``)."""
        return self.batch.winners


def sweep_columns(
    base_scenario: Scenario, axis: str, values: Sequence[float]
) -> ScenarioBatch:
    """Validated scenario columns for a one-axis sweep.

    The column builder behind :func:`sweep_batch`; callers that
    evaluate the batch elsewhere build — and therefore digest and
    cache — the same batch through it.
    """
    if axis not in _AXIS_APPLIERS:
        raise ParameterError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    if len(values) == 0:
        raise ParameterError("sweep values must not be empty")
    return axis_batch(base_scenario, {axis: np.asarray(values)})


def sweep_batch(
    comparator: PlatformComparator,
    base_scenario: Scenario,
    axis: str,
    values: Sequence[float],
    engine: EvaluationEngine | None = None,
) -> SweepBatch:
    """Array-land :func:`sweep`: one kernel call, no per-point objects.

    Results agree with :func:`sweep` bit-for-bit (the kernel mirrors the
    scalar arithmetic); use this entry point when only the arrays are
    wanted — dense axes, service endpoints, benchmark loops.  Points are
    cached in (and served from) the engine's result store, so
    sweeps share warmth with every other analysis.
    """
    batch = sweep_columns(base_scenario, axis, values)
    result = resolve_engine(engine).evaluate_batch(comparator, batch)
    return SweepBatch(
        axis=axis,
        values=np.asarray(values, dtype=np.float64),
        batch=result,
    )
