"""Pairwise-sweep heatmaps of the FPGA:ASIC CFP ratio (paper Fig. 8).

Two scenario axes vary while the third stays at its baseline; each cell
holds the ratio, and the iso-ratio = 1 contour is the sustainability
boundary the paper marks with pink dashes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.analysis.sweep import SWEEP_AXES, _AXIS_APPLIERS, axis_batch
from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.engine import EvaluationEngine, ScenarioBatch, resolve_engine
from repro.errors import ParameterError


@dataclass(frozen=True)
class HeatmapResult:
    """Grid of FPGA:ASIC ratios over two scenario axes.

    Attributes:
        x_axis / y_axis: Varied axes (x varies along columns).
        x_values / y_values: Grid coordinates.
        ratios: 2-D array, ``ratios[i, j]`` at ``(y_values[i], x_values[j])``.
    """

    x_axis: str
    y_axis: str
    x_values: tuple[float, ...]
    y_values: tuple[float, ...]
    ratios: np.ndarray

    def fpga_sustainable_mask(self) -> np.ndarray:
        """Boolean grid, True where the FPGA is the greener platform."""
        return self.ratios < 1.0

    def boundary_cells(self) -> list[tuple[int, int]]:
        """Grid cells adjacent to the ratio = 1 contour.

        A cell is on the boundary when any 4-neighbour is on the other
        side of ratio 1 — a discrete version of the paper's pink dashes.
        """
        mask = self.fpga_sustainable_mask()
        cells: list[tuple[int, int]] = []
        n_rows, n_cols = mask.shape
        for i in range(n_rows):
            for j in range(n_cols):
                neighbours = []
                if i > 0:
                    neighbours.append(mask[i - 1, j])
                if i + 1 < n_rows:
                    neighbours.append(mask[i + 1, j])
                if j > 0:
                    neighbours.append(mask[i, j - 1])
                if j + 1 < n_cols:
                    neighbours.append(mask[i, j + 1])
                if any(n != mask[i, j] for n in neighbours):
                    cells.append((i, j))
        return cells

    def rows(self) -> list[dict[str, float]]:
        """Flat per-cell rows for CSV export."""
        out: list[dict[str, float]] = []
        for i, y in enumerate(self.y_values):
            for j, x in enumerate(self.x_values):
                out.append(
                    {self.x_axis: x, self.y_axis: y, "ratio": float(self.ratios[i, j])}
                )
        return out


def pairwise_heatmap(
    comparator: PlatformComparator,
    base_scenario: Scenario,
    x_axis: str,
    x_values: Sequence[float],
    y_axis: str,
    y_values: Sequence[float],
    engine: EvaluationEngine | None = None,
) -> HeatmapResult:
    """Compute the FPGA:ASIC ratio over a 2-D grid of scenario axes.

    The grid is evaluated as one batch through ``engine`` (the shared
    default when not given), so overlapping panels — e.g. the Fig. 8
    triple, whose baselines share a whole row/column of cells — reuse
    cached assessments instead of recomputing them.
    """
    for axis in (x_axis, y_axis):
        if axis not in _AXIS_APPLIERS:
            raise ParameterError(
                f"unknown heatmap axis {axis!r}; expected one of {SWEEP_AXES}"
            )
    if x_axis == y_axis:
        raise ParameterError("heatmap axes must differ")
    if not x_values or not y_values:
        raise ParameterError("heatmap axis values must not be empty")

    apply_x = _AXIS_APPLIERS[x_axis]
    apply_y = _AXIS_APPLIERS[y_axis]
    scenarios = [
        apply_x(apply_y(base_scenario, y), x) for y in y_values for x in x_values
    ]
    comparisons = resolve_engine(engine).evaluate_many(comparator, scenarios)
    ratios = np.array([c.ratio for c in comparisons], dtype=float).reshape(
        (len(y_values), len(x_values))
    )
    return HeatmapResult(
        x_axis=x_axis,
        y_axis=y_axis,
        x_values=tuple(float(v) for v in x_values),
        y_values=tuple(float(v) for v in y_values),
        ratios=ratios,
    )


def heatmap_columns(
    base_scenario: Scenario,
    x_axis: str,
    x_values: Sequence[float],
    y_axis: str,
    y_values: Sequence[float],
) -> ScenarioBatch:
    """Validated scenario columns for a full 2-D heatmap grid.

    The column builder behind :func:`pairwise_heatmap_batch`; callers
    that evaluate the batch elsewhere build the same batch through it
    (x varies fastest, matching the scalar nesting).
    """
    for axis in (x_axis, y_axis):
        if axis not in _AXIS_APPLIERS:
            raise ParameterError(
                f"unknown heatmap axis {axis!r}; expected one of {SWEEP_AXES}"
            )
    if x_axis == y_axis:
        raise ParameterError("heatmap axes must differ")
    if len(x_values) == 0 or len(y_values) == 0:
        raise ParameterError("heatmap axis values must not be empty")
    base_lifetimes = base_scenario.lifetimes
    if any(t != base_lifetimes[0] for t in base_lifetimes):
        # Mirror the scalar path, which applies the y axis before the x
        # axis: with_num_apps on still-heterogeneous lifetimes raises.
        if "num_apps" in (x_axis, y_axis) and not (
            x_axis == "num_apps" and y_axis == "lifetime"
        ):
            raise ParameterError(
                "varying num_apps requires a uniform app lifetime; rebuild "
                "the scenario explicitly for heterogeneous lifetimes"
            )
    x_col = np.tile(np.asarray(x_values), len(y_values))
    y_col = np.repeat(np.asarray(y_values), len(x_values))
    return axis_batch(base_scenario, {x_axis: x_col, y_axis: y_col})


def pairwise_heatmap_batch(
    comparator: PlatformComparator,
    base_scenario: Scenario,
    x_axis: str,
    x_values: Sequence[float],
    y_axis: str,
    y_values: Sequence[float],
    engine: EvaluationEngine | None = None,
) -> HeatmapResult:
    """Array-land :func:`pairwise_heatmap`: one kernel call for the grid.

    The whole grid is built as scenario *columns* and evaluated by the
    vector kernel — no per-cell :class:`Scenario` or ``ComparisonResult``
    objects exist at any point, which is what makes dense (100x100+)
    grids run at array speed.  Ratios agree with :func:`pairwise_heatmap`
    bit-for-bit.  Every cell is computed on each call: the kernel is
    cheaper than a result-store lookup, so the store is not consulted.
    """
    batch = heatmap_columns(base_scenario, x_axis, x_values, y_axis, y_values)
    result = resolve_engine(engine).evaluate_batch(comparator, batch)
    return HeatmapResult(
        x_axis=x_axis,
        y_axis=y_axis,
        x_values=tuple(float(v) for v in x_values),
        y_values=tuple(float(v) for v in y_values),
        ratios=result.ratios.reshape((len(y_values), len(x_values))),
    )
