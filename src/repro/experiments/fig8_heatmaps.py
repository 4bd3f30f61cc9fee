"""Fig. 8 — pairwise-sweep heatmaps of the FPGA:ASIC CFP ratio (DNN).

Three panels, each holding one variable at its baseline and sweeping the
other two: (a) N_vol constant, (b) N_app constant, (c) T_i constant.
Cells below ratio 1 are the FPGA-sustainable region; the ratio = 1
contour is the paper's pink-dashed boundary.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.heatmap import HeatmapResult, pairwise_heatmap_batch
from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.core.suite import ModelSuite
from repro.engine import EvaluationEngine, resolve_engine
from repro.experiments.base import ExperimentReport

DOMAIN = "dnn"
BASELINE = Scenario(num_apps=5, app_lifetime_years=2.0, volume=1_000_000)

NUM_APPS_VALUES = tuple(range(1, 11))
LIFETIME_VALUES = tuple(float(t) for t in np.round(np.arange(0.5, 3.01, 0.25), 10))
VOLUME_VALUES = tuple(int(v) for v in np.geomspace(1.0e4, 1.0e7, 10))

#: Panel definitions: (held axis, x axis, x values, y axis, y values).
PANELS = (
    ("volume", "num_apps", NUM_APPS_VALUES, "lifetime", LIFETIME_VALUES),
    ("num_apps", "volume", VOLUME_VALUES, "lifetime", LIFETIME_VALUES),
    ("lifetime", "volume", VOLUME_VALUES, "num_apps", NUM_APPS_VALUES),
)


def panel(
    held_axis: str,
    suite: ModelSuite | None = None,
    engine: EvaluationEngine | None = None,
) -> HeatmapResult:
    """Compute the heatmap for the panel that holds ``held_axis`` fixed.

    Each panel is one vector-kernel batch (array-land end to end): the
    grid's scenario axes become NumPy columns and no per-cell objects
    are materialised, so dense panels cost milliseconds instead of a
    grid's worth of lifecycle walks.  Panels share the engine's
    result store, so the baseline row/column of cells the three Fig. 8
    panels have in common is computed once and gathered thereafter —
    and survives to later runs when the engine has a ``cache_file``.
    """
    for held, x_axis, x_values, y_axis, y_values in PANELS:
        if held == held_axis:
            comparator = PlatformComparator.for_domain(DOMAIN, suite)
            return pairwise_heatmap_batch(
                comparator, BASELINE, x_axis, x_values, y_axis, y_values,
                engine=engine,
            )
    raise KeyError(f"no Fig. 8 panel holds {held_axis!r} fixed")


def _ascii_heatmap(result: HeatmapResult) -> str:
    """Coarse ASCII rendering: '.' = FPGA greener, '#' = ASIC greener."""
    lines = [f"rows: {result.y_axis}; cols: {result.x_axis}  (. = FPGA wins)"]
    for i, y in enumerate(result.y_values):
        cells = "".join(
            "." if result.ratios[i, j] < 1.0 else "#"
            for j in range(len(result.x_values))
        )
        lines.append(f"{y:>12.4g} |{cells}|")
    return "\n".join(lines)


def run(suite: ModelSuite | None = None) -> ExperimentReport:
    """Reproduce all three Fig. 8 panels (one vector batch per panel)."""
    engine = resolve_engine(None)
    report = ExperimentReport(
        experiment_id="fig8",
        title="Pairwise sweeps of FPGA:ASIC CFP ratio (DNN)",
        description=(
            "Each panel fixes one of N_vol / N_app / T_i at its baseline "
            "(1e6 / 5 / 2 y) and sweeps the other two; ratio < 1 marks the "
            "FPGA-sustainable region."
        ),
    )
    for held, *_ in PANELS:
        result = panel(held, suite, engine=engine)
        report.add_table(f"const_{held}", result.rows())
        report.add_chart(
            f"panel const {held}:\n" + _ascii_heatmap(result)
        )
    # Paper's highlighted observation: high volume or few apps defeat FPGAs.
    # (Recomputing the panel is one kernel call — cheaper than it reads.)
    const_t = panel("lifetime", suite, engine=engine)
    high_vol_col = len(const_t.x_values) - 1
    few_apps_row = 0
    report.add_note(
        "at the highest volume the FPGA needs many applications: ratio at "
        f"(N_vol={const_t.x_values[high_vol_col]:.3g}, N_app=1) = "
        f"{float(const_t.ratios[few_apps_row, high_vol_col]):.2f}"
    )
    return report
