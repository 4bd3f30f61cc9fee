"""Registry-driven parity auditor over the execution paths.

For every one of the 57 registry columns in
:mod:`repro.engine.vector.params`, perturb that column's underlying
model knob away from the default DNN comparator and assert the three
evaluation paths agree on the perturbed comparators:

* **scalar** — :meth:`PlatformComparator.compare` through the
  paper-faithful sub-models;
* **kernel** — :meth:`VectorizedEvaluator.evaluate_param_batch` over a
  :class:`ParameterBatch` of the same comparators (``rtol <= 1e-12``
  against scalar, the kernels' documented parity contract);
* **fused** — :meth:`VectorizedEvaluator.reduce_batch` through the
  fused kernel tier (:mod:`repro.engine.vector.fused`) on the same
  batch: values to ``rtol <= 1e-12`` against scalar, winners
  bit-identical (the fused tier's documented contract — values may
  reassociate, verdicts may not);
* **streaming** — :func:`run_stream` over the same batch with
  single-row chunks, against both a one-shot sequential reduction and
  an explicit split/:meth:`merge` of the kernel result (bit-identical
  by the reducer contract).

Coverage is part of the contract: a probe whose column never moves in
:func:`extract_row`, or whose perturbations never change any output, is
itself a failure — that is exactly how a silently-ignored knob looks.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable, Sequence
from dataclasses import replace

import numpy as np

from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.data.warm import WarmFactors, get_material
from repro.engine.vector import params as P
from repro.engine.vector.columns import ScenarioBatch
from repro.engine.vector.evaluator import VectorizedEvaluator
from repro.engine.vector.kernels import KERNEL_RTOL
from repro.engine.vector.params import COLUMN_NAMES, ParameterBatch, extract_row
from repro.engine.vector.reducers import (
    MomentsReducer,
    StreamingReduction,
    WinCountReducer,
)
from repro.engine.vector.streaming import ArrayChunkSource, run_stream
from repro.errors import ParameterError
from repro.manufacturing.yield_model import YieldModel

#: Default probe scenario: multi-app, moderate volume, no horizon quirks.
DEFAULT_SCENARIO = Scenario(num_apps=5, app_lifetime_years=2.0, volume=50_000)

#: Chip-lifetime columns only matter when worn-out chips are repurchased
#: inside the study horizon (10 years here).
LIFETIME_SCENARIO = Scenario(
    num_apps=5,
    app_lifetime_years=2.0,
    volume=50_000,
    enforce_chip_lifetime=True,
)

#: ASIC chips are remanufactured per application generation
#: (``ceil(app_lifetime / chip_lifetime)``), so the ASIC lifetime only
#: matters when a single application outlives the chip.
ASIC_LIFE_SCENARIO = Scenario(num_apps=2, app_lifetime_years=9.0, volume=50_000)

#: Per-application lifetimes and a fractional volume: the row shape the
#: chain folds per step and the fused tier hands to the chain.  Probes
#: whose column enters a per-application term (operation, app-dev, ASIC
#: chip lifetime) also run under it; its 9-year application outlives
#: the ASIC chip.
HETEROGENEOUS_SCENARIO = Scenario(
    num_apps=3, app_lifetime_years=(9.0, 2.5, 6.5), volume=50_000.5
)

#: FPGA capacity only matters when the application has an explicit size.
CAPACITY_SCENARIO = Scenario(
    num_apps=5, app_lifetime_years=2.0, volume=50_000, app_size_mgates=60.0
)


@dataclasses.dataclass(frozen=True)
class ColumnProbe:
    """How to perturb one registry column from the base comparator.

    Attributes:
        column: Registry column index.
        values: Candidate perturbation values, strongest-signal first;
            a run takes the first ``values_per_column`` of them.
        apply: ``(comparator, value) -> comparator`` with the knob set.
        scenario: Scenario override for columns inert under the default.
        prepare: Optional base-comparator transform applied before
            perturbing (e.g. a nonzero recycled fraction so the
            recycled-MPA column is live).
        per_application: The column enters a per-application term, so
            the probe also runs under :data:`HETEROGENEOUS_SCENARIO`.
    """

    column: int
    values: tuple[float, ...]
    apply: Callable[[PlatformComparator, float], PlatformComparator]
    scenario: Scenario | None = None
    prepare: Callable[[PlatformComparator], PlatformComparator] | None = None
    per_application: bool = False


@dataclasses.dataclass(frozen=True)
class ColumnReport:
    """Parity outcome for one registry column."""

    column: int
    name: str
    n_values: int
    moved: bool
    outputs_changed: bool
    kernel_max_rel_err: float
    stream_bitident: bool
    fused_max_rel_err: float = 0.0
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Exercised and agreeing on every path."""
        return (
            self.error is None
            and self.moved
            and self.outputs_changed
            and self.kernel_max_rel_err <= KERNEL_RTOL
            and self.fused_max_rel_err <= KERNEL_RTOL
            and self.stream_bitident
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view."""
        return {
            "column": self.column,
            "name": self.name,
            "ok": self.ok,
            "n_values": self.n_values,
            "moved": self.moved,
            "outputs_changed": self.outputs_changed,
            "kernel_max_rel_err": self.kernel_max_rel_err,
            "fused_max_rel_err": self.fused_max_rel_err,
            "stream_bitident": self.stream_bitident,
            "error": self.error,
        }

    def render(self) -> str:
        """One-line human rendering."""
        if self.error is not None:
            return f"  FAIL {self.name}: {self.error}"
        status = "ok  " if self.ok else "FAIL"
        flags = []
        if not self.moved:
            flags.append("column never moved")
        if not self.outputs_changed:
            flags.append("outputs never changed")
        if not self.stream_bitident:
            flags.append("streaming not bit-identical")
        detail = f" ({'; '.join(flags)})" if flags else ""
        return (
            f"  {status} {self.name}: {self.n_values} value(s), "
            f"kernel rel err {self.kernel_max_rel_err:.2e}, "
            f"fused rel err {self.fused_max_rel_err:.2e}{detail}"
        )


@dataclasses.dataclass(frozen=True)
class ParityReport:
    """Aggregate parity outcome across all probed columns."""

    columns: tuple[ColumnReport, ...]
    kernel_tier: str = "numpy-chain"

    @property
    def ok(self) -> bool:
        """All probed columns exercised and agreeing."""
        return all(c.ok for c in self.columns)

    @property
    def n_failed(self) -> int:
        """Number of failing columns."""
        return len([c for c in self.columns if not c.ok])

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view."""
        return {
            "ok": self.ok,
            "columns_probed": len(self.columns),
            "columns_failed": self.n_failed,
            "kernel_rtol": KERNEL_RTOL,
            "kernel_tier": self.kernel_tier,
            "columns": [c.as_dict() for c in self.columns],
        }

    def render(self) -> str:
        """Multi-line human rendering (failures always, passes summarised)."""
        lines = [
            f"parity: {len(self.columns)} columns probed, "
            f"{self.n_failed} failed (kernel rtol {KERNEL_RTOL:g}, "
            f"fused tier {self.kernel_tier})"
        ]
        lines.extend(c.render() for c in self.columns if not c.ok)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Probe table — one mutation recipe per registry column
# ----------------------------------------------------------------------


def _with_suite(c: PlatformComparator, **kw) -> PlatformComparator:
    return replace(c, suite=c.suite.with_overrides(**kw))


def _mfg(c: PlatformComparator, **kw) -> PlatformComparator:
    return _with_suite(c, manufacturing=replace(c.suite.manufacturing, **kw))


def _fab(c: PlatformComparator, **kw) -> PlatformComparator:
    mfg = c.suite.manufacturing
    return _with_suite(c, manufacturing=replace(mfg, fab=replace(mfg.fab, **kw)))


def _pkg(c: PlatformComparator, **kw) -> PlatformComparator:
    return _with_suite(c, packaging=replace(c.suite.packaging, **kw))


def _eol(c: PlatformComparator, **kw) -> PlatformComparator:
    return _with_suite(c, eol=replace(c.suite.eol, **kw))


def _eol_material(c: PlatformComparator, **kw) -> PlatformComparator:
    material = c.suite.eol.material
    if not isinstance(material, WarmFactors):
        material = get_material(material)
    return _eol(c, material=replace(material, **kw))


def _design(c: PlatformComparator, **kw) -> PlatformComparator:
    return _with_suite(c, design=replace(c.suite.design, **kw))


def _op(c: PlatformComparator, **kw) -> PlatformComparator:
    return _with_suite(c, operation=replace(c.suite.operation, **kw))


def _op_profile(c: PlatformComparator, **kw) -> PlatformComparator:
    op = c.suite.operation
    return _op(c, profile=replace(op.profile, **kw))


def _appdev(c: PlatformComparator, **kw) -> PlatformComparator:
    return _with_suite(c, appdev=replace(c.suite.appdev, **kw))


def _fpga(c: PlatformComparator, **kw) -> PlatformComparator:
    return replace(c, fpga_device=replace(c.fpga_device, **kw))


def _asic(c: PlatformComparator, **kw) -> PlatformComparator:
    return replace(c, asic_device=replace(c.asic_device, **kw))


def _fpga_node(c: PlatformComparator, **kw) -> PlatformComparator:
    return _fpga(c, node_name=c.fpga_device.node.with_overrides(**kw))


def _asic_node(c: PlatformComparator, **kw) -> PlatformComparator:
    return _asic(c, node_name=c.asic_device.node.with_overrides(**kw))


def _fpga_team(c: PlatformComparator, v: float) -> PlatformComparator:
    return _with_suite(c, fpga_team=replace(c.suite.fpga_team, project_years=v))


def _asic_team(c: PlatformComparator, v: float) -> PlatformComparator:
    return _with_suite(c, asic_team=replace(c.suite.asic_team, project_years=v))


def _fpga_effort(c: PlatformComparator, **kw) -> PlatformComparator:
    return _with_suite(c, fpga_effort=replace(c.suite.fpga_effort, **kw))


def _asic_effort(c: PlatformComparator, **kw) -> PlatformComparator:
    return _with_suite(c, asic_effort=replace(c.suite.asic_effort, **kw))


def _design_report(c: PlatformComparator):
    report = c.suite.design.report
    if isinstance(report, str):
        from repro.data.reports import get_report

        return get_report(report)
    return report


def _nonzero_rho(c: PlatformComparator) -> PlatformComparator:
    # Recycled-MPA columns are inert at the default rho = 0.
    return _mfg(c, recycled_fraction=0.5)


def default_probes() -> tuple[ColumnProbe, ...]:
    """The shipped probe table — one entry per registry column.

    Carbon-intensity knobs take *numeric* energy sources (g CO2e/kWh),
    which both paths resolve through the same grid helper.
    """
    yield_models = (YieldModel.POISSON, YieldModel.SEEDS)
    probes = (
        ColumnProbe(P.MFG_FAB_CI, (50.0, 700.0, 250.0, 1000.0),
                    lambda c, v: _fab(c, energy_source=v)),
        ColumnProbe(P.MFG_ABATE, (0.9, 0.4, 0.6, 0.95),
                    lambda c, v: _fab(c, gas_abatement=v)),
        ColumnProbe(P.MFG_EDGE, (1.0, 6.0, 4.0, 2.0),
                    lambda c, v: _fab(c, edge_exclusion_mm=v)),
        ColumnProbe(P.MFG_SCRIBE, (0.3, 0.05, 0.5, 0.2),
                    lambda c, v: _fab(c, scribe_mm=v)),
        ColumnProbe(P.MFG_RHO, (0.5, 0.9, 0.3, 0.7),
                    lambda c, v: _mfg(c, recycled_fraction=v)),
        ColumnProbe(P.MFG_YIELD_CODE, tuple(range(len(yield_models))),
                    lambda c, v: _mfg(c, yield_model=yield_models[int(v)])),
        ColumnProbe(P.MFG_CHARGE, (0.0,),
                    lambda c, v: _mfg(c, charge_wafer_waste=bool(v))),
        ColumnProbe(P.PKG_SUB, (0.1, 1.2, 0.8, 0.5),
                    lambda c, v: _pkg(c, substrate_kg_per_cm2=v)),
        ColumnProbe(P.PKG_ASM_KWH, (0.3, 5.0, 3.5, 2.0),
                    lambda c, v: _pkg(c, assembly_kwh_per_package=v)),
        ColumnProbe(P.PKG_ASM_CI, (50.0, 900.0, 250.0, 700.0),
                    lambda c, v: _pkg(c, assembly_energy_source=v)),
        ColumnProbe(P.PKG_FANOUT, (1.2, 4.0, 3.0, 2.5),
                    lambda c, v: _pkg(c, fanout_factor=v)),
        ColumnProbe(P.PKG_BASE_KG, (0.05, 1.0, 0.6, 0.3),
                    lambda c, v: _pkg(c, base_kg_per_package=v)),
        ColumnProbe(P.PKG_MASS_CM2, (1.0, 12.0, 8.0, 5.0),
                    lambda c, v: _pkg(c, mass_g_per_cm2=v)),
        ColumnProbe(P.PKG_BASE_MASS, (1.0, 30.0, 16.0, 8.0),
                    lambda c, v: _pkg(c, base_mass_g=v)),
        ColumnProbe(P.EOL_DELTA, (0.0, 1.0, 0.8, 0.5),
                    lambda c, v: _eol(c, recycled_fraction=v)),
        ColumnProbe(P.EOL_DISCARD, (0.5, 8.0, 4.0, 2.0),
                    lambda c, v: _eol_material(c, discard_mtco2e_per_ton=v)),
        ColumnProbe(P.EOL_CREDIT, (5.0, 120.0, 80.0, 40.0),
                    lambda c, v: _eol_material(
                        c, recycle_credit_mtco2e_per_ton=v)),
        ColumnProbe(P.EOL_TRANSPORT, (0.0, 1.0, 0.5, 0.2),
                    lambda c, v: _eol(c, transport_kg_per_kg=v)),
        ColumnProbe(P.DES_ANNUAL_KWH, (1.0, 3.0, 2.5, 2.0),
                    lambda c, v: _design(c, overhead_factor=v)),
        ColumnProbe(P.DES_CI, (30.0, 700.0, 500.0, 250.0),
                    lambda c, v: _design(c, energy_source=v)),
        ColumnProbe(P.DES_AVG_GATES, (100.0, 5000.0, 2000.0, 500.0),
                    lambda c, v: _design(c, report=replace(
                        _design_report(c), avg_gates_per_chip_mgates=v))),
        ColumnProbe(P.DES_BETA, (0.0, 1.0, 0.8, 0.5),
                    lambda c, v: _design(c, gate_scaling_beta=v)),
        ColumnProbe(P.OP_CI, (20.0, 900.0, 500.0, 200.0),
                    lambda c, v: _op(c, energy_source=v),
                    per_application=True),
        ColumnProbe(P.OP_DUTY, (0.05, 1.0, 0.8, 0.5),
                    lambda c, v: _op_profile(c, duty_cycle=v),
                    per_application=True),
        ColumnProbe(P.OP_IDLE, (0.0, 1.0, 0.6, 0.3),
                    lambda c, v: _op_profile(c, idle_fraction_of_peak=v),
                    per_application=True),
        ColumnProbe(P.OP_PUE, (1.0, 2.0, 1.6, 1.3),
                    lambda c, v: _op_profile(c, pue=v),
                    per_application=True),
        ColumnProbe(P.AD_CI, (20.0, 900.0, 500.0, 200.0),
                    lambda c, v: _appdev(c, energy_source=v),
                    per_application=True),
        ColumnProbe(P.AD_CONFIG_KW, (50.0, 1000.0, 600.0, 300.0),
                    lambda c, v: _appdev(c, config_power_w=v),
                    per_application=True),
        ColumnProbe(P.F_AREA, (50.0, 800.0, 400.0, 150.0),
                    lambda c, v: _fpga(c, area_mm2=v)),
        ColumnProbe(P.F_POWER, (1.0, 120.0, 60.0, 25.0),
                    lambda c, v: _fpga(c, peak_power_w=v),
                    per_application=True),
        ColumnProbe(P.F_LIFE, (3.0, 12.0, 9.0, 6.0),
                    lambda c, v: _fpga(c, chip_lifetime_years=v),
                    scenario=LIFETIME_SCENARIO),
        ColumnProbe(P.F_CAPACITY, (12.0, 120.0, 70.0, 30.0),
                    lambda c, v: _fpga(c, capacity_mgates=v),
                    scenario=CAPACITY_SCENARIO),
        ColumnProbe(P.F_GATES, (5.0, 80.0, 50.0, 20.0),
                    lambda c, v: _fpga_node(
                        c, gate_density_mgates_per_mm2=v)),
        ColumnProbe(P.F_EPA, (0.5, 8.0, 4.0, 2.0),
                    lambda c, v: _fpga_node(c, epa_kwh_per_cm2=v)),
        ColumnProbe(P.F_GPA, (0.1, 2.0, 1.0, 0.5),
                    lambda c, v: _fpga_node(c, gpa_kg_per_cm2=v)),
        ColumnProbe(P.F_MPA_NEW, (0.1, 2.0, 1.0, 0.5),
                    lambda c, v: _fpga_node(c, mpa_new_kg_per_cm2=v)),
        ColumnProbe(P.F_MPA_REC, (0.05, 1.5, 0.8, 0.3),
                    lambda c, v: _fpga_node(c, mpa_recycled_kg_per_cm2=v),
                    prepare=_nonzero_rho),
        ColumnProbe(P.F_DEFECT, (0.05, 0.6, 0.4, 0.2),
                    lambda c, v: _fpga_node(c, defect_density_per_cm2=v)),
        ColumnProbe(P.F_LINE_YIELD, (0.7, 1.0, 0.95, 0.85),
                    lambda c, v: _fpga_node(c, line_yield=v)),
        ColumnProbe(P.F_WAFER_D, (200.0, 450.0, 150.0, 300.0),
                    lambda c, v: _fpga_node(c, wafer_diameter_mm=v)),
        ColumnProbe(P.F_TEAM_YEARS, (1.0, 6.0, 4.0, 2.0), _fpga_team),
        ColumnProbe(P.F_DEV_KG, (0.5, 12.0, 6.0, 3.0),
                    lambda c, v: _fpga_effort(c, frontend_months=v),
                    per_application=True),
        ColumnProbe(P.F_CHPU, (0.0, 1.0, 0.5, 0.2),
                    lambda c, v: _fpga_effort(c, config_hours_per_unit=v),
                    per_application=True),
        ColumnProbe(P.A_AREA, (50.0, 600.0, 300.0, 150.0),
                    lambda c, v: _asic(c, area_mm2=v)),
        ColumnProbe(P.A_POWER, (0.5, 50.0, 20.0, 5.0),
                    lambda c, v: _asic(c, peak_power_w=v),
                    per_application=True),
        ColumnProbe(P.A_LIFE, (2.0, 6.0, 4.0, 3.0),
                    lambda c, v: _asic(c, chip_lifetime_years=v),
                    scenario=ASIC_LIFE_SCENARIO, per_application=True),
        ColumnProbe(P.A_GATES, (100.0, 2000.0, 1000.0, 400.0),
                    lambda c, v: _asic(c, gates_mgates=v)),
        ColumnProbe(P.A_EPA, (0.5, 8.0, 4.0, 2.0),
                    lambda c, v: _asic_node(c, epa_kwh_per_cm2=v)),
        ColumnProbe(P.A_GPA, (0.1, 2.0, 1.0, 0.5),
                    lambda c, v: _asic_node(c, gpa_kg_per_cm2=v)),
        ColumnProbe(P.A_MPA_NEW, (0.1, 2.0, 1.0, 0.5),
                    lambda c, v: _asic_node(c, mpa_new_kg_per_cm2=v)),
        ColumnProbe(P.A_MPA_REC, (0.05, 1.5, 0.8, 0.3),
                    lambda c, v: _asic_node(c, mpa_recycled_kg_per_cm2=v),
                    prepare=_nonzero_rho),
        ColumnProbe(P.A_DEFECT, (0.05, 0.6, 0.4, 0.2),
                    lambda c, v: _asic_node(c, defect_density_per_cm2=v)),
        ColumnProbe(P.A_LINE_YIELD, (0.7, 1.0, 0.95, 0.85),
                    lambda c, v: _asic_node(c, line_yield=v)),
        ColumnProbe(P.A_WAFER_D, (200.0, 450.0, 150.0, 300.0),
                    lambda c, v: _asic_node(c, wafer_diameter_mm=v)),
        ColumnProbe(P.A_TEAM_YEARS, (1.0, 6.0, 4.0, 2.0), _asic_team),
        ColumnProbe(P.A_DEV_KG, (0.5, 8.0, 4.0, 2.0),
                    lambda c, v: _asic_effort(c, frontend_months=v),
                    per_application=True),
        ColumnProbe(P.A_CHPU, (0.01, 0.6, 0.3, 0.1),
                    lambda c, v: _asic_effort(c, config_hours_per_unit=v),
                    per_application=True),
    )
    if len(probes) != P.N_PARAM_COLS:
        raise ParameterError(
            f"probe table covers {len(probes)} of {P.N_PARAM_COLS} columns"
        )
    if sorted(p.column for p in probes) != list(range(P.N_PARAM_COLS)):
        raise ParameterError("probe table has duplicate or missing columns")
    return probes


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def _scalar_outputs(
    comps: Sequence[PlatformComparator], scenario: Scenario
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(ratios, fpga_totals, asic_totals, winners) via the scalar path."""
    results = [c.compare(scenario) for c in comps]
    return (
        np.array([r.ratio for r in results], dtype=np.float64),
        np.array([r.fpga.footprint.total for r in results], dtype=np.float64),
        np.array([r.asic.footprint.total for r in results], dtype=np.float64),
        np.array([r.winner for r in results]),
    )


def _max_rel_err(scalar: np.ndarray, kernel: np.ndarray) -> float:
    """Worst relative error; non-finite entries must match exactly."""
    scalar = np.asarray(scalar, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    finite = np.isfinite(scalar)
    if not np.array_equal(finite, np.isfinite(kernel)):
        return math.inf
    if not np.array_equal(scalar[~finite], kernel[~finite]):
        return math.inf
    s, k = scalar[finite], kernel[finite]
    if s.size == 0:
        return 0.0
    denom = np.maximum(np.abs(s), np.finfo(np.float64).tiny)
    return float(np.max(np.abs(k - s) / denom))


def _reduction_prototype() -> StreamingReduction:
    """Single-row-block reduction used for the bit-identity checks."""
    return StreamingReduction(
        {
            "moments": MomentsReducer(source="ratios", block=1),
            "wins": WinCountReducer(),
        }
    )


def _reduction_state(reduction: StreamingReduction) -> tuple:
    """Comparable finalised state of one reduction (exact floats)."""
    moments = reduction["moments"].moments()
    wins = reduction["wins"]
    return (
        tuple(sorted(moments.items())),
        wins.n,
        wins.fpga_wins,
    )


def _states_equal(a: tuple, b: tuple) -> bool:
    """Bit-identical comparison that still treats ``nan`` as equal."""

    def eq(x: object, y: object) -> bool:
        if isinstance(x, float) and isinstance(y, float):
            return x == y or (math.isnan(x) and math.isnan(y))
        return x == y

    (am, an, aw), (bm, bn, bw) = a, b
    return (
        an == bn
        and aw == bw
        and len(am) == len(bm)
        and all(ka == kb and eq(va, vb) for (ka, va), (kb, vb) in zip(am, bm))
    )


def _probe_scenario(
    comps: Sequence[PlatformComparator],
    scenario: Scenario,
    evaluator: VectorizedEvaluator,
    fused: VectorizedEvaluator,
) -> tuple[float, float, bool, bool]:
    """``(kernel err, fused err, outputs changed, stream bit-identical)``
    of one probe's comparators under one scenario."""
    ratios_s, fpga_s, asic_s, winners_s = _scalar_outputs(comps, scenario)
    params = ParameterBatch.from_comparators(comps)
    batch = ScenarioBatch.tile(scenario, len(comps))
    kres = evaluator.evaluate_param_batch(params, batch)

    rel_err = max(
        _max_rel_err(ratios_s, kres.ratios),
        _max_rel_err(fpga_s, kres.fpga_totals),
        _max_rel_err(asic_s, kres.asic_totals),
    )
    if not np.array_equal(winners_s, np.asarray(kres.winners)):
        rel_err = math.inf

    # Fused tier: values to the same rtol, winners bit-identical.
    fres = fused.reduce_batch(params, batch)
    fused_rel_err = max(
        _max_rel_err(ratios_s, fres.ratios),
        _max_rel_err(fpga_s, fres.fpga_totals),
        _max_rel_err(asic_s, fres.asic_totals),
    )
    if not np.array_equal(winners_s, np.asarray(fres.winners)):
        fused_rel_err = math.inf

    outputs_changed = bool(
        np.any(ratios_s[1:] != ratios_s[0])
        or np.any(fpga_s[1:] != fpga_s[0])
        or np.any(asic_s[1:] != asic_s[0])
    )

    # Streaming bit-identity, three ways over the same kernel batch:
    # single-row chunks through run_stream, one sequential update, and
    # an explicit split + merge.
    prototype = _reduction_prototype()
    streamed = run_stream(
        ArrayChunkSource(params, batch), prototype, chunk_rows=1
    )
    sequential = prototype.fresh()
    sequential.update(kres, 0)
    mid = max(1, len(comps) // 2)
    left, right = prototype.fresh(), prototype.fresh()
    left.update(kres.slice_rows(0, mid), 0)
    right.update(kres.slice_rows(mid, len(comps)), mid)
    merged = prototype.fresh()
    merged.merge(left)
    merged.merge(right)
    reference = _reduction_state(sequential)
    stream_bitident = _states_equal(
        _reduction_state(streamed), reference
    ) and _states_equal(_reduction_state(merged), reference)
    return rel_err, fused_rel_err, outputs_changed, stream_bitident


def _probe_column(
    probe: ColumnProbe,
    base: PlatformComparator,
    evaluator: VectorizedEvaluator,
    fused: VectorizedEvaluator,
    values_per_column: int,
) -> ColumnReport:
    """Run one column probe end to end, under each of its scenarios."""
    name = COLUMN_NAMES[probe.column]
    prepared = probe.prepare(base) if probe.prepare is not None else base
    values = probe.values[: max(1, values_per_column)]
    comps = [prepared, *(probe.apply(prepared, v) for v in values)]
    scenarios = [probe.scenario if probe.scenario is not None else DEFAULT_SCENARIO]
    if probe.per_application:
        scenarios.append(HETEROGENEOUS_SCENARIO)

    rows = np.array([extract_row(c) for c in comps], dtype=np.float64)
    moved = bool(np.any(rows[1:, probe.column] != rows[0, probe.column]))
    outcomes = [
        _probe_scenario(comps, scenario, evaluator, fused)
        for scenario in scenarios
    ]
    return ColumnReport(
        column=probe.column,
        name=name,
        n_values=len(values),
        moved=moved,
        outputs_changed=all(o[2] for o in outcomes),
        kernel_max_rel_err=max(o[0] for o in outcomes),
        fused_max_rel_err=max(o[1] for o in outcomes),
        stream_bitident=all(o[3] for o in outcomes),
    )


def run_parity(
    values_per_column: int = 3,
    columns: Sequence[int] | None = None,
    base: PlatformComparator | None = None,
    probes: Sequence[ColumnProbe] | None = None,
    kernel_tier: str | None = None,
) -> ParityReport:
    """Probe every registry column (or ``columns``) and report parity.

    ``kernel_tier`` selects the fused-tier backend for the fused sweep
    (default: the ``REPRO_KERNEL`` environment resolution, so
    ``REPRO_KERNEL=numpy repro audit`` validates the chain fallback
    while a plain run validates the fused kernels).

    Per-column exceptions are captured into failing
    :class:`ColumnReport` entries rather than aborting the sweep, so
    one broken probe still leaves a full coverage picture.
    """
    if values_per_column < 1:
        raise ParameterError(
            f"values_per_column must be >= 1, got {values_per_column}"
        )
    if base is None:
        base = PlatformComparator.for_domain("dnn")
    if probes is None:
        probes = default_probes()
    if columns is not None:
        wanted = set(columns)
        probes = [p for p in probes if p.column in wanted]
    # The chain reference always goes through evaluate_param_batch; the
    # fused evaluator serves whatever tier resolution picks.
    evaluator = VectorizedEvaluator(kernel_tier="numpy")
    fused = VectorizedEvaluator(kernel_tier=kernel_tier)
    reports = []
    for probe in probes:
        try:
            reports.append(
                _probe_column(probe, base, evaluator, fused, values_per_column)
            )
        except Exception as exc:  # noqa: BLE001 - one broken probe must not hide the rest of the sweep
            reports.append(
                ColumnReport(
                    column=probe.column,
                    name=COLUMN_NAMES[probe.column],
                    n_values=0,
                    moved=False,
                    outputs_changed=False,
                    kernel_max_rel_err=math.inf,
                    fused_max_rel_err=math.inf,
                    stream_bitident=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
    reports.sort(key=lambda r: r.column)
    return ParityReport(
        columns=tuple(reports), kernel_tier=fused.kernel_tier_name
    )
