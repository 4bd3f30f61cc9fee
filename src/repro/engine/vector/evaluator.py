"""Vectorized batch evaluation of FPGA-vs-ASIC comparisons.

The scalar path rebuilds dataclass pyramids per scenario; this module
computes whole batches as array math in two regimes:

* **same-comparator batches** (heatmap grids, sweeps): the per-chip
  constants — manufacturing, packaging, EOL, design, operation and
  app-dev coefficients — depend only on the device pair and suite, so
  they are computed *once* through the scalar sub-models (guaranteeing
  bit-parity) and the scenario composition is vectorised;
* **multi-comparator batches** (Monte-Carlo draws, DSE grids): each row
  carries its own suite, so the per-chip constants themselves are
  computed through the array kernels in :mod:`repro.engine.vector.kernels`
  from extracted model-parameter columns.  Parity with the scalar path is
  within ``rtol=1e-12`` (NumPy transcendentals may differ from libm by an
  ulp); everything else is exact.

The scenario composition mirrors the scalar models' operation order —
including the per-application left-folds via :class:`FoldPlan` — so the
same-comparator path reproduces the scalar results bit-for-bit, which is
what lets the engine fast path share its result store with scalar callers.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.asic_model import AsicAssessment, AsicLifecycleModel
from repro.core.comparison import ComparisonResult, PlatformComparator
from repro.core.fpga_model import FpgaAssessment, FpgaLifecycleModel
from repro.core.lifecycle import CarbonFootprint
from repro.core.scenario import Scenario
from repro.data.grid import carbon_intensity_kg_per_kwh
from repro.data.reports import DesignHouseReport, get_report
from repro.data.warm import WarmFactors, get_material
from repro.engine.vector.columns import ScenarioBatch
from repro.engine.vector.kernels import (
    FoldPlan,
    chip_generations,
    design_project_kg,
    eol_per_chip_kg,
    generations_kernel,
    manufacturing_per_die_kg,
    operation_per_chip_year_kg,
    packaging_per_chip,
    ratio_kernel,
    winner_kernel,
)
from repro.engine.vector import params as P
from repro.engine.vector.params import ParameterBatch
from repro.errors import ParameterError
from repro.units import watts_to_kw


#: ArrayLike scalar-or-column type for per-side constants.
Column = "float | np.ndarray"


@dataclass(frozen=True)
class SideConstants:
    """Per-chip constants of one platform side (scalars or row columns).

    Scalar fields broadcast over the scenario batch (same-comparator
    path); ndarray fields carry one value per row (multi-comparator
    path).  Either way the composition kernel is identical.
    """

    design_kg: Column
    mfg_per_chip_kg: Column
    pkg_per_chip_kg: Column
    eol_per_chip_kg: Column
    per_chip_embodied_kg: Column
    op_per_chip_year_kg: Column
    appdev_dev_kg: Column
    appdev_config_kw: Column
    appdev_config_hours_per_unit: Column
    appdev_intensity: Column
    chip_lifetime_years: Column
    capacity_mgates: Column | None = None  # FPGA only


@functools.lru_cache(maxsize=256)
def comparator_constants(
    comparator: PlatformComparator,
) -> tuple[SideConstants, SideConstants]:
    """Exact per-chip constants for one comparator, via the scalar models.

    Every number here is produced by the same code the scalar path runs
    (`per_chip_embodied`, `project_kg`, `per_chip_year_kg`, ...), so the
    vectorized composition built on top is bit-identical to
    :meth:`PlatformComparator.compare`.
    """
    suite = comparator.suite
    fpga_device = comparator.fpga_device
    asic_device = comparator.asic_device

    appdev_intensity = carbon_intensity_kg_per_kwh(suite.appdev.energy_source)
    farm_kw = watts_to_kw(suite.appdev.farm_power_w)
    config_kw = watts_to_kw(suite.appdev.config_power_w)

    fpga_per_chip = FpgaLifecycleModel(device=fpga_device, suite=suite).per_chip_embodied()
    silicon_gates = (
        fpga_device.area_mm2 * fpga_device.node.gate_density_mgates_per_mm2
    )
    fpga_dev_hours = suite.fpga_effort.per_application_hours()
    fpga_side = SideConstants(
        design_kg=suite.design.project_kg(silicon_gates, suite.fpga_team),
        mfg_per_chip_kg=fpga_per_chip.manufacturing,
        pkg_per_chip_kg=fpga_per_chip.packaging,
        eol_per_chip_kg=fpga_per_chip.eol,
        per_chip_embodied_kg=fpga_per_chip.total,
        op_per_chip_year_kg=suite.operation.per_chip_year_kg(fpga_device.peak_power_w),
        appdev_dev_kg=farm_kw * fpga_dev_hours * appdev_intensity,
        appdev_config_kw=config_kw,
        appdev_config_hours_per_unit=suite.fpga_effort.config_hours_per_unit,
        appdev_intensity=appdev_intensity,
        chip_lifetime_years=fpga_device.chip_lifetime_years,
        capacity_mgates=fpga_device.logic_capacity_mgates,
    )

    asic_per_chip = AsicLifecycleModel(device=asic_device, suite=suite).per_chip_embodied()
    asic_dev_hours = suite.asic_effort.per_application_hours()
    asic_side = SideConstants(
        design_kg=suite.design.project_kg(
            asic_device.logic_gates_mgates, suite.asic_team
        ),
        mfg_per_chip_kg=asic_per_chip.manufacturing,
        pkg_per_chip_kg=asic_per_chip.packaging,
        eol_per_chip_kg=asic_per_chip.eol,
        per_chip_embodied_kg=asic_per_chip.total,
        op_per_chip_year_kg=suite.operation.per_chip_year_kg(asic_device.peak_power_w),
        appdev_dev_kg=farm_kw * asic_dev_hours * appdev_intensity,
        appdev_config_kw=config_kw,
        appdev_config_hours_per_unit=suite.asic_effort.config_hours_per_unit,
        appdev_intensity=appdev_intensity,
        chip_lifetime_years=asic_device.chip_lifetime_years,
        capacity_mgates=None,
    )
    return fpga_side, asic_side


# ----------------------------------------------------------------------
# Parameter-space side constants (columnar)
# ----------------------------------------------------------------------

# The model-parameter column registry and extraction live in
# :mod:`repro.engine.vector.params`; this module only composes columns.


def _kernel_side_constants(
    p: ParameterBatch, *, fpga_side: bool
) -> SideConstants:
    """Per-chip constant columns for one side, via the array kernels.

    Columns come from a :class:`ParameterBatch`, so each one is either a
    per-row array or a length-1 broadcast value.  Sub-models whose
    inputs are all broadcast values produce broadcast constants — a
    Monte-Carlo batch perturbing only the operational intensity computes
    manufacturing/packaging/EOL/design once, not per draw.  The
    manufacturing kernel masks rows internally, so its inputs are
    broadcast to a common shape first.
    """
    if fpga_side:
        area = p.col(P.F_AREA)
        power = p.col(P.F_POWER)
        life = p.col(P.F_LIFE)
        gates = p.col(P.F_GATES)
        epa, gpa = p.col(P.F_EPA), p.col(P.F_GPA)
        mpa_new, mpa_rec = p.col(P.F_MPA_NEW), p.col(P.F_MPA_REC)
        defect, line_yield = p.col(P.F_DEFECT), p.col(P.F_LINE_YIELD)
        wafer_d = p.col(P.F_WAFER_D)
        team_years = p.col(P.F_TEAM_YEARS)
        dev_kg = p.col(P.F_DEV_KG)
        chpu = p.col(P.F_CHPU)
        capacity = p.col(P.F_CAPACITY)
    else:
        area = p.col(P.A_AREA)
        power = p.col(P.A_POWER)
        life = p.col(P.A_LIFE)
        gates = p.col(P.A_GATES)
        epa, gpa = p.col(P.A_EPA), p.col(P.A_GPA)
        mpa_new, mpa_rec = p.col(P.A_MPA_NEW), p.col(P.A_MPA_REC)
        defect, line_yield = p.col(P.A_DEFECT), p.col(P.A_LINE_YIELD)
        wafer_d = p.col(P.A_WAFER_D)
        team_years = p.col(P.A_TEAM_YEARS)
        dev_kg = p.col(P.A_DEV_KG)
        chpu = p.col(P.A_CHPU)
        capacity = None

    (
        b_area, b_epa, b_gpa, b_mpa_new, b_mpa_rec, b_defect, b_line_yield,
        b_wafer_d, b_fab_ci, b_abate, b_edge, b_scribe, b_rho, b_yield,
        b_charge,
    ) = np.broadcast_arrays(
        area, epa, gpa, mpa_new, mpa_rec, defect, line_yield, wafer_d,
        p.col(P.MFG_FAB_CI), p.col(P.MFG_ABATE), p.col(P.MFG_EDGE),
        p.col(P.MFG_SCRIBE), p.col(P.MFG_RHO), p.col(P.MFG_YIELD_CODE),
        p.col(P.MFG_CHARGE),
    )
    mfg = manufacturing_per_die_kg(
        b_area, b_epa, b_gpa, b_mpa_new, b_mpa_rec, b_defect, b_line_yield,
        b_wafer_d, b_fab_ci, b_abate, b_edge, b_scribe, b_rho, b_yield,
        b_charge != 0.0,
    )
    pkg, mass_g = packaging_per_chip(
        area, p.col(P.PKG_SUB), p.col(P.PKG_ASM_KWH), p.col(P.PKG_ASM_CI),
        p.col(P.PKG_FANOUT), p.col(P.PKG_BASE_KG), p.col(P.PKG_MASS_CM2),
        p.col(P.PKG_BASE_MASS),
    )
    eol = eol_per_chip_kg(
        mass_g, p.col(P.EOL_DELTA), p.col(P.EOL_DISCARD),
        p.col(P.EOL_CREDIT), p.col(P.EOL_TRANSPORT),
    )
    design = design_project_kg(
        gates, p.col(P.DES_ANNUAL_KWH), team_years, p.col(P.DES_CI),
        p.col(P.DES_AVG_GATES), p.col(P.DES_BETA),
    )
    op = operation_per_chip_year_kg(
        power, p.col(P.OP_DUTY), p.col(P.OP_IDLE), p.col(P.OP_PUE),
        p.col(P.OP_CI),
    )
    return SideConstants(
        design_kg=design,
        mfg_per_chip_kg=mfg,
        pkg_per_chip_kg=pkg,
        eol_per_chip_kg=eol,
        per_chip_embodied_kg=(mfg + pkg) + eol,
        op_per_chip_year_kg=op,
        appdev_dev_kg=dev_kg,
        appdev_config_kw=p.col(P.AD_CONFIG_KW),
        appdev_config_hours_per_unit=chpu,
        appdev_intensity=p.col(P.AD_CI),
        chip_lifetime_years=life,
        capacity_mgates=capacity,
    )


# ----------------------------------------------------------------------
# Composition: scenario accounting over constants
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BatchResult:
    """Array-valued outcome of one evaluation batch.

    Mirrors a tuple of :class:`ComparisonResult` as struct-of-arrays:
    ``ratios[i]``, ``winners[i]``, totals and per-component breakdowns
    all refer to row ``i`` of the input batch.  Component dicts are keyed
    by :attr:`CarbonFootprint.COMPONENTS`.
    """

    ratios: np.ndarray
    winners: np.ndarray
    fpga_totals: np.ndarray
    asic_totals: np.ndarray
    fpga_components: dict[str, np.ndarray]
    asic_components: dict[str, np.ndarray]
    fpga_per_chip_embodied_kg: np.ndarray
    asic_per_chip_embodied_kg: np.ndarray
    n_fpga: np.ndarray
    fpga_generations: np.ndarray
    #: Per-application ASIC chip generations, shaped like the batch's
    #: ``lifetime`` column: ``(n,)``, or ``(n, w)`` with application
    #: ``j`` in column ``min(j, w - 1)``.
    asic_generations: np.ndarray
    num_apps: np.ndarray
    #: Per-application ASIC component arrays, shaped like
    #: :attr:`asic_generations`, for materialising
    #: ``AsicAssessment.per_application``.
    asic_app_components: dict[str, np.ndarray] = field(repr=False, default_factory=dict)

    @property
    def size(self) -> int:
        """Number of rows in the batch."""
        return int(self.ratios.shape[0])

    def __len__(self) -> int:
        return self.size

    @property
    def fpga_advantage_kg(self) -> np.ndarray:
        """ASIC total minus FPGA total per row (positive = FPGA wins)."""
        return self.asic_totals - self.fpga_totals

    def fpga_footprint(self, index: int) -> CarbonFootprint:
        """Materialise the FPGA footprint of one row."""
        return CarbonFootprint(
            **{k: float(v[index]) for k, v in self.fpga_components.items()}
        )

    def asic_footprint(self, index: int) -> CarbonFootprint:
        """Materialise the ASIC footprint of one row."""
        return CarbonFootprint(
            **{k: float(v[index]) for k, v in self.asic_components.items()}
        )

    def comparison(self, index: int, scenario: Scenario) -> ComparisonResult:
        """Materialise one row as a full :class:`ComparisonResult`.

        Used by the engine fast path to answer object callers; the
        result is indistinguishable from the scalar path's.
        """
        fpga = FpgaAssessment(
            footprint=self.fpga_footprint(index),
            per_chip_embodied_kg=float(self.fpga_per_chip_embodied_kg[index]),
            n_fpga_per_unit=int(self.n_fpga[index]),
            generations=int(self.fpga_generations[index]),
        )
        app_columns = {
            k: np.atleast_1d(v[index])
            for k, v in self.asic_app_components.items()
        }
        width = max((v.shape[0] for v in app_columns.values()), default=1)
        footprints = [
            CarbonFootprint(**{k: float(v[j]) for k, v in app_columns.items()})
            for j in range(width)
        ]
        last = width - 1
        asic = AsicAssessment(
            footprint=self.asic_footprint(index),
            per_chip_embodied_kg=float(self.asic_per_chip_embodied_kg[index]),
            per_application=tuple(
                footprints[min(j, last)] for j in range(int(self.num_apps[index]))
            ),
        )
        return ComparisonResult(scenario=scenario, fpga=fpga, asic=asic)

    def slice_rows(self, start: int, stop: int) -> "BatchResult":
        """Row-range view ``[start, stop)`` of this result (no copy)."""
        rows = slice(start, stop)
        return BatchResult(
            ratios=self.ratios[rows],
            winners=self.winners[rows],
            fpga_totals=self.fpga_totals[rows],
            asic_totals=self.asic_totals[rows],
            fpga_components={k: v[rows] for k, v in self.fpga_components.items()},
            asic_components={k: v[rows] for k, v in self.asic_components.items()},
            fpga_per_chip_embodied_kg=self.fpga_per_chip_embodied_kg[rows],
            asic_per_chip_embodied_kg=self.asic_per_chip_embodied_kg[rows],
            n_fpga=self.n_fpga[rows],
            fpga_generations=self.fpga_generations[rows],
            asic_generations=self.asic_generations[rows],
            num_apps=self.num_apps[rows],
            asic_app_components={
                k: v[rows] for k, v in self.asic_app_components.items()
            },
        )

    @classmethod
    def concat(cls, parts: "Sequence[BatchResult]") -> "BatchResult":
        """Fuse per-chunk results into one (row order = input order).

        The row-wise inverse of :meth:`slice_rows`, used by the engine's
        chunked parameter-batch dispatch (chunks of one batch share its
        lifetime width).
        """
        if not parts:
            raise ParameterError("concat requires at least one BatchResult")
        if len(parts) == 1:
            return parts[0]

        def cat(field_name: str) -> np.ndarray:
            return np.concatenate([getattr(r, field_name) for r in parts])

        def cat_components(field_name: str) -> dict[str, np.ndarray]:
            keys = getattr(parts[0], field_name).keys()
            return {
                k: np.concatenate([getattr(r, field_name)[k] for r in parts])
                for k in keys
            }

        return cls(
            ratios=cat("ratios"),
            winners=cat("winners"),
            fpga_totals=cat("fpga_totals"),
            asic_totals=cat("asic_totals"),
            fpga_components=cat_components("fpga_components"),
            asic_components=cat_components("asic_components"),
            fpga_per_chip_embodied_kg=cat("fpga_per_chip_embodied_kg"),
            asic_per_chip_embodied_kg=cat("asic_per_chip_embodied_kg"),
            n_fpga=cat("n_fpga"),
            fpga_generations=cat("fpga_generations"),
            asic_generations=cat("asic_generations"),
            num_apps=cat("num_apps"),
            asic_app_components=cat_components("asic_app_components"),
        )

    @classmethod
    def from_results(
        cls,
        comparisons: Sequence[ComparisonResult],
        comparators: "Sequence[PlatformComparator] | PlatformComparator",
    ) -> "BatchResult":
        """Columnise scalar results (the ``vectorize=False`` spelling).

        ``comparators`` (one shared or one per row) supplies the ASIC
        chip lifetimes needed to reconstruct :attr:`asic_generations`,
        which :class:`ComparisonResult` does not carry.  The
        per-application columns take the shape
        :meth:`ScenarioBatch.from_scenarios` gives the lifetimes.
        """
        n = len(comparisons)
        components = CarbonFootprint.COMPONENTS
        fpga_components = {k: np.empty(n) for k in components}
        asic_components = {k: np.empty(n) for k in components}
        fpga_totals = np.empty(n)
        asic_totals = np.empty(n)
        ratios = np.empty(n)
        n_fpga = np.empty(n, dtype=np.int64)
        fpga_gen = np.empty(n, dtype=np.int64)
        num_apps = np.empty(n, dtype=np.int64)
        fpga_pc = np.empty(n)
        asic_pc = np.empty(n)
        lifetime = ScenarioBatch.from_scenarios(
            [c.scenario for c in comparisons]
        ).lifetime
        block = lifetime.reshape(n, -1)
        asic_gen = np.empty(block.shape, dtype=np.int64)
        app_components = {k: np.empty(block.shape) for k in components}
        for i, c in enumerate(comparisons):
            for k in components:
                fpga_components[k][i] = getattr(c.fpga.footprint, k)
                asic_components[k][i] = getattr(c.asic.footprint, k)
            fpga_totals[i] = c.fpga.footprint.total
            asic_totals[i] = c.asic.footprint.total
            ratios[i] = c.ratio
            n_fpga[i] = c.fpga.n_fpga_per_unit
            fpga_gen[i] = c.fpga.generations
            num_apps[i] = c.scenario.num_apps
            fpga_pc[i] = c.fpga.per_chip_embodied_kg
            asic_pc[i] = c.asic.per_chip_embodied_kg
            comparator = (
                comparators
                if isinstance(comparators, PlatformComparator)
                else comparators[i]
            )
            chip_life = comparator.asic_device.chip_lifetime_years
            apps = c.asic.per_application
            for j, years in enumerate(block[i].tolist()):
                asic_gen[i, j] = chip_generations(years, chip_life)
                app = apps[min(j, len(apps) - 1)]
                for k in components:
                    app_components[k][i, j] = getattr(app, k)
        shape = lifetime.shape
        return cls(
            ratios=ratios,
            winners=winner_kernel(fpga_totals, asic_totals),
            fpga_totals=fpga_totals,
            asic_totals=asic_totals,
            fpga_components=fpga_components,
            asic_components=asic_components,
            fpga_per_chip_embodied_kg=fpga_pc,
            asic_per_chip_embodied_kg=asic_pc,
            n_fpga=n_fpga,
            fpga_generations=fpga_gen,
            asic_generations=asic_gen.reshape(shape),
            num_apps=num_apps,
            asic_app_components={
                k: v.reshape(shape) for k, v in app_components.items()
            },
        )


def _compose(
    fpga: SideConstants, asic: SideConstants, batch: ScenarioBatch
) -> BatchResult:
    """Scenario accounting over per-chip constants, as array math.

    Operation order mirrors :meth:`FpgaLifecycleModel.assess` /
    :meth:`AsicLifecycleModel.assess` exactly (including the
    per-application left-folds), so given exact constants the outputs are
    bit-identical to the scalar path.  A ``(n, w)`` lifetime block makes
    every per-application term a per-step fold operand.
    """
    n = batch.size
    num_apps = batch.num_apps
    volume = batch.volume
    lifetime = batch.lifetime

    def per_app(x: "Column") -> "Column":
        # Row columns against a (n, w) lifetime block broadcast per row.
        return x if lifetime.ndim == 1 else np.reshape(x, (-1, 1))

    # N_FPGA = ceil(app_size / capacity), 1 when sized to the device.
    capacity = np.broadcast_to(
        np.asarray(fpga.capacity_mgates, dtype=np.float64), (n,)
    )
    sized = ~np.isnan(batch.app_size_mgates)
    safe_size = np.where(sized, batch.app_size_mgates, capacity)
    units = np.maximum(1, np.ceil(safe_size / capacity).astype(np.int64))
    n_fpga = np.where(sized, units, 1)

    # Chip counts multiply as float64 (exact for integral counts, and a
    # same-dtype multiply skips NumPy's mixed-type casting loop).
    unit_f = volume * n_fpga.astype(np.float64)
    zeros = np.zeros(n)

    # Per-application terms, folded num_apps times per row through one
    # shared plan (the scalar models' repeated ``+=``, bit for bit).
    op_app = (lifetime * per_app(unit_f)) * per_app(fpga.op_per_chip_year_kg)
    config_hours = fpga.appdev_config_hours_per_unit * unit_f
    configuration = (fpga.appdev_config_kw * config_hours) * fpga.appdev_intensity
    appdev_app = fpga.appdev_dev_kg + configuration

    asic_gen = generations_kernel(lifetime, per_app(asic.chip_lifetime_years))
    chips = per_app(volume) * asic_gen.astype(np.float64)
    a_design_app = zeros + asic.design_kg
    a_mfg_app = per_app(asic.mfg_per_chip_kg) * chips
    a_pkg_app = per_app(asic.pkg_per_chip_kg) * chips
    a_eol_app = per_app(asic.eol_per_chip_kg) * chips
    a_op_app = (lifetime * per_app(volume)) * per_app(asic.op_per_chip_year_kg)
    a_config_hours = asic.appdev_config_hours_per_unit * volume
    a_configuration = (asic.appdev_config_kw * a_config_hours) * asic.appdev_intensity
    a_appdev_app = asic.appdev_dev_kg + a_configuration

    (
        total_years, f_op, f_appdev,
        a_design, a_mfg, a_pkg, a_eol, a_op, a_appdev,
    ) = FoldPlan(num_apps).fold(
        lifetime, op_app, appdev_app,
        a_design_app, a_mfg_app, a_pkg_app, a_eol_app, a_op_app, a_appdev_app,
    )

    # FPGA chip generations over the study horizon (Fig. 9 semantics).
    horizon = np.where(
        np.isnan(batch.evaluation_years), total_years, batch.evaluation_years
    )
    fpga_gen = np.where(
        batch.enforce_chip_lifetime,
        generations_kernel(horizon, fpga.chip_lifetime_years),
        1,
    )
    fleet = unit_f * fpga_gen.astype(np.float64)

    f_design = zeros + fpga.design_kg
    f_mfg = fpga.mfg_per_chip_kg * fleet
    f_pkg = fpga.pkg_per_chip_kg * fleet
    f_eol = fpga.eol_per_chip_kg * fleet
    fpga_totals = (((f_design + f_mfg) + f_pkg) + f_eol) + (f_op + f_appdev)

    asic_totals = (((a_design + a_mfg) + a_pkg) + a_eol) + (a_op + a_appdev)

    app_shape = asic_gen.shape
    return BatchResult(
        ratios=ratio_kernel(fpga_totals, asic_totals),
        winners=winner_kernel(fpga_totals, asic_totals),
        fpga_totals=fpga_totals,
        asic_totals=asic_totals,
        fpga_components={
            "design": f_design,
            "manufacturing": f_mfg,
            "packaging": f_pkg,
            "eol": f_eol,
            "appdev": f_appdev,
            "operational": f_op,
        },
        asic_components={
            "design": a_design,
            "manufacturing": a_mfg,
            "packaging": a_pkg,
            "eol": a_eol,
            "appdev": a_appdev,
            "operational": a_op,
        },
        fpga_per_chip_embodied_kg=zeros + fpga.per_chip_embodied_kg,
        asic_per_chip_embodied_kg=zeros + asic.per_chip_embodied_kg,
        n_fpga=n_fpga,
        fpga_generations=fpga_gen,
        asic_generations=asic_gen,
        num_apps=num_apps.copy(),
        asic_app_components={
            "design": np.broadcast_to(per_app(a_design_app), app_shape),
            "manufacturing": a_mfg_app,
            "packaging": a_pkg_app,
            "eol": a_eol_app,
            "appdev": np.broadcast_to(per_app(a_appdev_app), app_shape),
            "operational": a_op_app,
        },
    )


class VectorizedEvaluator:
    """Batch evaluation through the NumPy kernels.

    Stateless apart from the memoised per-comparator constants and the
    optional fused kernel's scratch pool; safe to share from one thread
    (the engine owns one and the analysis batch entry points reach it
    through the engine).  Every valid scenario row is in-kernel: horizon
    overrides, chip-lifetime enforcement, application sizing, fractional
    volumes and per-application lifetimes.

    ``kernel_tier`` selects the tier for :meth:`reduce_batch`: ``fused``
    (the single-pass :class:`~repro.engine.vector.fused.FusedKernel`) or
    ``numpy`` (the kernel chain); the default honours the
    ``REPRO_KERNEL`` environment variable, fused when unset.
    """

    def __init__(self, kernel_tier: "str | None" = None) -> None:
        from repro.engine.vector.fused import make_kernel

        self._fused = make_kernel(kernel_tier)

    @property
    def kernel_tier_name(self) -> str:
        """Resolved tier label (``fused-numpy``/``numpy-chain``)."""
        return self._fused.name if self._fused is not None else "numpy-chain"

    def reduce_batch(
        self, params: ParameterBatch, batch: ScenarioBatch
    ) -> "BatchResult | FusedResult":
        """Reduce-only evaluation: fused tier when armed, chain otherwise.

        The streaming chunk workers feed reducers through this method.
        With a fused kernel the return value is the slimmer
        :class:`~repro.engine.vector.fused.FusedResult` (ratios, totals,
        winners, exact win count — everything a
        :class:`~repro.engine.vector.reducers.StreamingReducer`
        consumes); batches the fused tier yields (per-application
        lifetimes, very large application counts) run on the chain.
        """
        if self._fused is not None:
            result = self._fused.evaluate(params, batch)
            if result is not None:
                return result
        return self.evaluate_param_batch(params, batch)

    def evaluate_batch(
        self,
        comparator: PlatformComparator,
        scenarios: "ScenarioBatch | Iterable[Scenario]",
    ) -> BatchResult:
        """Assess one comparator over a scenario batch, vectorised.

        Per-chip constants come from the scalar sub-models (computed once
        per comparator, memoised), so results are bit-identical to
        :meth:`PlatformComparator.compare`.
        """
        batch = (
            scenarios
            if isinstance(scenarios, ScenarioBatch)
            else ScenarioBatch.from_scenarios(tuple(scenarios))
        )
        fpga_side, asic_side = comparator_constants(comparator)
        return _compose(fpga_side, asic_side, batch)

    def evaluate_param_batch(
        self, params: ParameterBatch, batch: ScenarioBatch
    ) -> BatchResult:
        """Assess parameter-space rows against scenario rows, columnar.

        The per-chip constants are computed through the array kernels
        straight from the parameter columns — no comparator objects, no
        per-row extraction.  Broadcast (length-1) parameter columns keep
        unperturbed sub-models scalar; per-row columns vectorise them.
        Parity with the scalar object path is ``rtol <= 1e-12``.
        """
        if params.size != batch.size:
            raise ParameterError(
                f"parameter batch has {params.size} rows, "
                f"scenario batch has {batch.size}"
            )
        fpga_side = _kernel_side_constants(params, fpga_side=True)
        asic_side = _kernel_side_constants(params, fpga_side=False)
        return _compose(fpga_side, asic_side, batch)

    def evaluate_pairs_batch(
        self,
        pairs: Iterable[tuple[PlatformComparator, Scenario]],
    ) -> BatchResult:
        """Assess many (comparator, scenario) pairs, fully vectorised.

        Unlike :meth:`evaluate_batch` the per-chip constants are computed
        through the array kernels from extracted model parameters, so
        batches where *every row has its own suite* (Monte-Carlo draws,
        DSE grids) still run as array math.  Parity with the scalar path
        is ``rtol <= 1e-12``.
        """
        pair_list = list(pairs)
        batch = ScenarioBatch.from_scenarios(tuple(s for _, s in pair_list))
        params = ParameterBatch.from_comparators([c for c, _ in pair_list])
        return self.evaluate_param_batch(params, batch)
