"""Columnar parameter-space batches (the model-parameter twin of
:class:`~repro.engine.vector.columns.ScenarioBatch`).

Scenario-space workloads (sweeps, heatmaps) vary the *scenario* columns
under one comparator; parameter-space workloads (Monte-Carlo draws, DSE
grids, tornado endpoints) vary the *model parameters* themselves.  The
historical path materialised one perturbed
:class:`~repro.core.comparison.PlatformComparator` per row and flattened
it with :func:`extract_row` — a Python loop that dominated the
multi-comparator kernel's runtime.  A :class:`ParameterBatch` instead
holds the parameter space as columns:

* **canonical column registry** — every number the vector kernels
  consume is one of :data:`N_PARAM_COLS` named columns (``OP_CI``,
  ``MFG_RHO``, ``F_AREA``...), shared by the extraction path, the
  kernels and the digest folds;
* **base + overrides** (:meth:`ParameterBatch.from_comparator`) — one
  base comparator extracted *once*, with perturbed columns written
  directly from vectorised distribution draws.  Unperturbed columns
  stay length-1 broadcast arrays, so a 1M-draw batch that perturbs two
  knobs carries two 1M-row columns and 55 scalars — the sub-models
  whose inputs are all scalars are then computed once and broadcast;
* **per-row extraction** (:meth:`ParameterBatch.from_comparators`) —
  the compatibility spelling for callers that already hold perturbed
  comparator objects (DSE grids, tornado, the object-path engine API);
* **zero-copy slicing** (:meth:`ParameterBatch.slice_rows` /
  :meth:`ParameterBatch.take`) — chunked multi-core dispatch splits a
  huge batch into per-worker column views without copying row data.

Digesting parameter rows for the result store lives in
:mod:`repro.engine.store` (:func:`~repro.engine.store.param_batch_digests`),
next to the scenario fold it extends.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Sequence

import numpy as np

from repro.core.comparison import PlatformComparator
from repro.data.grid import carbon_intensity_kg_per_kwh
from repro.data.reports import DesignHouseReport, get_report
from repro.data.warm import WarmFactors, get_material
from repro.engine.vector.kernels import YIELD_MODEL_CODES
from repro.errors import ParameterError
from repro.manufacturing.yield_model import YieldModel
from repro.units import gwh_to_kwh, watts_to_kw

# ----------------------------------------------------------------------
# Canonical column registry
# ----------------------------------------------------------------------

#: Column indices of the model-parameter space (one row per comparator).
#: Shared suite knobs first, then the FPGA and ASIC sides.  These are
#: *the* public names: distribution ``apply_column`` callbacks, the
#: kernels' side-constant builder and the store's digest folds all
#: address columns through them.
(
    MFG_FAB_CI, MFG_ABATE, MFG_EDGE, MFG_SCRIBE, MFG_RHO,
    MFG_YIELD_CODE, MFG_CHARGE,
    PKG_SUB, PKG_ASM_KWH, PKG_ASM_CI, PKG_FANOUT, PKG_BASE_KG,
    PKG_MASS_CM2, PKG_BASE_MASS,
    EOL_DELTA, EOL_DISCARD, EOL_CREDIT, EOL_TRANSPORT,
    DES_ANNUAL_KWH, DES_CI, DES_AVG_GATES, DES_BETA,
    OP_CI, OP_DUTY, OP_IDLE, OP_PUE,
    AD_CI, AD_CONFIG_KW,
    F_AREA, F_POWER, F_LIFE, F_CAPACITY, F_GATES,
    F_EPA, F_GPA, F_MPA_NEW, F_MPA_REC, F_DEFECT, F_LINE_YIELD,
    F_WAFER_D, F_TEAM_YEARS, F_DEV_KG, F_CHPU,
    A_AREA, A_POWER, A_LIFE, A_GATES,
    A_EPA, A_GPA, A_MPA_NEW, A_MPA_REC, A_DEFECT, A_LINE_YIELD,
    A_WAFER_D, A_TEAM_YEARS, A_DEV_KG, A_CHPU,
) = range(57)

#: Total model-parameter columns per row.
N_PARAM_COLS = 57

#: Registry column names, in column order (``COLUMN_NAMES[MFG_RHO] ==
#: "MFG_RHO"``).  The audit subsystem renders findings and parity
#: reports through these.
COLUMN_NAMES: tuple[str, ...] = (
    "MFG_FAB_CI", "MFG_ABATE", "MFG_EDGE", "MFG_SCRIBE", "MFG_RHO",
    "MFG_YIELD_CODE", "MFG_CHARGE",
    "PKG_SUB", "PKG_ASM_KWH", "PKG_ASM_CI", "PKG_FANOUT", "PKG_BASE_KG",
    "PKG_MASS_CM2", "PKG_BASE_MASS",
    "EOL_DELTA", "EOL_DISCARD", "EOL_CREDIT", "EOL_TRANSPORT",
    "DES_ANNUAL_KWH", "DES_CI", "DES_AVG_GATES", "DES_BETA",
    "OP_CI", "OP_DUTY", "OP_IDLE", "OP_PUE",
    "AD_CI", "AD_CONFIG_KW",
    "F_AREA", "F_POWER", "F_LIFE", "F_CAPACITY", "F_GATES",
    "F_EPA", "F_GPA", "F_MPA_NEW", "F_MPA_REC", "F_DEFECT", "F_LINE_YIELD",
    "F_WAFER_D", "F_TEAM_YEARS", "F_DEV_KG", "F_CHPU",
    "A_AREA", "A_POWER", "A_LIFE", "A_GATES",
    "A_EPA", "A_GPA", "A_MPA_NEW", "A_MPA_REC", "A_DEFECT", "A_LINE_YIELD",
    "A_WAFER_D", "A_TEAM_YEARS", "A_DEV_KG", "A_CHPU",
)


@dataclasses.dataclass(frozen=True)
class ColumnSpec:
    """Where one registry column is consumed on the scalar model path.

    The static kernel-coverage audit cross-references every registry
    column against the scalar sub-models: ``scalar_packages`` are the
    ``src/repro`` sub-packages whose code must read at least one of the
    ``scalar_attrs`` attribute names for the column to count as consumed
    by the scalar path (the kernel side is detected directly from
    ``P.<NAME>`` reads in ``engine/vector/``).  The attribute names are
    exactly what the extractors above pull off the model objects, so the
    mapping cannot drift from the extraction without failing the audit.
    """

    index: int
    name: str
    group: str
    scalar_packages: tuple[str, ...]
    scalar_attrs: tuple[str, ...]


def _specs() -> tuple[ColumnSpec, ...]:
    mfg, pkg, eol = ("manufacturing",), ("packaging",), ("eol",)
    des, op, ad = ("design",), ("operation",), ("appdev",)
    dev = ("core", "devices")
    table: tuple[tuple[int, str, tuple[str, ...], tuple[str, ...]], ...] = (
        (MFG_FAB_CI, "manufacturing", mfg, ("carbon_intensity_kg_per_kwh",)),
        (MFG_ABATE, "manufacturing", mfg, ("gas_abatement",)),
        (MFG_EDGE, "manufacturing", mfg, ("edge_exclusion_mm",)),
        (MFG_SCRIBE, "manufacturing", mfg, ("scribe_mm",)),
        (MFG_RHO, "manufacturing", mfg, ("recycled_fraction",)),
        (MFG_YIELD_CODE, "manufacturing", mfg, ("yield_model",)),
        (MFG_CHARGE, "manufacturing", mfg, ("charge_wafer_waste",)),
        (PKG_SUB, "packaging", pkg, ("substrate_kg_per_cm2",)),
        (PKG_ASM_KWH, "packaging", pkg, ("assembly_kwh_per_package",)),
        (PKG_ASM_CI, "packaging", pkg, ("assembly_energy_source",)),
        (PKG_FANOUT, "packaging", pkg, ("fanout_factor",)),
        (PKG_BASE_KG, "packaging", pkg, ("base_kg_per_package",)),
        (PKG_MASS_CM2, "packaging", pkg, ("mass_g_per_cm2",)),
        (PKG_BASE_MASS, "packaging", pkg, ("base_mass_g",)),
        (EOL_DELTA, "eol", eol, ("recycled_fraction",)),
        (EOL_DISCARD, "eol", eol, ("discard_kg_per_kg",)),
        (EOL_CREDIT, "eol", eol, ("recycle_credit_kg_per_kg",)),
        (EOL_TRANSPORT, "eol", eol, ("transport_kg_per_kg",)),
        (DES_ANNUAL_KWH, "design", des,
         ("annual_energy_gwh", "overhead_factor", "allocation")),
        (DES_CI, "design", des, ("carbon_intensity",)),
        (DES_AVG_GATES, "design", des, ("avg_gates_per_chip_mgates",)),
        (DES_BETA, "design", des, ("gate_scaling_beta",)),
        (OP_CI, "operation", op, ("energy_source",)),
        (OP_DUTY, "operation", op, ("duty_cycle",)),
        (OP_IDLE, "operation", op, ("idle_fraction_of_peak",)),
        (OP_PUE, "operation", op, ("pue",)),
        (AD_CI, "appdev", ad, ("energy_source",)),
        (AD_CONFIG_KW, "appdev", ad, ("config_power_w",)),
        (F_AREA, "fpga_device", dev, ("area_mm2",)),
        (F_POWER, "fpga_device", dev, ("peak_power_w",)),
        (F_LIFE, "fpga_device", dev, ("chip_lifetime_years",)),
        (F_CAPACITY, "fpga_device", dev, ("logic_capacity_mgates",)),
        (F_GATES, "fpga_device", dev, ("gate_density_mgates_per_mm2",)),
        (F_EPA, "fpga_node", mfg, ("epa_kwh_per_cm2",)),
        (F_GPA, "fpga_node", mfg, ("gpa_kg_per_cm2",)),
        (F_MPA_NEW, "fpga_node", mfg, ("mpa_new_kg_per_cm2",)),
        (F_MPA_REC, "fpga_node", mfg, ("mpa_recycled_kg_per_cm2",)),
        (F_DEFECT, "fpga_node", mfg, ("defect_density_per_cm2",)),
        (F_LINE_YIELD, "fpga_node", mfg, ("line_yield",)),
        (F_WAFER_D, "fpga_node", mfg, ("wafer_diameter_mm",)),
        (F_TEAM_YEARS, "fpga_team", des, ("project_years",)),
        (F_DEV_KG, "fpga_effort", ad,
         ("farm_power_w", "per_application_hours")),
        (F_CHPU, "fpga_effort", ad, ("config_hours_per_unit",)),
        (A_AREA, "asic_device", dev, ("area_mm2",)),
        (A_POWER, "asic_device", dev, ("peak_power_w",)),
        (A_LIFE, "asic_device", dev, ("chip_lifetime_years",)),
        (A_GATES, "asic_device", dev, ("logic_gates_mgates",)),
        (A_EPA, "asic_node", mfg, ("epa_kwh_per_cm2",)),
        (A_GPA, "asic_node", mfg, ("gpa_kg_per_cm2",)),
        (A_MPA_NEW, "asic_node", mfg, ("mpa_new_kg_per_cm2",)),
        (A_MPA_REC, "asic_node", mfg, ("mpa_recycled_kg_per_cm2",)),
        (A_DEFECT, "asic_node", mfg, ("defect_density_per_cm2",)),
        (A_LINE_YIELD, "asic_node", mfg, ("line_yield",)),
        (A_WAFER_D, "asic_node", mfg, ("wafer_diameter_mm",)),
        (A_TEAM_YEARS, "asic_team", des, ("project_years",)),
        (A_DEV_KG, "asic_effort", ad,
         ("farm_power_w", "per_application_hours")),
        (A_CHPU, "asic_effort", ad, ("config_hours_per_unit",)),
    )
    return tuple(
        ColumnSpec(index, COLUMN_NAMES[index], group, packages, attrs)
        for index, group, packages, attrs in table
    )


#: One :class:`ColumnSpec` per registry column, in column order — the
#: column→model mapping the audit subsystem (coverage checker and
#: parity auditor) walks.
COLUMN_SPECS: tuple[ColumnSpec, ...] = _specs()


# The per-sub-model extractors below are memoised on the (frozen,
# hashable) model objects themselves: a Monte-Carlo draw typically
# perturbs one or two sub-models, so the other five rows' worth of
# attribute walking and registry lookups collapse into cache hits.


@functools.lru_cache(maxsize=1024)
def mfg_cols(mfg) -> tuple[float, ...]:
    """``MFG_*`` columns of one manufacturing model."""
    fab = mfg.fab
    return (
        fab.carbon_intensity_kg_per_kwh,
        fab.gas_abatement,
        fab.edge_exclusion_mm,
        fab.scribe_mm,
        mfg.recycled_fraction,
        float(YIELD_MODEL_CODES[YieldModel.coerce(mfg.yield_model)]),
        float(mfg.charge_wafer_waste),
    )


@functools.lru_cache(maxsize=1024)
def pkg_cols(pkg) -> tuple[float, ...]:
    """``PKG_*`` columns of one packaging model."""
    return (
        pkg.substrate_kg_per_cm2,
        pkg.assembly_kwh_per_package,
        carbon_intensity_kg_per_kwh(pkg.assembly_energy_source),
        pkg.fanout_factor,
        pkg.base_kg_per_package,
        pkg.mass_g_per_cm2,
        pkg.base_mass_g,
    )


@functools.lru_cache(maxsize=1024)
def eol_cols(eol) -> tuple[float, ...]:
    """``EOL_*`` columns of one end-of-life model."""
    material = (
        eol.material
        if isinstance(eol.material, WarmFactors)
        else get_material(eol.material)
    )
    return (
        eol.recycled_fraction,
        material.discard_kg_per_kg,
        material.recycle_credit_kg_per_kg,
        eol.transport_kg_per_kg,
    )


@functools.lru_cache(maxsize=1024)
def design_cols(design) -> tuple[float, ...]:
    """``DES_*`` columns of one design model."""
    report = (
        design.report
        if isinstance(design.report, DesignHouseReport)
        else get_report(design.report)
    )
    return (
        gwh_to_kwh(report.annual_energy_gwh)
        * design.overhead_factor
        * design.allocation,
        design.carbon_intensity(),
        report.avg_gates_per_chip_mgates,
        design.gate_scaling_beta,
    )


@functools.lru_cache(maxsize=1024)
def op_cols(operation) -> tuple[float, ...]:
    """``OP_*`` columns of one operation model."""
    profile = operation.profile
    return (
        carbon_intensity_kg_per_kwh(operation.energy_source),
        profile.duty_cycle,
        profile.idle_fraction_of_peak,
        profile.pue,
    )


@functools.lru_cache(maxsize=1024)
def appdev_cols(appdev, fpga_effort, asic_effort) -> tuple[float, ...]:
    """``(ad_ci, config_kw, fpga_dev_kg, fpga_chpu, asic_dev_kg, asic_chpu)``."""
    intensity = carbon_intensity_kg_per_kwh(appdev.energy_source)
    farm_kw = watts_to_kw(appdev.farm_power_w)
    return (
        intensity,
        watts_to_kw(appdev.config_power_w),
        farm_kw * fpga_effort.per_application_hours() * intensity,
        fpga_effort.config_hours_per_unit,
        farm_kw * asic_effort.per_application_hours() * intensity,
        asic_effort.config_hours_per_unit,
    )


@functools.lru_cache(maxsize=1024)
def fpga_device_cols(device) -> tuple[float, ...]:
    """``F_AREA .. F_WAFER_D`` columns of one FPGA device."""
    node = device.node
    return (
        device.area_mm2,
        device.peak_power_w,
        device.chip_lifetime_years,
        device.logic_capacity_mgates,
        device.area_mm2 * node.gate_density_mgates_per_mm2,
        node.epa_kwh_per_cm2,
        node.gpa_kg_per_cm2,
        node.mpa_new_kg_per_cm2,
        node.mpa_recycled_kg_per_cm2,
        node.defect_density_per_cm2,
        node.line_yield,
        node.wafer_diameter_mm,
    )


@functools.lru_cache(maxsize=1024)
def asic_device_cols(device) -> tuple[float, ...]:
    """``A_AREA .. A_WAFER_D`` columns of one ASIC device."""
    node = device.node
    return (
        device.area_mm2,
        device.peak_power_w,
        device.chip_lifetime_years,
        device.logic_gates_mgates,
        node.epa_kwh_per_cm2,
        node.gpa_kg_per_cm2,
        node.mpa_new_kg_per_cm2,
        node.mpa_recycled_kg_per_cm2,
        node.defect_density_per_cm2,
        node.line_yield,
        node.wafer_diameter_mm,
    )


def extract_row(comparator: PlatformComparator) -> tuple[float, ...]:
    """Flatten one comparator into a model-parameter row.

    Pure attribute reads and registry lookups — no footprint math — and
    memoised per sub-model, so repeated extraction of similar suites
    spends a few microseconds per row here and the heavy arithmetic
    happens once, vectorised, in the kernels.
    """
    suite = comparator.suite
    ad = appdev_cols(suite.appdev, suite.fpga_effort, suite.asic_effort)
    return (
        mfg_cols(suite.manufacturing)
        + pkg_cols(suite.packaging)
        + eol_cols(suite.eol)
        + design_cols(suite.design)
        + op_cols(suite.operation)
        + ad[:2]
        + fpga_device_cols(comparator.fpga_device)
        + (suite.fpga_team.project_years, ad[2], ad[3])
        + asic_device_cols(comparator.asic_device)
        + (suite.asic_team.project_years, ad[4], ad[5])
    )


# ----------------------------------------------------------------------
# ParameterBatch
# ----------------------------------------------------------------------


class ParameterBatch:
    """N model-parameter rows as columns, ready for the vector kernels.

    Two construction modes share one evaluation path:

    * :meth:`from_comparator` — a *base* comparator extracted once plus
      perturbed columns written by ``apply_column`` callbacks.  Columns
      never written stay length-1 broadcast arrays, so a million-draw
      batch perturbing two knobs costs two (n,)-columns, not an
      (n, 57) matrix; sub-models whose inputs are all unperturbed are
      evaluated once and broadcast.
    * :meth:`from_comparators` — one extracted row per comparator
      object (DSE grids, tornado endpoints, the object-path engine
      API); keeps the comparators for the engine's ``vectorize=False``
      object path.

    Column arrays are float64 and either length ``n`` (per-row values)
    or length 1 (broadcast); :meth:`col` returns them as-is, so kernel
    callers rely on NumPy broadcasting instead of materialised tiles.
    """

    __slots__ = ("n", "base", "base_row", "columns", "comparators")

    def __init__(
        self,
        n: int,
        *,
        base: PlatformComparator | None = None,
        base_row: "np.ndarray | None" = None,
        columns: "dict[int, np.ndarray] | None" = None,
        comparators: "tuple[PlatformComparator, ...] | None" = None,
    ) -> None:
        if n < 0:
            raise ParameterError(f"ParameterBatch size must be >= 0, got {n}")
        if base is None and base_row is None and not columns:
            raise ParameterError(
                "ParameterBatch needs a base comparator or explicit columns"
            )
        self.n = n
        self.base = base
        self.base_row = base_row
        self.columns: dict[int, np.ndarray] = dict(columns or {})
        self.comparators = comparators

    # -- construction ---------------------------------------------------

    @classmethod
    def from_comparator(
        cls, comparator: PlatformComparator, n: int
    ) -> "ParameterBatch":
        """Base-plus-overrides batch: extract the base row exactly once.

        Every column starts as the base comparator's value; perturb
        columns with :meth:`set_col` (typically via a distribution's
        ``apply_column`` callback).
        """
        if n < 1:
            raise ParameterError(f"ParameterBatch size must be >= 1, got {n}")
        base_row = np.asarray(extract_row(comparator), dtype=np.float64)
        return cls(n, base=comparator, base_row=base_row)

    @classmethod
    def from_comparators(
        cls, comparators: Sequence[PlatformComparator]
    ) -> "ParameterBatch":
        """Per-row extraction of existing comparator objects."""
        comparators = tuple(comparators)
        matrix = np.array(
            [extract_row(c) for c in comparators], dtype=np.float64
        ).reshape(len(comparators), N_PARAM_COLS)
        columns = {i: matrix[:, i] for i in range(N_PARAM_COLS)}
        return cls(len(comparators), columns=columns, comparators=comparators)

    # -- column access --------------------------------------------------

    @property
    def size(self) -> int:
        """Number of parameter rows in the batch."""
        return self.n

    def __len__(self) -> int:
        return self.n

    def col(self, index: int) -> np.ndarray:
        """Column ``index`` as a float64 array of length ``n`` or 1.

        Length-1 columns broadcast against per-row columns in the
        kernels; callers must not assume length ``n``.
        """
        column = self.columns.get(index)
        if column is not None:
            return column
        if self.base_row is None:
            raise ParameterError(f"parameter column {index} is not populated")
        return self.base_row[index : index + 1]

    def set_col(self, index: int, values: "np.ndarray | float") -> None:
        """Write a parameter column (a per-row array or one broadcast value).

        The canonical write path of ``apply_column`` distribution
        callbacks; values are coerced to float64 and must have length
        ``n`` or 1.
        """
        if not 0 <= index < N_PARAM_COLS:
            raise ParameterError(
                f"parameter column index {index} outside [0, {N_PARAM_COLS})"
            )
        column = np.atleast_1d(np.asarray(values, dtype=np.float64))
        if column.ndim != 1 or column.shape[0] not in (1, self.n):
            raise ParameterError(
                f"column {index}: expected 1 or {self.n} values, "
                f"got shape {column.shape}"
            )
        self.columns[index] = column

    @property
    def overrides(self) -> dict[int, np.ndarray]:
        """The explicitly written columns (digest material in base mode)."""
        return self.columns

    @property
    def digestable(self) -> bool:
        """Whether the store can key these rows without per-row hashing.

        Base-mode batches fold the base comparator's digest with the
        override columns; extraction-mode batches fold all columns from
        a fixed namespace seed.  Both are vectorised in
        :func:`repro.engine.store.param_batch_digests`.
        """
        return self.base is not None or len(self.columns) == N_PARAM_COLS

    # -- row subsetting (zero-copy) ------------------------------------

    def slice_rows(self, start: int, stop: int) -> "ParameterBatch":
        """Row-range view ``[start, stop)`` — column slices are views.

        Length-1 broadcast columns are shared as-is, so chunked
        dispatch over a huge base-mode batch copies no row data.
        """
        columns = {
            i: (c if c.shape[0] == 1 else c[start:stop])
            for i, c in self.columns.items()
        }
        comparators = (
            None if self.comparators is None else self.comparators[start:stop]
        )
        return ParameterBatch(
            stop - start,
            base=self.base,
            base_row=self.base_row,
            columns=columns,
            comparators=comparators,
        )

    def take(self, rows: np.ndarray) -> "ParameterBatch":
        """Row subset by index array (used to split store hits/misses)."""
        rows = np.asarray(rows)
        columns = {
            i: (c if c.shape[0] == 1 else c[rows])
            for i, c in self.columns.items()
        }
        comparators = (
            None
            if self.comparators is None
            else tuple(self.comparators[int(i)] for i in rows)
        )
        return ParameterBatch(
            int(rows.size),
            base=self.base,
            base_row=self.base_row,
            columns=columns,
            comparators=comparators,
        )

    def __repr__(self) -> str:
        mode = "base" if self.base is not None else "rows"
        return (
            f"ParameterBatch(n={self.n}, mode={mode}, "
            f"columns={sorted(self.columns)})"
        )
