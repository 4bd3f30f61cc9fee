"""Array kernels mirroring the suite sub-models.

Each kernel reproduces one scalar sub-model's arithmetic — in the same
operation order, so results agree with the scalar path to the last ulp
wherever IEEE semantics permit (NumPy's transcendental implementations
may differ from libm by one ulp, which is far inside the advertised
``rtol=1e-12`` parity bound).

Two kinds of kernel live here:

* **sub-model kernels** (`manufacturing_per_die_kg`, `packaging_per_chip`,
  `eol_per_chip_kg`, `design_project_kg`, `operation_per_chip_year_kg`)
  compute per-chip constants from *model-parameter columns* — one row per
  comparator — enabling multi-comparator batches (Monte-Carlo draws, DSE
  grids) to vectorise the whole lifecycle, not just the scenario axes;
* **composition helpers** (`FoldPlan`/`repeat_add`, `ratio_kernel`,
  `winner_kernel`) reproduce the scenario accounting and the
  per-application folds bit for bit, and the degenerate-ratio semantics of
  :class:`~repro.core.comparison.ComparisonResult` with masks instead of
  branches, raising no floating-point warnings.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import CapacityError
from repro.manufacturing.yield_model import YieldModel
from repro.units import HOURS_PER_YEAR, MM2_PER_CM2, RETICLE_LIMIT_MM2

#: Relative tolerance of the kernel tiers against the scalar models
#: (the documented parity contract; winners must match exactly).
KERNEL_RTOL = 1e-12

#: Stable integer codes for the statistical yield models, used because
#: enum members don't belong in float matrices.
YIELD_MODEL_CODES = {
    YieldModel.MURPHY: 0,
    YieldModel.POISSON: 1,
    YieldModel.SEEDS: 2,
}


def _into(ufunc, a, b, out):
    """``ufunc(a, b)`` into ``out`` when shapes permit, fresh otherwise.

    ``out`` must be a temporary the caller owns exclusively — never a
    caller-supplied operand column — so the reuse cannot alias a live
    input.  ``out`` may be ``a`` or ``b`` itself (elementwise ufuncs are
    well-defined with an input as ``out``); values and operation order
    are identical to the out-of-place spelling either way.
    """
    if isinstance(out, np.ndarray) and out.shape == np.broadcast_shapes(
        np.shape(a), np.shape(b)
    ):
        return ufunc(a, b, out=out)
    return ufunc(a, b)


# ----------------------------------------------------------------------
# Composition helpers
# ----------------------------------------------------------------------


class FoldPlan:
    """Shared schedule for row-wise per-application left folds.

    The scalar lifecycle models accumulate per-application terms with
    repeated ``+=``; ``count * x`` rounds differently for counts >= 4,
    so bit-parity requires reproducing the fold.  A plan is built once
    per ``counts`` column: rows are ordered by descending count, so the
    rows still folding at step ``k`` (those with ``count >= k``) form a
    prefix.  The plan records that prefix's length at each distinct
    count, so it stays O(rows) in memory however large the counts are.
    :meth:`fold` then folds any number of operands together with one
    in-place add per step over the active prefix of a stacked tile —
    ``max(count) - 1`` Python-level steps per tile and
    ``sum(count - 1)`` element adds per operand.  Every element receives
    the same additions in the same order as the scalar fold, so results
    are bit-identical to it.  Uniform counts (including stride-0
    :meth:`ScenarioBatch.tile` columns) skip the permutation.
    """

    __slots__ = ("size", "order", "levels")

    #: Rows per stacked fold tile: bounds the transient scratch to two
    #: ``operands x TILE_ROWS`` float64 blocks whatever the batch size.
    TILE_ROWS = 16_384

    def __init__(self, counts: np.ndarray) -> None:
        counts = np.asarray(counts).reshape(-1)
        n = counts.shape[0]
        self.size = n
        #: ``(count, live)`` pairs, ascending by count, one per distinct
        #: positive count: ``live`` rows have at least ``count``.
        self.levels: list[tuple[int, int]] = []
        if n == 0:
            self.order = None
        elif counts.strides[0] == 0 or counts.min() == counts.max():
            # Identity order: every row folds for every step.
            self.order = None
            if counts[0] >= 1:
                self.levels = [(int(counts[0]), n)]
        else:
            self.order = np.argsort(-counts, kind="stable")
            ascending = counts[self.order][::-1]
            distinct = np.unique(ascending[ascending >= 1])
            live = n - np.searchsorted(ascending, distinct)
            self.levels = list(zip(distinct.tolist(), live.tolist()))

    def fold(self, *operands: np.ndarray) -> np.ndarray:
        """Fold each operand ``count`` times per row; ``(m, n)`` result.

        An operand is a float column of the plan's length or of length
        1 (broadcast), or a per-step ``(n, w)`` block whose step ``k``
        adds column ``min(k, w - 1)`` (per-application lifetimes).  Row
        ``j`` of the result is the fold of operand ``j``, and rows with
        ``count < 1`` are ``0.0``.
        """
        n = self.size
        m = len(operands)
        out = np.zeros((m, n))
        cols = []
        blocks = []  # (operand, (n, w) block) of the per-step operands
        for j, x in enumerate(operands):
            x = np.asarray(x, dtype=np.float64)
            if x.ndim == 2:
                blocks.append((j, np.broadcast_to(x, (n, x.shape[1]))))
                cols.append(blocks[-1][1][:, 0])
            else:
                cols.append(np.broadcast_to(x.reshape(-1), (n,)))
        width = max((block.shape[1] for _, block in blocks), default=1)
        order = self.order
        levels = self.levels
        active = levels[0][1] if levels else 0
        for t0 in range(0, active, self.TILE_ROWS):
            t1 = min(t0 + self.TILE_ROWS, active)
            addend = np.empty((m, t1 - t0))
            if order is None:
                rows = None
                for j, col in enumerate(cols):
                    addend[j] = col[t0:t1]
                acc = out[:, t0:t1]
            else:
                rows = order[t0:t1]
                for j, col in enumerate(cols):
                    np.take(col, rows, out=addend[j], mode="clip")
                acc = np.empty_like(addend)
            np.copyto(acc, addend)
            # Addends ``done + 1 .. count`` go to the rows holding at
            # least ``count``: no distinct count lies in between.
            done = 1
            for count, live in levels:
                live = min(live, t1) - t0
                if live <= 0:
                    break
                head = acc[:, :live]
                tail = addend[:, :live]
                for step in range(done, count):
                    if step < width:
                        self._load_step(addend, blocks, step, rows, t0, live)
                    np.add(head, tail, out=head)
                done = count
            if order is not None:
                out[:, rows] = acc
        return out

    @staticmethod
    def _load_step(addend, blocks, step, rows, t0, live) -> None:
        """Refresh the per-step operands' addends for application ``step``."""
        for j, block in blocks:
            if step < block.shape[1]:
                column = block[:, step]
                if rows is None:
                    addend[j, :live] = column[t0:t0 + live]
                else:
                    np.take(column, rows[:live], out=addend[j, :live],
                            mode="clip")


def repeat_add(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row-wise ``x + x + ... + x`` (``counts`` times), left-folded.

    The one-operand spelling of :meth:`FoldPlan.fold` (bit-identical to
    the scalar models' repeated ``+=``; ``0.0`` where ``counts < 1``).
    Costs ``max(counts) - 1`` Python-level steps with ``sum(counts - 1)``
    element adds; composers folding several operands over one counts
    column should share a :class:`FoldPlan` instead.
    """
    x = np.asarray(x, dtype=np.float64)
    counts = np.asarray(counts)
    shape = np.broadcast_shapes(x.shape, counts.shape)
    plan = FoldPlan(np.broadcast_to(counts, shape))
    return plan.fold(np.broadcast_to(x, shape).reshape(-1))[0].reshape(shape)


#: Epsilon subtracted before ``ceil`` in chip-generation counts, so a
#: study horizon that is an exact multiple of the chip lifetime does not
#: buy one spurious extra generation to float rounding.
GENERATIONS_EPSILON = 1.0e-9


def chip_generations(years: float, chip_lifetime_years: float) -> int:
    """Chip generations consumed over ``years`` (scalar; min 1).

    The single definition of the paper's repurchase count — the scalar
    twin of :func:`generations_kernel`, shared by the store's packing
    and :meth:`BatchResult.from_results` so warm gathers can never
    drift from cold kernel runs.
    """
    return max(
        1, math.ceil(years / chip_lifetime_years - GENERATIONS_EPSILON)
    )


def generations_kernel(
    years: np.ndarray, chip_lifetime_years: "np.ndarray | float"
) -> np.ndarray:
    """Vectorised :func:`chip_generations` (int64 column; min 1)."""
    return np.maximum(
        1,
        np.ceil(
            years / chip_lifetime_years - GENERATIONS_EPSILON
        ).astype(np.int64),
    )


def ratio_kernel(fpga_totals: np.ndarray, asic_totals: np.ndarray) -> np.ndarray:
    """Vectorised :attr:`ComparisonResult.ratio` with degenerate masks.

    A zero ASIC total yields signed infinity (``copysign(inf, fpga)``),
    two zero totals a perfect tie of ``1.0`` — identical semantics to the
    scalar property, with warnings suppressed rather than raised.
    """
    fpga_totals = np.asarray(fpga_totals, dtype=np.float64)
    asic_totals = np.asarray(asic_totals, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = fpga_totals / asic_totals
    return np.where(
        asic_totals == 0.0,
        np.where(fpga_totals == 0.0, 1.0, np.copysign(np.inf, fpga_totals)),
        raw,
    )


def winner_kernel(fpga_totals: np.ndarray, asic_totals: np.ndarray) -> np.ndarray:
    """Vectorised :attr:`ComparisonResult.winner` (ties go to the ASIC)."""
    return np.where(
        np.asarray(fpga_totals) < np.asarray(asic_totals), "fpga", "asic"
    )


# ----------------------------------------------------------------------
# Manufacturing: wafer geometry + yield + carbon-per-area
# ----------------------------------------------------------------------


def dies_per_wafer_kernel(
    die_area_mm2: np.ndarray,
    wafer_diameter_mm: np.ndarray,
    edge_exclusion_mm: np.ndarray,
    scribe_mm: np.ndarray,
) -> np.ndarray:
    """Vectorised :func:`repro.manufacturing.wafer.dies_per_wafer`."""
    die_area_mm2 = np.asarray(die_area_mm2, dtype=np.float64)
    if np.any(die_area_mm2 > RETICLE_LIMIT_MM2):
        worst = float(die_area_mm2.max())
        raise CapacityError(
            f"die area {worst:.0f} mm^2 exceeds the reticle limit "
            f"({RETICLE_LIMIT_MM2:.0f} mm^2); split the design across chips"
        )
    side_mm = np.sqrt(die_area_mm2) + scribe_mm
    footprint_mm2 = side_mm**2
    usable_diameter_mm = wafer_diameter_mm - 2.0 * edge_exclusion_mm
    area_term = np.pi * (usable_diameter_mm / 2.0) ** 2 / footprint_mm2
    edge_term = np.pi * usable_diameter_mm / np.sqrt(2.0 * footprint_mm2)
    gross = np.floor(area_term - edge_term).astype(np.int64)
    if np.any(gross < 1):
        raise CapacityError("a die in the batch does not fit on its wafer")
    return gross


def wafer_area_per_die_kernel(
    die_area_mm2: np.ndarray,
    wafer_diameter_mm: np.ndarray,
    edge_exclusion_mm: np.ndarray,
    scribe_mm: np.ndarray,
) -> np.ndarray:
    """Vectorised :func:`repro.manufacturing.wafer.wafer_area_per_die_cm2`."""
    gross = dies_per_wafer_kernel(
        die_area_mm2, wafer_diameter_mm, edge_exclusion_mm, scribe_mm
    )
    radius_mm = wafer_diameter_mm / 2.0 - edge_exclusion_mm
    if np.any(radius_mm <= 0.0):
        raise CapacityError("edge exclusion leaves no usable wafer area")
    usable_cm2 = (np.pi * radius_mm**2) / MM2_PER_CM2
    return np.maximum(usable_cm2 / gross, die_area_mm2 / MM2_PER_CM2)


def die_yield_kernel(
    area_cm2: np.ndarray,
    defect_density_per_cm2: np.ndarray,
    model_code: np.ndarray,
    line_yield: np.ndarray,
) -> np.ndarray:
    """Vectorised :func:`repro.manufacturing.yield_model.die_yield`.

    ``model_code`` selects the statistical model per row (see
    :data:`YIELD_MODEL_CODES`); rows are masked per model so mixed
    batches (a DSE axis over yield models) stay one kernel call.
    """
    faults = np.asarray(area_cm2, dtype=np.float64) * defect_density_per_cm2
    model_code = np.broadcast_to(np.asarray(model_code), faults.shape)
    statistical = np.empty_like(faults)

    murphy = model_code == YIELD_MODEL_CODES[YieldModel.MURPHY]
    if np.any(murphy):
        f = faults[murphy]
        with np.errstate(divide="ignore", invalid="ignore"):
            curve = (-np.expm1(-f) / f) ** 2
        statistical[murphy] = np.where(f < 1.0e-12, 1.0, curve)
    poisson = model_code == YIELD_MODEL_CODES[YieldModel.POISSON]
    if np.any(poisson):
        statistical[poisson] = np.exp(-faults[poisson])
    seeds = model_code == YIELD_MODEL_CODES[YieldModel.SEEDS]
    if np.any(seeds):
        statistical[seeds] = 1.0 / (1.0 + faults[seeds])
    return statistical * line_yield


def manufacturing_per_die_kg(
    die_area_mm2: np.ndarray,
    epa_kwh_per_cm2: np.ndarray,
    gpa_kg_per_cm2: np.ndarray,
    mpa_new_kg_per_cm2: np.ndarray,
    mpa_recycled_kg_per_cm2: np.ndarray,
    defect_density_per_cm2: np.ndarray,
    line_yield: np.ndarray,
    wafer_diameter_mm: np.ndarray,
    fab_intensity_kg_per_kwh: np.ndarray,
    gas_abatement: np.ndarray,
    edge_exclusion_mm: np.ndarray,
    scribe_mm: np.ndarray,
    recycled_fraction: np.ndarray,
    yield_model_code: np.ndarray,
    charge_wafer_waste: np.ndarray,
) -> np.ndarray:
    """Vectorised :meth:`ManufacturingModel.assess_die` total (kg/good die)."""
    die_area_mm2 = np.asarray(die_area_mm2, dtype=np.float64)
    area_cm2 = np.empty_like(die_area_mm2)
    charge = np.broadcast_to(np.asarray(charge_wafer_waste, dtype=bool),
                             die_area_mm2.shape)
    any_charge = bool(np.any(charge))
    if any_charge:
        area_cm2[charge] = wafer_area_per_die_kernel(
            die_area_mm2[charge],
            np.broadcast_to(wafer_diameter_mm, die_area_mm2.shape)[charge],
            np.broadcast_to(edge_exclusion_mm, die_area_mm2.shape)[charge],
            np.broadcast_to(scribe_mm, die_area_mm2.shape)[charge],
        )
    if not np.all(charge):
        if any_charge:
            area_cm2[~charge] = (die_area_mm2 / MM2_PER_CM2)[~charge]
        else:
            np.divide(die_area_mm2, MM2_PER_CM2, out=area_cm2)
    total_yield = die_yield_kernel(
        die_area_mm2 / MM2_PER_CM2,
        defect_density_per_cm2,
        yield_model_code,
        line_yield,
    )
    # The tails below reuse finished temporaries as ``out=`` buffers
    # (``area_cm2`` is dead once ``scale`` exists, each product owns its
    # left factor): same values, same operation order, about half the
    # full-rank allocations on hot multi-comparator batches.
    scale = _into(np.divide, area_cm2, total_yield, area_cm2)
    energy = np.multiply(epa_kwh_per_cm2, fab_intensity_kg_per_kwh)
    energy = _into(np.multiply, energy, scale, energy)
    gas = np.subtract(1.0, gas_abatement)
    gas = _into(np.multiply, gpa_kg_per_cm2, gas, gas)
    gas = _into(np.multiply, gas, scale, gas)
    blended = np.multiply(recycled_fraction, mpa_recycled_kg_per_cm2)
    other = np.subtract(1.0, recycled_fraction)
    other = _into(np.multiply, other, mpa_new_kg_per_cm2, other)
    blended = _into(np.add, blended, other, blended)
    material = _into(np.multiply, blended, scale, blended)
    total = _into(np.add, energy, gas, energy)
    return _into(np.add, total, material, total)


# ----------------------------------------------------------------------
# Packaging, end-of-life
# ----------------------------------------------------------------------


def packaging_per_chip(
    die_area_mm2: np.ndarray,
    substrate_kg_per_cm2: np.ndarray,
    assembly_kwh_per_package: np.ndarray,
    assembly_intensity_kg_per_kwh: np.ndarray,
    fanout_factor: np.ndarray,
    base_kg_per_package: np.ndarray,
    mass_g_per_cm2: np.ndarray,
    base_mass_g: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :meth:`MonolithicPackagingModel.assess_package`.

    Returns ``(per_package_kg, package_mass_g)`` — the mass feeds the
    EOL kernel exactly like the scalar flow.
    """
    pkg_area_cm2 = (np.asarray(die_area_mm2, dtype=np.float64) * fanout_factor) / MM2_PER_CM2
    substrate = base_kg_per_package + substrate_kg_per_cm2 * pkg_area_cm2
    assembly = assembly_kwh_per_package * assembly_intensity_kg_per_kwh
    mass_g = base_mass_g + mass_g_per_cm2 * pkg_area_cm2
    return substrate + assembly, mass_g


def eol_per_chip_kg(
    package_mass_g: np.ndarray,
    recycled_fraction: np.ndarray,
    discard_kg_per_kg: np.ndarray,
    recycle_credit_kg_per_kg: np.ndarray,
    transport_kg_per_kg: np.ndarray,
) -> np.ndarray:
    """Vectorised :meth:`EolModel.assess_chip` total (may be negative)."""
    mass_kg = np.asarray(package_mass_g, dtype=np.float64) / 1000.0
    delta = recycled_fraction
    discard = (1.0 - delta) * discard_kg_per_kg * mass_kg
    credit = delta * recycle_credit_kg_per_kg * mass_kg
    transport = transport_kg_per_kg * mass_kg
    return discard - credit + transport


# ----------------------------------------------------------------------
# Design, operation, application development
# ----------------------------------------------------------------------


def design_project_kg(
    gates_mgates: np.ndarray,
    annual_energy_kwh_effective: np.ndarray,
    project_years: np.ndarray,
    intensity_kg_per_kwh: np.ndarray,
    avg_gates_per_chip_mgates: np.ndarray,
    gate_scaling_beta: np.ndarray,
) -> np.ndarray:
    """Vectorised :meth:`DesignModel.assess_project` total.

    ``annual_energy_kwh_effective`` is the report energy with overhead
    and allocation already applied (that product is comparator data, not
    scenario data, so it is folded during extraction).
    """
    gate_scale = (
        np.asarray(gates_mgates, dtype=np.float64) / avg_gates_per_chip_mgates
    ) ** gate_scaling_beta
    return annual_energy_kwh_effective * project_years * intensity_kg_per_kwh * gate_scale


def operation_per_chip_year_kg(
    power_w: np.ndarray,
    duty_cycle: np.ndarray,
    idle_fraction_of_peak: np.ndarray,
    pue: np.ndarray,
    intensity_kg_per_kwh: np.ndarray,
) -> np.ndarray:
    """Vectorised :meth:`OperationModel.per_chip_year_kg`."""
    # Same chain as before, accumulated through owned temporaries with
    # ``out=`` where shapes permit (see :func:`_into`): the duty prefix
    # collapses to one buffer instead of three full-rank temporaries.
    idle = np.subtract(1.0, duty_cycle)
    idle = _into(np.multiply, idle, idle_fraction_of_peak, idle)
    effective_duty = _into(np.add, duty_cycle, idle, idle)
    effective_duty = _into(np.multiply, effective_duty, pue, effective_duty)
    energy = np.divide(np.asarray(power_w, dtype=np.float64), 1000.0)
    energy = _into(np.multiply, energy, effective_duty, energy)
    energy = _into(np.multiply, energy, HOURS_PER_YEAR, energy)
    return _into(np.multiply, intensity_kg_per_kwh, energy, energy)
