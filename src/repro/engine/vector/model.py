"""The vector lifecycle model: written once, run by two interpreters.

Every kernel sub-model (wafer geometry, yield, manufacturing,
packaging, EOL, design, operation), the side-constant extraction from
the 57-column :class:`~repro.engine.vector.params.ParameterBatch`
registry and the scenario composition live here, each exactly once, in
the scalar models' operation order.  They compute through an ``ops``
argument that supplies one small set of operations:

* arithmetic — ``add``, ``sub``, ``mul``, ``div``, ``neg``, ``pow``,
  ``sqrt``, ``ceil``, ``floor``, ``maximum``, ``exp``, ``expm1``,
  ``less`` and ``isnan``, plus ``div_exact``: ``a / b`` correctly
  rounded on every interpreter, for a quotient that feeds ``ceil``
  (the deferred ``div`` multiplies by a scalar divisor's reciprocal,
  which can move the quotient by an ulp and across an integer);
* ``fold(*xs)`` — the per-application left fold over the batch's
  application counts, and ``app(x)``, which lifts a row column onto the
  per-application lifetime axis;
* ``switch(key, cases, *operands)`` — the uniform-or-mixed select: each
  row evaluates the case its ``key`` value names (``None`` is the
  default case) on its own operands;
* ``reject(x, cmp, limit, message)`` — the capacity checks: a
  :class:`~repro.errors.CapacityError` when ``cmp(x, limit)`` holds for
  any row;
* ``aligned(*xs)`` — operands that a sub-model selects rows of share
  one shape.

Two interpreters run this source: the eager
:class:`~repro.engine.vector.kernels.NumpyOps` (the kernel chain behind
``BatchResult``) and the deferred
:class:`~repro.engine.vector.fused.DeferredOps` (the fused tier).  A
sub-model changes here and both tiers pick up the change; their parity
holds by construction, up to the deferred interpreter's reassociation
of scalar algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.engine.vector import params as P
from repro.engine.vector.kernels import YIELD_MODEL_CODES, NumpyOps
from repro.manufacturing.yield_model import YieldModel
from repro.units import HOURS_PER_YEAR, MM2_PER_CM2, RETICLE_LIMIT_MM2

#: ArrayLike scalar-or-column type for per-side constants.
Column = "float | np.ndarray"

#: Epsilon subtracted before ``ceil`` in chip-generation counts, so a
#: study horizon that is an exact multiple of the chip lifetime does not
#: buy one spurious extra generation to float rounding.
GENERATIONS_EPSILON = 1.0e-9

#: The eager interpreter for callers that hold plain columns or scalars.
EAGER = NumpyOps()


@dataclass(frozen=True)
class SideConstants:
    """Per-chip constants of one platform side (scalars or row columns).

    Scalar fields broadcast over the scenario batch (same-comparator
    path); ndarray fields carry one value per row (multi-comparator
    path).  Either way the composition is identical.
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


# ----------------------------------------------------------------------
# Manufacturing: wafer geometry + yield + carbon-per-area
# ----------------------------------------------------------------------

_RETICLE_MESSAGE = (
    "die area {worst:.0f} mm^2 exceeds the reticle limit "
    f"({RETICLE_LIMIT_MM2:.0f} mm^2); split the design across chips"
)


def wafer_area_per_die_cm2(ops, die_area_mm2, wafer_diameter_mm,
                           edge_exclusion_mm, scribe_mm):
    """:func:`repro.manufacturing.wafer.wafer_area_per_die_cm2`, with
    the gross-die count of :func:`~repro.manufacturing.wafer.dies_per_wafer`."""
    ops.reject(die_area_mm2, np.greater, RETICLE_LIMIT_MM2, _RETICLE_MESSAGE)
    side_mm = ops.add(ops.sqrt(die_area_mm2), scribe_mm)
    footprint_mm2 = ops.pow(side_mm, 2.0)
    usable_mm = ops.sub(wafer_diameter_mm, ops.mul(2.0, edge_exclusion_mm))
    area_term = ops.div(
        ops.mul(np.pi, ops.pow(ops.div(usable_mm, 2.0), 2.0)), footprint_mm2
    )
    edge_term = ops.div(
        ops.mul(np.pi, usable_mm), ops.sqrt(ops.mul(2.0, footprint_mm2))
    )
    gross = ops.floor(ops.sub(area_term, edge_term))
    ops.reject(gross, np.less, 1.0,
               "a die in the batch does not fit on its wafer")
    radius_mm = ops.sub(ops.div(wafer_diameter_mm, 2.0), edge_exclusion_mm)
    ops.reject(radius_mm, np.less_equal, 0.0,
               "edge exclusion leaves no usable wafer area")
    usable_cm2 = ops.div(ops.mul(np.pi, ops.pow(radius_mm, 2.0)), MM2_PER_CM2)
    return ops.maximum(
        ops.div(usable_cm2, gross), ops.div(die_area_mm2, MM2_PER_CM2)
    )


def _murphy_curve(ops, faults):
    ramp = ops.div(ops.neg(ops.expm1(ops.neg(faults))), faults)
    return ops.pow(ramp, 2.0)


#: Murphy's curve tends to 1 as the expected faults vanish.
_MURPHY = {True: lambda ops, faults: 1.0, False: _murphy_curve}


#: Statistical yield curve per :data:`YIELD_MODEL_CODES` value.
_YIELD_CURVES = {
    YIELD_MODEL_CODES[YieldModel.MURPHY]: lambda ops, faults: ops.switch(
        ops.less(faults, 1.0e-12), _MURPHY, faults
    ),
    YIELD_MODEL_CODES[YieldModel.POISSON]:
        lambda ops, faults: ops.exp(ops.neg(faults)),
    YIELD_MODEL_CODES[YieldModel.SEEDS]:
        lambda ops, faults: ops.div(1.0, ops.add(1.0, faults)),
}


def die_yield(ops, area_cm2, defect_density_per_cm2, model_code, line_yield):
    """:func:`repro.manufacturing.yield_model.die_yield`, one statistical
    model per row (``model_code``, see :data:`YIELD_MODEL_CODES`)."""
    faults = ops.mul(area_cm2, defect_density_per_cm2)
    return ops.mul(ops.switch(model_code, _YIELD_CURVES, faults), line_yield)


#: Wafer area charged per die: the die itself, or (the default) its
#: share of the whole wafer including edge waste.
_CHARGED_AREA = {
    0.0: lambda ops, area, *_: ops.div(area, MM2_PER_CM2),
    None: wafer_area_per_die_cm2,
}


def manufacturing_per_die_kg(
    ops, die_area_mm2, epa_kwh_per_cm2, gpa_kg_per_cm2, mpa_new_kg_per_cm2,
    mpa_recycled_kg_per_cm2, defect_density_per_cm2, line_yield,
    wafer_diameter_mm, fab_intensity_kg_per_kwh, gas_abatement,
    edge_exclusion_mm, scribe_mm, recycled_fraction, yield_model_code,
    charge_wafer_waste,
):
    """:meth:`ManufacturingModel.assess_die` total (kg per good die)."""
    area_cm2 = ops.switch(
        charge_wafer_waste, _CHARGED_AREA,
        die_area_mm2, wafer_diameter_mm, edge_exclusion_mm, scribe_mm,
    )
    total_yield = die_yield(
        ops, ops.div(die_area_mm2, MM2_PER_CM2), defect_density_per_cm2,
        yield_model_code, line_yield,
    )
    scale = ops.div(area_cm2, total_yield)
    energy = ops.mul(ops.mul(epa_kwh_per_cm2, fab_intensity_kg_per_kwh), scale)
    gas = ops.mul(ops.mul(gpa_kg_per_cm2, ops.sub(1.0, gas_abatement)), scale)
    blended = ops.mul(recycled_fraction, mpa_recycled_kg_per_cm2)
    other = ops.mul(ops.sub(1.0, recycled_fraction), mpa_new_kg_per_cm2)
    material = ops.mul(ops.add(blended, other), scale)
    return ops.add(ops.add(energy, gas), material)


# ----------------------------------------------------------------------
# Packaging, end-of-life, design, operation
# ----------------------------------------------------------------------


def packaging_per_chip(
    ops, die_area_mm2, substrate_kg_per_cm2, assembly_kwh_per_package,
    assembly_intensity_kg_per_kwh, fanout_factor, base_kg_per_package,
    mass_g_per_cm2, base_mass_g,
):
    """:meth:`MonolithicPackagingModel.assess_package`:
    ``(per_package_kg, package_mass_g)``; the mass feeds EOL."""
    pkg_area_cm2 = ops.div(ops.mul(die_area_mm2, fanout_factor), MM2_PER_CM2)
    substrate = ops.add(
        base_kg_per_package, ops.mul(substrate_kg_per_cm2, pkg_area_cm2)
    )
    assembly = ops.mul(assembly_kwh_per_package, assembly_intensity_kg_per_kwh)
    mass_g = ops.add(base_mass_g, ops.mul(mass_g_per_cm2, pkg_area_cm2))
    return ops.add(substrate, assembly), mass_g


def eol_per_chip_kg(
    ops, package_mass_g, recycled_fraction, discard_kg_per_kg,
    recycle_credit_kg_per_kg, transport_kg_per_kg,
):
    """:meth:`EolModel.assess_chip` total (may be negative)."""
    mass_kg = ops.div(package_mass_g, 1000.0)
    discard = ops.mul(
        ops.mul(ops.sub(1.0, recycled_fraction), discard_kg_per_kg), mass_kg
    )
    credit = ops.mul(
        ops.mul(recycled_fraction, recycle_credit_kg_per_kg), mass_kg
    )
    transport = ops.mul(transport_kg_per_kg, mass_kg)
    return ops.add(ops.sub(discard, credit), transport)


def design_project_kg(
    ops, gates_mgates, annual_energy_kwh_effective, project_years,
    intensity_kg_per_kwh, avg_gates_per_chip_mgates, gate_scaling_beta,
):
    """:meth:`DesignModel.assess_project` total.

    ``annual_energy_kwh_effective`` is the report energy with overhead
    and allocation already applied (comparator data, folded during
    extraction).
    """
    gate_scale = ops.pow(
        ops.div(gates_mgates, avg_gates_per_chip_mgates), gate_scaling_beta
    )
    total = ops.mul(annual_energy_kwh_effective, project_years)
    return ops.mul(ops.mul(total, intensity_kg_per_kwh), gate_scale)


def operation_per_chip_year_kg(
    ops, power_w, duty_cycle, idle_fraction_of_peak, pue, intensity_kg_per_kwh,
):
    """:meth:`OperationModel.per_chip_year_kg`."""
    idle = ops.mul(ops.sub(1.0, duty_cycle), idle_fraction_of_peak)
    effective_duty = ops.mul(ops.add(duty_cycle, idle), pue)
    energy = ops.mul(ops.div(power_w, 1000.0), effective_duty)
    energy = ops.mul(energy, HOURS_PER_YEAR)
    return ops.mul(intensity_kg_per_kwh, energy)


def generations(ops, years, chip_lifetime_years):
    """Chip generations consumed over ``years`` (the paper's repurchase
    count; at least 1)."""
    per_chip = ops.div_exact(years, chip_lifetime_years)
    return ops.maximum(1.0, ops.ceil(ops.sub(per_chip, GENERATIONS_EPSILON)))


def chip_generations(years: float, chip_lifetime_years: float) -> int:
    """:func:`generations` of one scalar row, as an ``int``.

    Shared by the store's packing and :meth:`BatchResult.from_results`,
    so warm gathers can never drift from cold kernel runs.
    """
    return int(generations(EAGER, years, chip_lifetime_years))


# ----------------------------------------------------------------------
# Side constants from the parameter registry
# ----------------------------------------------------------------------

#: Registry columns of each platform side: area, power, chip lifetime,
#: gates, EPA, GPA, new and recycled MPA, defect density, line yield,
#: wafer diameter, team years, app-dev kg, config hours per unit and
#: (FPGA only) capacity.
_SIDE_COLUMNS = {
    True: (P.F_AREA, P.F_POWER, P.F_LIFE, P.F_GATES, P.F_EPA, P.F_GPA,
           P.F_MPA_NEW, P.F_MPA_REC, P.F_DEFECT, P.F_LINE_YIELD,
           P.F_WAFER_D, P.F_TEAM_YEARS, P.F_DEV_KG, P.F_CHPU, P.F_CAPACITY),
    False: (P.A_AREA, P.A_POWER, P.A_LIFE, P.A_GATES, P.A_EPA, P.A_GPA,
            P.A_MPA_NEW, P.A_MPA_REC, P.A_DEFECT, P.A_LINE_YIELD,
            P.A_WAFER_D, P.A_TEAM_YEARS, P.A_DEV_KG, P.A_CHPU, None),
}


def side_constants(ops, p, *, fpga_side: bool) -> SideConstants:
    """Per-chip constant columns of one side from a :class:`ParameterBatch`.

    Every column is a per-row array or a length-1 broadcast value, so a
    sub-model whose inputs are all broadcast values yields a broadcast
    constant: a Monte-Carlo batch perturbing only the operational
    intensity computes manufacturing, packaging, EOL and design once.
    """
    (area, power, life, gates, epa, gpa, mpa_new, mpa_rec, defect,
     line_yield, wafer_d, team_years, dev_kg, chpu, capacity) = (
        None if index is None else p.col(index)
        for index in _SIDE_COLUMNS[fpga_side]
    )
    mfg = manufacturing_per_die_kg(ops, *ops.aligned(
        area, epa, gpa, mpa_new, mpa_rec, defect, line_yield, wafer_d,
        p.col(P.MFG_FAB_CI), p.col(P.MFG_ABATE), p.col(P.MFG_EDGE),
        p.col(P.MFG_SCRIBE), p.col(P.MFG_RHO), p.col(P.MFG_YIELD_CODE),
        p.col(P.MFG_CHARGE),
    ))
    pkg, mass_g = packaging_per_chip(
        ops, area, p.col(P.PKG_SUB), p.col(P.PKG_ASM_KWH),
        p.col(P.PKG_ASM_CI), p.col(P.PKG_FANOUT), p.col(P.PKG_BASE_KG),
        p.col(P.PKG_MASS_CM2), p.col(P.PKG_BASE_MASS),
    )
    eol = eol_per_chip_kg(
        ops, mass_g, p.col(P.EOL_DELTA), p.col(P.EOL_DISCARD),
        p.col(P.EOL_CREDIT), p.col(P.EOL_TRANSPORT),
    )
    design = design_project_kg(
        ops, gates, p.col(P.DES_ANNUAL_KWH), team_years, p.col(P.DES_CI),
        p.col(P.DES_AVG_GATES), p.col(P.DES_BETA),
    )
    op = operation_per_chip_year_kg(
        ops, power, p.col(P.OP_DUTY), p.col(P.OP_IDLE), p.col(P.OP_PUE),
        p.col(P.OP_CI),
    )
    return SideConstants(
        design_kg=design,
        mfg_per_chip_kg=mfg,
        pkg_per_chip_kg=pkg,
        eol_per_chip_kg=eol,
        per_chip_embodied_kg=ops.add(ops.add(mfg, pkg), eol),
        op_per_chip_year_kg=op,
        appdev_dev_kg=dev_kg,
        appdev_config_kw=p.col(P.AD_CONFIG_KW),
        appdev_config_hours_per_unit=chpu,
        appdev_intensity=p.col(P.AD_CI),
        chip_lifetime_years=life,
        capacity_mgates=capacity,
    )


# ----------------------------------------------------------------------
# Composition: scenario accounting over the side constants
# ----------------------------------------------------------------------


class Lifecycle(NamedTuple):
    """Composed terms of one batch (values as the interpreter holds them).

    Component dicts are keyed like :attr:`CarbonFootprint.COMPONENTS`;
    ``asic_per_app`` holds the per-application ASIC terms before the
    fold, ``asic_generations`` has the lifetime's shape.
    """

    n_fpga: object
    fpga_generations: object
    asic_generations: object
    fpga: dict
    asic: dict
    asic_per_app: dict
    fpga_total: object
    asic_total: object


#: ``N_FPGA = ceil(app_size / capacity)``, 1 when sized to the device.
_FPGA_UNITS = {
    True: lambda ops, size, capacity: 1.0,
    False: lambda ops, size, capacity: ops.maximum(
        1.0, ops.ceil(ops.div_exact(size, capacity))
    ),
}

#: The study horizon: the summed application lifetimes unless overridden.
_HORIZON = {
    True: lambda ops, total_years, override: total_years,
    False: lambda ops, total_years, override: override,
}

#: FPGA chip generations over the horizon (Fig. 9), 1 unless enforced.
_FPGA_GENERATIONS = {
    True: generations,
    False: lambda ops, horizon, chip_lifetime_years: 1.0,
}


def _total(ops, parts: dict):
    embodied = ops.add(
        ops.add(ops.add(parts["design"], parts["manufacturing"]),
                parts["packaging"]),
        parts["eol"],
    )
    return ops.add(embodied, ops.add(parts["operational"], parts["appdev"]))


def compose(
    ops, fpga: SideConstants, asic: SideConstants, volume, lifetime,
    evaluation_years, app_size_mgates, enforce_chip_lifetime, zeros,
) -> Lifecycle:
    """Scenario accounting over per-chip constants.

    Mirrors :meth:`FpgaLifecycleModel.assess` /
    :meth:`AsicLifecycleModel.assess` operation for operation, including
    the per-application left folds, so exact constants give the scalar
    results bit for bit on the eager interpreter.  ``zeros`` is the
    interpreter's zero row (``0 + x`` gives ``x`` the batch's rank).
    """
    app = ops.app
    n_fpga = ops.switch(
        ops.isnan(app_size_mgates), _FPGA_UNITS,
        app_size_mgates, fpga.capacity_mgates,
    )
    unit_f = ops.mul(volume, n_fpga)

    op_app = ops.mul(
        ops.mul(lifetime, app(unit_f)), app(fpga.op_per_chip_year_kg)
    )
    config_hours = ops.mul(fpga.appdev_config_hours_per_unit, unit_f)
    configuration = ops.mul(
        ops.mul(fpga.appdev_config_kw, config_hours), fpga.appdev_intensity
    )
    appdev_app = ops.add(fpga.appdev_dev_kg, configuration)

    asic_gen = generations(ops, lifetime, app(asic.chip_lifetime_years))
    chips = ops.mul(app(volume), asic_gen)
    a_config_hours = ops.mul(asic.appdev_config_hours_per_unit, volume)
    a_configuration = ops.mul(
        ops.mul(asic.appdev_config_kw, a_config_hours), asic.appdev_intensity
    )
    asic_per_app = {
        "design": ops.add(zeros, asic.design_kg),
        "manufacturing": ops.mul(app(asic.mfg_per_chip_kg), chips),
        "packaging": ops.mul(app(asic.pkg_per_chip_kg), chips),
        "eol": ops.mul(app(asic.eol_per_chip_kg), chips),
        "appdev": ops.add(asic.appdev_dev_kg, a_configuration),
        "operational": ops.mul(
            ops.mul(lifetime, app(volume)), app(asic.op_per_chip_year_kg)
        ),
    }
    total_years, f_op, f_appdev, *asic_folded = ops.fold(
        lifetime, op_app, appdev_app, *asic_per_app.values()
    )
    asic_parts = dict(zip(asic_per_app, asic_folded))

    horizon = ops.switch(
        ops.isnan(evaluation_years), _HORIZON, total_years, evaluation_years
    )
    fpga_gen = ops.switch(
        enforce_chip_lifetime, _FPGA_GENERATIONS,
        horizon, fpga.chip_lifetime_years,
    )
    fleet = ops.mul(unit_f, fpga_gen)
    fpga_parts = {
        "design": ops.add(zeros, fpga.design_kg),
        "manufacturing": ops.mul(fpga.mfg_per_chip_kg, fleet),
        "packaging": ops.mul(fpga.pkg_per_chip_kg, fleet),
        "eol": ops.mul(fpga.eol_per_chip_kg, fleet),
        "appdev": f_appdev,
        "operational": f_op,
    }
    return Lifecycle(
        n_fpga=n_fpga,
        fpga_generations=fpga_gen,
        asic_generations=asic_gen,
        fpga=fpga_parts,
        asic=asic_parts,
        asic_per_app=asic_per_app,
        fpga_total=_total(ops, fpga_parts),
        asic_total=_total(ops, asic_parts),
    )
