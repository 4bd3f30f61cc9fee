"""Extension experiment: uncertainty and sensitivity over Table 1 ranges.

The paper's Section 5 discusses validation limits qualitatively; this
experiment quantifies them.  Every Table 1-style knob is sampled over
its published range (Monte Carlo) and swept one-at-a-time (tornado),
reporting the distribution of the DNN FPGA:ASIC ratio and which
assumptions can flip the verdict.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.montecarlo import ParameterDistribution, monte_carlo_batch
from repro.analysis.sensitivity import tornado
from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.core.suite import ModelSuite
from repro.design.model import DesignModel
from repro.engine import resolve_engine
from repro.engine.vector import params as pcols
from repro.engine.vector.params import design_cols, eol_cols, mfg_cols
from repro.eol.model import EolModel
from repro.experiments.base import ExperimentReport
from repro.manufacturing.act import ManufacturingModel
from repro.operation.energy import OperatingProfile
from repro.operation.model import OperationModel
from repro.units import GRAMS_PER_KG

BASELINE = Scenario(num_apps=5, app_lifetime_years=2.0, volume=1_000_000)
N_SAMPLES = 300


def _with_suite(comparator, **overrides):
    return dataclasses.replace(
        comparator, suite=comparator.suite.with_overrides(**overrides)
    )


def _set_use_intensity(comparator, value):
    return _with_suite(
        comparator,
        operation=OperationModel(
            energy_source=value, profile=comparator.suite.operation.profile
        ),
    )


def _set_duty(comparator, value):
    operation = comparator.suite.operation
    return _with_suite(
        comparator,
        operation=OperationModel(
            energy_source=operation.energy_source,
            profile=OperatingProfile(duty_cycle=value),
        ),
    )


def _set_rho(comparator, value):
    return _with_suite(
        comparator, manufacturing=ManufacturingModel(recycled_fraction=value)
    )


def _set_delta(comparator, value):
    return _with_suite(comparator, eol=EolModel(recycled_fraction=value))


def _set_design_intensity(comparator, value):
    return _with_suite(comparator, design=DesignModel(energy_source=value))


# Columnar twins of the apply callbacks above: each writes exactly the
# parameter columns its object twin perturbs (the object callbacks
# rebuild whole sub-models, so defaulted sibling knobs are re-pinned to
# the rebuilt model's defaults, keeping the two paths draw-identical).


def _use_intensity_cols(params, values):
    # Out of place on purpose: ``values`` doubles as the recorded draw
    # in the materialized path, so the unit conversion must not mutate
    # it.
    params.set_col(pcols.OP_CI, np.divide(values, GRAMS_PER_KG))


def _duty_cols(params, values):
    profile = OperatingProfile()  # _set_duty resets idle/PUE to defaults
    params.set_col(pcols.OP_DUTY, values)
    params.set_col(pcols.OP_IDLE, profile.idle_fraction_of_peak)
    params.set_col(pcols.OP_PUE, profile.pue)


def _rho_cols(params, values):
    defaults = mfg_cols(ManufacturingModel())  # rho's siblings reset too
    for index, value in zip(
        (pcols.MFG_FAB_CI, pcols.MFG_ABATE, pcols.MFG_EDGE, pcols.MFG_SCRIBE,
         pcols.MFG_RHO, pcols.MFG_YIELD_CODE, pcols.MFG_CHARGE),
        defaults,
    ):
        params.set_col(index, value)
    params.set_col(pcols.MFG_RHO, values)


def _delta_cols(params, values):
    defaults = eol_cols(EolModel())
    for index, value in zip(
        (pcols.EOL_DELTA, pcols.EOL_DISCARD, pcols.EOL_CREDIT,
         pcols.EOL_TRANSPORT),
        defaults,
    ):
        params.set_col(index, value)
    params.set_col(pcols.EOL_DELTA, values)


def _design_intensity_cols(params, values):
    defaults = design_cols(DesignModel(energy_source=1.0))
    params.set_col(pcols.DES_ANNUAL_KWH, defaults[0])
    params.set_col(pcols.DES_CI, np.divide(values, GRAMS_PER_KG))
    params.set_col(pcols.DES_AVG_GATES, defaults[2])
    params.set_col(pcols.DES_BETA, defaults[3])


def distributions() -> list[ParameterDistribution]:
    """Table 1-range distributions for the uncertainty study.

    Every knob carries both the object ``apply`` callback and its
    columnar ``apply_column`` twin, so :func:`monte_carlo_batch` runs
    fully columnar — draws are sampled straight into parameter columns
    and no per-draw comparator objects exist.
    """
    return [
        ParameterDistribution("use_intensity_g_per_kwh", 30.0, 700.0,
                              _set_use_intensity, kind="loguniform",
                              apply_column=_use_intensity_cols),
        ParameterDistribution("duty_cycle", 0.05, 0.95, _set_duty,
                              apply_column=_duty_cols),
        ParameterDistribution("recycled_material_rho", 0.0, 1.0, _set_rho,
                              apply_column=_rho_cols),
        ParameterDistribution("eol_recycled_delta", 0.0, 1.0, _set_delta,
                              apply_column=_delta_cols),
        ParameterDistribution("design_intensity_g_per_kwh", 30.0, 700.0,
                              _set_design_intensity, kind="loguniform",
                              apply_column=_design_intensity_cols),
    ]


def run(suite: ModelSuite | None = None) -> ExperimentReport:
    """Run the Monte-Carlo + tornado study for the DNN domain."""
    comparator = PlatformComparator.for_domain("dnn", suite)
    dists = distributions()

    # The Monte-Carlo study runs through the vector kernel's
    # multi-comparator path (every draw is one model-parameter row); the
    # small tornado sweep runs on the same default engine.
    engine = resolve_engine(None)
    mc = monte_carlo_batch(
        comparator, BASELINE, dists, n_samples=N_SAMPLES, engine=engine
    )
    sens = tornado(comparator, BASELINE, dists, engine=engine)

    report = ExperimentReport(
        experiment_id="ext_uncertainty",
        title="Extension: uncertainty over Table 1 parameter ranges",
        description=(
            f"{N_SAMPLES} Monte-Carlo draws and a one-at-a-time tornado "
            "sweep over the published input ranges, DNN domain at the "
            "paper baseline (N_app=5, T_i=2 y, N_vol=1e6)."
        ),
    )
    report.add_table("monte_carlo_summary", [mc.summary()])
    report.add_table(
        "ratio_quantiles",
        [{"quantile": q, "ratio": v} for q, v in mc.quantiles().items()],
    )
    report.add_table("tornado", sens.rows())
    flippers = [e.name for e in sens.entries if e.flips_winner]
    report.add_note(
        f"P(FPGA greener) = {mc.fpga_win_probability:.1%} under Table 1 "
        "uncertainty"
    )
    report.add_note(
        "knobs that alone can flip the winner: " + (", ".join(flippers) or "none")
    )
    return report
