"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation perturbs one modelling decision and checks the documented
effect on the headline DNN comparison, quantifying how load-bearing the
choice is.
"""

import pytest

from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.core.suite import ModelSuite
from repro.design.model import DesignModel
from repro.manufacturing.act import ManufacturingModel
from repro.operation.model import OperationModel

BASELINE = Scenario(num_apps=5, app_lifetime_years=2.0, volume=1_000_000)


def _ratio_with(suite):
    return PlatformComparator.for_domain("dnn", suite).ratio(BASELINE)


@pytest.mark.parametrize("yield_model", ["murphy", "poisson", "seeds"])
def test_bench_ablation_yield_model(yield_model):
    """Yield-model choice: Poisson punishes the 4x-area FPGA hardest."""
    suite = ModelSuite.default().with_overrides(
        manufacturing=ManufacturingModel(yield_model=yield_model)
    )
    ratio = _ratio_with(suite)
    assert ratio > 0.0
    seeds = _ratio_with(
        ModelSuite.default().with_overrides(
            manufacturing=ManufacturingModel(yield_model="seeds")
        )
    )
    poisson = _ratio_with(
        ModelSuite.default().with_overrides(
            manufacturing=ManufacturingModel(yield_model="poisson")
        )
    )
    assert poisson >= seeds  # clustered defects favour big FPGA dies


@pytest.mark.parametrize("beta", [0.0, 0.35, 1.0])
def test_bench_ablation_design_beta(beta):
    """Gate-scaling exponent: beta=1 (the paper's literal form) makes the
    FPGA's larger silicon carry proportionally larger design CFP."""
    suite = ModelSuite.default().with_overrides(
        design=DesignModel(gate_scaling_beta=beta)
    )
    ratio = _ratio_with(suite)
    assert ratio > 0.0
    flat = _ratio_with(
        ModelSuite.default().with_overrides(design=DesignModel(gate_scaling_beta=0.0))
    )
    proportional = _ratio_with(
        ModelSuite.default().with_overrides(design=DesignModel(gate_scaling_beta=1.0))
    )
    assert proportional > flat


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
def test_bench_ablation_recycled_materials(rho):
    """Eq. (5) recycled sourcing: helps the larger-silicon FPGA more."""
    suite = ModelSuite.default().with_overrides(
        manufacturing=ManufacturingModel(recycled_fraction=rho)
    )
    ratio = _ratio_with(suite)
    assert ratio > 0.0
    base = _ratio_with(ModelSuite.default())
    full = _ratio_with(
        ModelSuite.default().with_overrides(
            manufacturing=ManufacturingModel(recycled_fraction=1.0)
        )
    )
    assert full <= base + 1e-9


@pytest.mark.parametrize("source", ["wind", "green_datacenter", "coal"])
def test_bench_ablation_grid_intensity(source):
    """Use-phase grid: dirty grids penalise the 3x-power FPGA."""
    suite = ModelSuite.default().with_overrides(
        operation=OperationModel(energy_source=source)
    )
    ratio = _ratio_with(suite)
    assert ratio > 0.0
    clean = _ratio_with(
        ModelSuite.default().with_overrides(operation=OperationModel(energy_source="wind"))
    )
    dirty = _ratio_with(
        ModelSuite.default().with_overrides(operation=OperationModel(energy_source="coal"))
    )
    assert dirty > clean
