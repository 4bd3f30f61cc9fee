"""Shared fixtures for the GreenFPGA test suite."""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.core.suite import ModelSuite
from repro.data.nodes import get_node
from repro.devices.asic import AsicDevice
from repro.devices.fpga import FpgaDevice

# Tier-1 passes or fails on behaviour alone: every @given test draws the
# same examples on every run, and no example database is written.
# Hypothesis still caches the literals it mines from local source; that
# cache goes to a session directory deleted at exit, not the checkout.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)


@pytest.fixture(scope="session")
def suite() -> ModelSuite:
    """Default calibrated model suite (expensive to rebuild per test)."""
    return ModelSuite.default()


@pytest.fixture
def baseline_scenario() -> Scenario:
    """The paper's common baseline: N_app=5, T_i=2 y, N_vol=1e6."""
    return Scenario(num_apps=5, app_lifetime_years=2.0, volume=1_000_000)


@pytest.fixture
def small_scenario() -> Scenario:
    """A light scenario for fast assessments."""
    return Scenario(num_apps=2, app_lifetime_years=1.0, volume=10_000)


@pytest.fixture
def node10():
    """The 10 nm technology node (the paper's testcase node)."""
    return get_node("10nm")


@pytest.fixture
def dnn_comparator(suite: ModelSuite) -> PlatformComparator:
    """Iso-performance comparator for the DNN domain."""
    return PlatformComparator.for_domain("dnn", suite)


@pytest.fixture
def simple_fpga() -> FpgaDevice:
    """A small FPGA used by unit tests."""
    return FpgaDevice(name="test-fpga", area_mm2=200.0, node_name="10nm", peak_power_w=10.0)


@pytest.fixture
def simple_asic() -> AsicDevice:
    """A small ASIC used by unit tests."""
    return AsicDevice(name="test-asic", area_mm2=100.0, node_name="10nm", peak_power_w=5.0)
