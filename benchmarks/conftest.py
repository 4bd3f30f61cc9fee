"""Shared fixtures for the benchmark harness.

Each bench regenerates one paper artifact, asserting the paper's
qualitative shape on the produced data so a calibration regression
fails the bench rather than silently shifting numbers.
"""

from __future__ import annotations

import pytest

from repro.core.suite import ModelSuite


@pytest.fixture(scope="session")
def suite() -> ModelSuite:
    """Calibrated default suite shared by all benches."""
    return ModelSuite.default()
