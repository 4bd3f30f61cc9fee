"""Bench: regenerate Fig. 8 (pairwise-sweep heatmaps, DNN)."""

import numpy as np
import pytest

from repro.experiments import fig8_heatmaps


@pytest.mark.parametrize("held", [p[0] for p in fig8_heatmaps.PANELS])
def test_bench_fig8(suite, held):
    result = fig8_heatmaps.panel(held, suite)
    assert result.ratios.shape == (len(result.y_values), len(result.x_values))
    assert np.all(result.ratios > 0.0)
    # The grid must contain both regimes (a boundary exists on every panel).
    mask = result.fpga_sustainable_mask()
    assert mask.any() and not mask.all()
    assert result.boundary_cells()


def test_bench_fig8_structure(suite):
    """Paper: ratio falls with N_app, rises with T_i and N_vol."""
    result = fig8_heatmaps.panel("volume", suite)  # x=num_apps, y=lifetime
    ratios = result.ratios
    # Along increasing N_app (columns), ratio is non-increasing.
    assert np.all(np.diff(ratios, axis=1) <= 1e-9)
    # Along increasing lifetime (rows), ratio is non-decreasing — except at
    # N_app = 1, where the FPGA's embodied dominance (ratio > the 3x power
    # ratio) makes the ratio *fall* toward 3 as operation accumulates.
    assert np.all(np.diff(ratios[:, 1:], axis=0) >= -1e-9)
