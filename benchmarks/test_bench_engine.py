"""Bench: the shared evaluation engine on its two headline workloads.

Runs the engine on (a) a dense heatmap grid, where a warm cache serves
the whole grid without recomputation, and (b) a 2000-draw Monte-Carlo
run batched through ``evaluate_pairs``.  Each bench asserts the engine
results stay identical to a fresh computation; the warm-over-cold
speed bound on the same grid is gated by ``benchmarks/timing_gates.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.heatmap import pairwise_heatmap
from repro.analysis.montecarlo import ParameterDistribution, monte_carlo
from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.engine import EvaluationEngine
from repro.operation.model import OperationModel

BASELINE = Scenario(num_apps=5, app_lifetime_years=2.0, volume=1_000_000)

#: Dense Fig. 8-style grid: 30 x 30 = 900 cells.
NUM_APPS_VALUES = tuple(range(1, 31))
LIFETIME_VALUES = tuple(float(t) for t in np.linspace(0.5, 3.0, 30))

N_MC_DRAWS = 2_000


def _set_use_intensity(comparator, value):
    suite = comparator.suite.with_overrides(
        operation=OperationModel(
            energy_source=value, profile=comparator.suite.operation.profile
        )
    )
    return dataclasses.replace(comparator, suite=suite)


@pytest.fixture(scope="module")
def comparator(suite):
    return PlatformComparator.for_domain("dnn", suite)


def dense_heatmap(comparator, engine):
    return pairwise_heatmap(
        comparator, BASELINE,
        "num_apps", NUM_APPS_VALUES,
        "lifetime", LIFETIME_VALUES,
        engine=engine,
    )


def test_bench_engine_heatmap_warm_cache(comparator):
    """Dense 900-cell grid served from a warm engine cache."""
    engine = EvaluationEngine(cache_size=8192)
    cold = dense_heatmap(comparator, engine)  # populate

    result = dense_heatmap(comparator, engine)

    np.testing.assert_array_equal(result.ratios, cold.ratios)
    stats = engine.cache_stats
    assert stats.misses == len(NUM_APPS_VALUES) * len(LIFETIME_VALUES)
    assert stats.hits >= stats.misses  # the second pass was cache-served


def test_bench_engine_heatmap_cold(comparator):
    """The same grid computed from scratch — the baseline the cache beats."""
    result = dense_heatmap(comparator, EvaluationEngine(cache_size=0))
    assert result.ratios.shape == (len(LIFETIME_VALUES), len(NUM_APPS_VALUES))
    assert np.all(np.isfinite(result.ratios)) and np.all(result.ratios > 0.0)


def test_bench_engine_monte_carlo_2k(comparator):
    """2000-draw Monte-Carlo batched through the engine."""
    dists = [
        ParameterDistribution("use_intensity", 30.0, 700.0, _set_use_intensity,
                              kind="loguniform"),
    ]
    engine = EvaluationEngine(cache_size=4096)

    result = monte_carlo(comparator, BASELINE, dists, n_samples=N_MC_DRAWS,
                         seed=2024, engine=engine)

    assert result.n_samples == N_MC_DRAWS
    assert 0.0 <= result.fpga_win_probability <= 1.0
    assert result.n_non_finite == 0
    # Determinism through the cache: a fresh engine reproduces the draws.
    check = monte_carlo(comparator, BASELINE, dists, n_samples=N_MC_DRAWS,
                        seed=2024, engine=EvaluationEngine())
    np.testing.assert_array_equal(result.ratios, check.ratios)
