"""Tests for the columnar parameter-space pipeline.

Covers :class:`ParameterBatch` mechanics, parameter-space rows being
computed on every call (never cached), mixed scenario + parameter object
rows evicting cleanly, chunked multi-core dispatch parity, and the fully
columnar Monte-Carlo/DSE/tornado routes against the scalar object path.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.dse import explore, explore_batch
from repro.analysis.montecarlo import (
    ColumnSamples,
    ParameterDistribution,
    monte_carlo,
    monte_carlo_batch,
)
from repro.analysis.sensitivity import tornado
from repro.core.scenario import Scenario
from repro.engine import EvaluationEngine, ParameterBatch, ScenarioBatch
from repro.engine import engine as engine_module
from repro.engine.vector import params as pcols
from repro.errors import ParameterError
from repro.experiments.ext_uncertainty import distributions as table1_distributions
from repro.operation.model import OperationModel
from repro.units import g_per_kwh_to_kg_per_kwh


def _set_use_intensity(comparator, value):
    suite = comparator.suite.with_overrides(
        operation=OperationModel(
            energy_source=value, profile=comparator.suite.operation.profile
        )
    )
    return dataclasses.replace(comparator, suite=suite)


def _use_intensity_cols(params, values):
    params.set_col(pcols.OP_CI, g_per_kwh_to_kg_per_kwh(values))


@pytest.fixture
def intensity_dist():
    return ParameterDistribution(
        "use_intensity", 30.0, 700.0, _set_use_intensity,
        kind="loguniform", apply_column=_use_intensity_cols,
    )


@pytest.fixture
def scenario():
    return Scenario(num_apps=3, app_lifetime_years=1.0, volume=10_000)


# ----------------------------------------------------------------------
# ParameterBatch mechanics
# ----------------------------------------------------------------------


def test_parameter_batch_validates_writes(dnn_comparator):
    params = ParameterBatch.from_comparator(dnn_comparator, 4)
    with pytest.raises(ParameterError):
        params.set_col(pcols.N_PARAM_COLS, np.ones(4))
    with pytest.raises(ParameterError):
        params.set_col(pcols.OP_CI, np.ones(3))  # neither 1 nor n
    with pytest.raises(ParameterError):
        ParameterBatch.from_comparator(dnn_comparator, 0)
    params.set_col(pcols.OP_CI, 0.5)
    assert params.col(pcols.OP_CI).shape == (1,)
    params.set_col(pcols.OP_CI, np.ones(4))
    assert params.col(pcols.OP_CI).shape == (4,)


def test_parameter_batch_slices_share_broadcast_columns(dnn_comparator):
    params = ParameterBatch.from_comparator(dnn_comparator, 10)
    params.set_col(pcols.OP_CI, np.arange(10, dtype=np.float64))
    params.set_col(pcols.EOL_DELTA, 0.5)
    view = params.slice_rows(2, 7)
    assert view.size == 5
    np.testing.assert_array_equal(
        view.col(pcols.OP_CI), np.arange(2.0, 7.0)
    )
    # Per-row slices are views; broadcast columns are shared outright.
    assert view.col(pcols.OP_CI).base is params.col(pcols.OP_CI)
    assert view.col(pcols.EOL_DELTA) is params.col(pcols.EOL_DELTA)


def test_scenario_batch_tile_matches_from_scenarios(scenario):
    tiled = ScenarioBatch.tile(scenario, 5)
    listed = ScenarioBatch.from_scenarios((scenario,) * 5)
    for field in ("num_apps", "volume", "lifetime", "evaluation_years",
                  "app_size_mgates", "enforce_chip_lifetime"):
        np.testing.assert_array_equal(
            getattr(tiled, field), getattr(listed, field)
        )
    ragged = Scenario(num_apps=2, app_lifetime_years=[1.0, 2.0], volume=10)
    ragged_tile = ScenarioBatch.tile(ragged, 3)
    np.testing.assert_array_equal(ragged_tile.lifetime, [[1.0, 2.0]] * 3)
    assert ragged_tile.scenario_at(2).lifetimes == ragged.lifetimes


# ----------------------------------------------------------------------
# Columnar Monte-Carlo vs the scalar object path
# ----------------------------------------------------------------------


def test_columnar_monte_carlo_matches_scalar_object_path(
    dnn_comparator, scenario
):
    dists = table1_distributions()
    classic = monte_carlo(dnn_comparator, scenario, dists,
                          n_samples=200, seed=11,
                          engine=EvaluationEngine(vectorize=False))
    columnar = monte_carlo_batch(dnn_comparator, scenario, dists,
                                 n_samples=200, seed=11,
                                 engine=EvaluationEngine())
    # Bit-identical draws: the columnar sampler consumes the RNG in the
    # legacy per-draw order.
    assert columnar.samples == classic.samples
    assert isinstance(columnar.samples, ColumnSamples)
    assert set(columnar.sample_columns) == {d.name for d in dists}
    np.testing.assert_allclose(columnar.ratios, classic.ratios,
                               rtol=1.0e-12, atol=0.0)
    np.testing.assert_array_equal(columnar.winners, classic.winners)


def test_columnar_monte_carlo_needs_every_apply_column(
    dnn_comparator, scenario, intensity_dist
):
    """One object-only distribution sends the study down the legacy
    (per-draw comparator) route — results must still agree."""
    object_only = dataclasses.replace(intensity_dist, apply_column=None)
    legacy = monte_carlo_batch(dnn_comparator, scenario, [object_only],
                               n_samples=40, seed=3,
                               engine=EvaluationEngine())
    columnar = monte_carlo_batch(dnn_comparator, scenario, [intensity_dist],
                                 n_samples=40, seed=3,
                                 engine=EvaluationEngine())
    assert legacy.sample_columns is None
    assert columnar.sample_columns is not None
    np.testing.assert_allclose(columnar.ratios, legacy.ratios,
                               rtol=1.0e-12, atol=0.0)


def test_columnar_monte_carlo_runs_heterogeneous_scenarios(
    dnn_comparator, intensity_dist
):
    ragged = Scenario(num_apps=2, app_lifetime_years=[1.0, 2.0], volume=10.5)
    classic = monte_carlo(dnn_comparator, ragged, [intensity_dist],
                          n_samples=10, seed=5,
                          engine=EvaluationEngine(vectorize=False))
    batch = monte_carlo_batch(dnn_comparator, ragged, [intensity_dist],
                              n_samples=10, seed=5,
                              engine=EvaluationEngine())
    assert batch.sample_columns is not None  # columnar route
    np.testing.assert_allclose(batch.ratios, classic.ratios,
                               rtol=1.0e-12, atol=0.0)


def test_sample_column_matches_sequential_draws(intensity_dist):
    a = np.random.default_rng(9)
    b = np.random.default_rng(9)
    column = intensity_dist.column_from_uniform(a.random(50))
    scalars = np.array([intensity_dist.sample(b) for _ in range(50)])
    np.testing.assert_array_equal(column, scalars)


def test_column_samples_sequence_semantics():
    columns = {"a": np.array([1.0, 2.0, 3.0]), "b": np.array([4.0, 5.0, 6.0])}
    samples = ColumnSamples(columns)
    assert len(samples) == 3
    assert samples[1] == {"a": 2.0, "b": 5.0}
    assert samples[-1] == {"a": 3.0, "b": 6.0}
    assert samples[1:] == ({"a": 2.0, "b": 5.0}, {"a": 3.0, "b": 6.0})
    assert samples == tuple({"a": float(i + 1), "b": float(i + 4)}
                            for i in range(3))
    assert samples != ({"a": 1.0, "b": 4.0},) * 3
    with pytest.raises(IndexError):
        samples[3]


# ----------------------------------------------------------------------
# Store round-trips of parameter-space rows
# ----------------------------------------------------------------------


def test_param_rows_are_computed_on_every_call(dnn_comparator, scenario,
                                              intensity_dist):
    engine = EvaluationEngine(cache_size=4096)
    first = monte_carlo_batch(dnn_comparator, scenario, [intensity_dist],
                              n_samples=100, seed=7, engine=engine)
    assert engine.rows_computed == 100
    # Same seeded study again: computed again, bit for bit the same.
    second = monte_carlo_batch(dnn_comparator, scenario, [intensity_dist],
                               n_samples=100, seed=7, engine=engine)
    assert engine.rows_computed == 200
    assert engine.cache_stats == EvaluationEngine().cache_stats
    np.testing.assert_array_equal(first.ratios, second.ratios)
    np.testing.assert_array_equal(first.winners, second.winners)


def test_param_batches_larger_than_store_bypass_it(dnn_comparator, scenario,
                                                   intensity_dist):
    engine = EvaluationEngine(cache_size=32)
    result = monte_carlo_batch(dnn_comparator, scenario, [intensity_dist],
                               n_samples=100, seed=7, engine=engine)
    assert result.n_samples == 100
    assert engine.cache_stats.size == 0  # nothing thrashed into the store


def test_mixed_scenario_and_param_rows_evict_per_shard(
    dnn_comparator, scenario, intensity_dist
):
    """Scenario rows and perturbed-comparator rows share the object
    store; filling both beyond capacity must evict cleanly and keep
    answers exact."""
    engine = EvaluationEngine(cache_size=48)
    reference = EvaluationEngine(cache_size=0)

    scenarios = [
        Scenario(num_apps=n, app_lifetime_years=1.5, volume=1000)
        for n in range(1, 41)
    ]
    mc_kwargs = dict(n_samples=40, seed=13, engine=engine)
    for round_index in range(3):  # interleave both row kinds, overfill
        grid = engine.evaluate_many(dnn_comparator, scenarios)
        draws = monte_carlo(dnn_comparator, scenario,
                            [intensity_dist], **mc_kwargs)
    stats = engine.cache_stats
    assert 0 < stats.size <= 48

    assert grid == reference.evaluate_many(dnn_comparator, scenarios)
    cold_draws = monte_carlo(dnn_comparator, scenario,
                             [intensity_dist], n_samples=40, seed=13,
                             engine=reference)
    np.testing.assert_array_equal(draws.ratios, cold_draws.ratios)


# ----------------------------------------------------------------------
# Chunked multi-core dispatch
# ----------------------------------------------------------------------


def test_chunked_dispatch_is_bit_identical(dnn_comparator, scenario,
                                           intensity_dist, monkeypatch):
    n = 1000
    whole = monte_carlo_batch(dnn_comparator, scenario, [intensity_dist],
                              n_samples=n, seed=21,
                              engine=EvaluationEngine(cache_size=0))
    monkeypatch.setattr(engine_module, "PARAM_CHUNK_ROWS", 128)
    chunked = monte_carlo_batch(dnn_comparator, scenario, [intensity_dist],
                                n_samples=n, seed=21,
                                engine=EvaluationEngine(cache_size=0))
    np.testing.assert_array_equal(whole.ratios, chunked.ratios)
    np.testing.assert_array_equal(whole.winners, chunked.winners)
    # Forcing thread-pool dispatch must not change values either.
    threaded_engine = EvaluationEngine(cache_size=0, workers=4)
    threaded = monte_carlo_batch(dnn_comparator, scenario, [intensity_dist],
                                 n_samples=n, seed=21, engine=threaded_engine)
    threaded_engine.close()
    np.testing.assert_array_equal(whole.ratios, threaded.ratios)


def test_evaluate_param_batch_validates_sizes(dnn_comparator, scenario):
    engine = EvaluationEngine()
    params = ParameterBatch.from_comparator(dnn_comparator, 4)
    with pytest.raises(ParameterError):
        engine.evaluate_param_batch(params, ScenarioBatch.tile(scenario, 5))


# ----------------------------------------------------------------------
# DSE and tornado ride the parameter pipeline, computed on every call
# ----------------------------------------------------------------------


def test_explore_batch_reexplore_is_computed_and_bit_identical(scenario):
    engine = EvaluationEngine(cache_size=4096)
    grid = {"duty_cycle": [0.1, 0.5, 0.9], "use_energy_source": ["wind", "coal"]}
    first = explore_batch("dnn", scenario, grid, engine=engine)
    assert engine.rows_computed == 6
    second = explore_batch("dnn", scenario, grid, engine=engine)
    assert engine.rows_computed == 12
    assert engine.cache_stats.size == 0
    assert [p.ratio for p in second.points] == [p.ratio for p in first.points]
    classic = explore("dnn", scenario, grid,
                      engine=EvaluationEngine(vectorize=False))
    for got, want in zip(second.points, classic.points):
        np.testing.assert_allclose(got.ratio, want.ratio,
                                   rtol=1.0e-12, atol=0.0)


def test_tornado_repeat_is_computed_and_bit_identical(dnn_comparator, scenario,
                                                      intensity_dist):
    engine = EvaluationEngine(cache_size=4096)
    first = tornado(dnn_comparator, scenario, [intensity_dist], engine=engine)
    computed = engine.rows_computed
    second = tornado(dnn_comparator, scenario, [intensity_dist], engine=engine)
    assert engine.rows_computed == 2 * computed
    assert engine.cache_stats.size == 0
    assert second.baseline_ratio == first.baseline_ratio
    assert second.entries == first.entries
