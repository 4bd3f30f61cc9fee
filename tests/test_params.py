"""Tests for the columnar parameter-space pipeline.

Covers the :class:`ParameterBatch` digest contract (vectorised column
folds bit-reproduced by the scalar folds), store round-trips of
parameter-space rows, mixed scenario-row + parameter-row eviction,
chunked multi-core dispatch parity, and the fully columnar
Monte-Carlo/DSE/tornado routes against the scalar object path.
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
from repro.engine import (
    EvaluationEngine,
    ParameterBatch,
    ScenarioBatch,
    pair_digest,
    param_batch_digests,
    param_digest,
    param_row_digest,
)
from repro.engine import engine as engine_module
from repro.engine.vector import extract_row
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
# Digest contract: scalar folds bit-reproduce the vectorised folds
# ----------------------------------------------------------------------


def test_base_mode_digest_scalar_vector_parity(dnn_comparator, scenario):
    n = 64
    rng = np.random.default_rng(5)
    values = rng.uniform(0.03, 0.7, n)
    params = ParameterBatch.from_comparator(dnn_comparator, n)
    params.set_col(pcols.OP_CI, values)
    params.set_col(pcols.EOL_DELTA, 0.5)  # broadcast override
    batch = ScenarioBatch.tile(scenario, n)
    lo, hi = param_batch_digests(params, batch)
    for i in (0, 13, n - 1):
        expected = param_digest(
            dnn_comparator, scenario,
            {pcols.OP_CI: float(values[i]), pcols.EOL_DELTA: 0.5},
        )
        assert (int(lo[i]), int(hi[i])) == expected


def test_base_mode_digest_without_overrides_matches_pair_digest(
    dnn_comparator, scenario
):
    """An unperturbed parameter row keys the same store entry as the
    plain scenario-space digest of (base, scenario) — shared warmth."""
    params = ParameterBatch.from_comparator(dnn_comparator, 3)
    batch = ScenarioBatch.tile(scenario, 3)
    lo, hi = param_batch_digests(params, batch)
    expected = pair_digest(dnn_comparator, scenario)
    for i in range(3):
        assert (int(lo[i]), int(hi[i])) == expected
    assert param_digest(dnn_comparator, scenario, {}) == expected


def test_extraction_mode_digest_scalar_vector_parity(dnn_comparator, scenario):
    comparators = [
        _set_use_intensity(dnn_comparator, value)
        for value in (30.0, 150.0, 700.0)
    ]
    params = ParameterBatch.from_comparators(comparators)
    batch = ScenarioBatch.from_scenarios((scenario,) * 3)
    lo, hi = param_batch_digests(params, batch)
    for i, comparator in enumerate(comparators):
        expected = param_row_digest(extract_row(comparator), scenario)
        assert (int(lo[i]), int(hi[i])) == expected


def test_digest_distinguishes_columns_and_values(dnn_comparator, scenario):
    a = param_digest(dnn_comparator, scenario, {pcols.OP_CI: 0.5})
    b = param_digest(dnn_comparator, scenario, {pcols.OP_DUTY: 0.5})
    c = param_digest(dnn_comparator, scenario, {pcols.OP_CI: 0.25})
    assert len({a, b, c}) == 3


def test_param_row_digest_folds_heterogeneous_scenarios(dnn_comparator):
    """Ragged lifetimes and fractional volumes digest like any scenario:
    the batch fold reproduces the scalar one, and neither collides with
    the uniform spelling of the first lifetime."""
    ragged = Scenario(num_apps=2, app_lifetime_years=[1.0, 2.0], volume=10.5)
    uniform = Scenario(num_apps=2, app_lifetime_years=1.0, volume=10)
    row = extract_row(dnn_comparator)
    params = ParameterBatch.from_comparators([dnn_comparator] * 2)
    batch = ScenarioBatch.from_scenarios((ragged, uniform))
    lo, hi = param_batch_digests(params, batch)
    assert (int(lo[0]), int(hi[0])) == param_row_digest(row, ragged)
    assert (int(lo[1]), int(hi[1])) == param_row_digest(row, uniform)
    assert param_row_digest(row, ragged) != param_row_digest(row, uniform)


def test_param_batch_digests_fold_heterogeneous_rows_like_param_digest(
    dnn_comparator,
):
    ragged = Scenario(num_apps=2, app_lifetime_years=[1.0, 2.0], volume=10)
    params = ParameterBatch.from_comparator(dnn_comparator, 2)
    params.set_col(pcols.OP_CI, np.array([0.25, 0.5]))
    batch = ScenarioBatch.tile(ragged, 2)
    lo, hi = param_batch_digests(params, batch)
    for i, value in enumerate((0.25, 0.5)):
        expected = param_digest(dnn_comparator, ragged, {pcols.OP_CI: value})
        assert (int(lo[i]), int(hi[i])) == expected

    # A store-sized tile of one heterogeneous scenario folds as one group.
    n = 4096
    ragged = Scenario(num_apps=3, app_lifetime_years=(1.0, 2.0, 3.0), volume=10)
    values = np.linspace(0.1, 0.9, n)
    params = ParameterBatch.from_comparator(dnn_comparator, n)
    params.set_col(pcols.OP_CI, values)
    lo, hi = param_batch_digests(params, ScenarioBatch.tile(ragged, n))
    for i, value in enumerate(values.tolist()):
        expected = param_digest(dnn_comparator, ragged, {pcols.OP_CI: value})
        assert (int(lo[i]), int(hi[i])) == expected

    # Rows of every word layout in one batch: per-application lifetime
    # counts, tagged fractional volumes, and plain rows in between.
    scenarios = (
        ragged,
        Scenario(num_apps=2, app_lifetime_years=[1.0, 2.0], volume=10.5),
        Scenario(num_apps=4, app_lifetime_years=[3.0, 1.0, 1.0, 1.0], volume=7),
        Scenario(num_apps=5, app_lifetime_years=2.0, volume=7.5),
        Scenario(num_apps=1, app_lifetime_years=2.0, volume=10,
                 evaluation_years=4.0, enforce_chip_lifetime=True),
        ragged,
        Scenario(num_apps=3, app_lifetime_years=[2.0, 2.0, 2.0], volume=3.25,
                 app_size_mgates=12.0),
    )
    params = ParameterBatch.from_comparators([dnn_comparator] * len(scenarios))
    lo, hi = param_batch_digests(params, ScenarioBatch.from_scenarios(scenarios))
    row = extract_row(dnn_comparator)
    for i, scenario in enumerate(scenarios):
        assert (int(lo[i]), int(hi[i])) == param_row_digest(row, scenario)


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
    taken = params.take(np.array([1, 8]))
    np.testing.assert_array_equal(taken.col(pcols.OP_CI), [1.0, 8.0])


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
    column = intensity_dist.sample_column(a, 50)
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


def test_param_rows_are_cached_and_persisted(dnn_comparator, scenario,
                                             intensity_dist, tmp_path):
    engine = EvaluationEngine(cache_size=4096)
    first = monte_carlo_batch(dnn_comparator, scenario, [intensity_dist],
                              n_samples=100, seed=7, engine=engine)
    computed = engine.rows_computed
    assert computed == 100
    # Same seeded study again: pure store gather, nothing recomputed.
    second = monte_carlo_batch(dnn_comparator, scenario, [intensity_dist],
                               n_samples=100, seed=7, engine=engine)
    assert engine.rows_computed == computed
    np.testing.assert_array_equal(first.ratios, second.ratios)

    # Parameter-space rows survive .npz persistence like scenario rows.
    path = tmp_path / "params.npz"
    engine.save_cache(path)
    fresh = EvaluationEngine(cache_size=4096)
    fresh.load_cache(path)
    reloaded = monte_carlo_batch(dnn_comparator, scenario, [intensity_dist],
                                 n_samples=100, seed=7, engine=fresh)
    assert fresh.rows_computed == 0
    np.testing.assert_array_equal(first.ratios, reloaded.ratios)


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
    """Scenario-space and parameter-space rows share the store; filling
    both beyond capacity must evict cleanly and keep answers exact."""
    engine = EvaluationEngine(cache_size=48)
    reference = EvaluationEngine(cache_size=0)

    scenarios = [
        Scenario(num_apps=n, app_lifetime_years=1.5, volume=1000)
        for n in range(1, 41)
    ]
    mc_kwargs = dict(n_samples=40, seed=13, engine=engine)
    for round_index in range(3):  # interleave both row kinds, overfill
        grid = engine.evaluate_batch(dnn_comparator, scenarios)
        draws = monte_carlo_batch(dnn_comparator, scenario,
                                  [intensity_dist], **mc_kwargs)
    stats = engine.cache_stats
    assert stats.size <= 48

    cold_grid = reference.evaluate_batch(dnn_comparator, scenarios)
    np.testing.assert_array_equal(grid.ratios, cold_grid.ratios)
    cold_draws = monte_carlo_batch(dnn_comparator, scenario,
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
# DSE and tornado ride the cached parameter pipeline
# ----------------------------------------------------------------------


def test_explore_batch_warm_reexplore_recomputes_nothing(scenario):
    engine = EvaluationEngine(cache_size=4096)
    grid = {"duty_cycle": [0.1, 0.5, 0.9], "use_energy_source": ["wind", "coal"]}
    first = explore_batch("dnn", scenario, grid, engine=engine)
    computed = engine.rows_computed
    assert computed == 6
    second = explore_batch("dnn", scenario, grid, engine=engine)
    assert engine.rows_computed == computed  # pure store gather
    assert [p.ratio for p in second.points] == [p.ratio for p in first.points]
    classic = explore("dnn", scenario, grid,
                      engine=EvaluationEngine(vectorize=False))
    for got, want in zip(second.points, classic.points):
        np.testing.assert_allclose(got.ratio, want.ratio,
                                   rtol=1.0e-12, atol=0.0)


def test_tornado_warm_endpoints_recompute_nothing(dnn_comparator, scenario,
                                                  intensity_dist):
    engine = EvaluationEngine(cache_size=4096)
    first = tornado(dnn_comparator, scenario, [intensity_dist], engine=engine)
    computed = engine.rows_computed
    second = tornado(dnn_comparator, scenario, [intensity_dist], engine=engine)
    assert engine.rows_computed == computed
    assert second.baseline_ratio == first.baseline_ratio
    assert second.entries == first.entries
