"""Tests for the shared batch evaluation engine.

Covers the engine parity guarantee — engine-backed analyses must be
bit-identical to the seed per-point loops — plus the LRU cache, suite
memoisation, parallel execution, the ratio edge-case semantics the
engine path relies on, and the shared singletons hammered from threads.
"""

from __future__ import annotations

import dataclasses
import math
import threading

import numpy as np
import pytest

from repro.analysis.dse import explore
from repro.analysis.heatmap import pairwise_heatmap
from repro.analysis.montecarlo import (
    MonteCarloResult,
    ParameterDistribution,
    monte_carlo,
)
from repro.analysis.sensitivity import tornado
from repro.analysis.sweep import sweep, sweep_batch
from repro.config import Parameters
from repro.core.comparison import ComparisonResult
from repro.core.fpga_model import FpgaAssessment
from repro.core.asic_model import AsicAssessment
from repro.core.lifecycle import CarbonFootprint
from repro.core.scenario import Scenario
from repro.engine import (
    EvaluationEngine,
    build_suite_cached,
    default_engine,
    reset_default_engine,
)
from repro.errors import ParameterError
from repro.operation.model import OperationModel


# ----------------------------------------------------------------------
# Suite memoisation
# ----------------------------------------------------------------------


def test_build_suite_cached_returns_same_object():
    params = Parameters(duty_cycle=0.5)
    equal_params = Parameters(duty_cycle=0.5)
    assert build_suite_cached(params) is build_suite_cached(equal_params)
    assert build_suite_cached(params) == params.build_suite()


def test_engine_suite_for_uses_shared_memo():
    engine = EvaluationEngine()
    params = Parameters(duty_cycle=0.25)
    assert engine.suite_for(params) is build_suite_cached(params)


# ----------------------------------------------------------------------
# Engine evaluation semantics
# ----------------------------------------------------------------------


def test_evaluate_matches_direct_compare(dnn_comparator, small_scenario):
    engine = EvaluationEngine()
    direct = dnn_comparator.compare(small_scenario)
    via_engine = engine.evaluate(dnn_comparator, small_scenario)
    assert via_engine.summary() == direct.summary()


def test_evaluate_many_preserves_order_and_dedupes(dnn_comparator):
    engine = EvaluationEngine()
    scenarios = [
        Scenario(num_apps=n, app_lifetime_years=1.0, volume=1_000)
        for n in (1, 2, 1, 3, 2)
    ]
    results = engine.evaluate_many(dnn_comparator, scenarios)
    assert len(results) == 5
    assert results[0] is results[2]  # duplicates share one assessment
    assert results[1] is results[4]
    stats = engine.cache_stats
    assert stats.misses == 3  # only the unique pairs were computed
    for scenario, result in zip(scenarios, results):
        assert result.scenario.num_apps == scenario.num_apps


def test_repeat_batches_are_cache_hits(dnn_comparator, small_scenario):
    engine = EvaluationEngine()
    engine.evaluate(dnn_comparator, small_scenario)
    engine.evaluate(dnn_comparator, small_scenario)
    stats = engine.cache_stats
    assert stats.hits >= 1 and stats.misses == 1


def test_cache_disabled_still_correct(dnn_comparator, small_scenario):
    engine = EvaluationEngine(cache_size=0)
    a = engine.evaluate(dnn_comparator, small_scenario)
    b = engine.evaluate(dnn_comparator, small_scenario)
    assert a.summary() == b.summary()


def test_clear_cache_resets(dnn_comparator, small_scenario):
    engine = EvaluationEngine()
    engine.evaluate(dnn_comparator, small_scenario)
    engine.clear_cache()
    stats = engine.cache_stats
    assert stats.size == 0 and stats.hits == 0 and stats.misses == 0


def test_engine_argument_validation():
    with pytest.raises(ParameterError):
        EvaluationEngine(workers=0)


def test_default_engine_is_shared_singleton():
    assert default_engine() is default_engine()


# ----------------------------------------------------------------------
# Parity guarantee: engine-backed analyses == seed per-point loops
# ----------------------------------------------------------------------


def test_sweep_parity_with_per_point_loop(dnn_comparator, small_scenario):
    values = [1, 2, 3, 4, 5]
    result = sweep(dnn_comparator, small_scenario, "num_apps", values,
                   engine=EvaluationEngine())
    manual = tuple(
        dnn_comparator.compare(small_scenario.with_num_apps(v)) for v in values
    )
    assert result.fpga_totals == tuple(c.fpga.footprint.total for c in manual)
    assert result.asic_totals == tuple(c.asic.footprint.total for c in manual)
    assert result.ratios == tuple(c.ratio for c in manual)


def test_heatmap_parity_with_nested_loop(dnn_comparator, small_scenario):
    x_values, y_values = [1, 2, 3], [0.5, 1.0, 2.0]
    result = pairwise_heatmap(
        dnn_comparator, small_scenario, "num_apps", x_values, "lifetime", y_values,
        engine=EvaluationEngine(),
    )
    manual = np.empty((len(y_values), len(x_values)))
    for i, y in enumerate(y_values):
        row = small_scenario.with_lifetime(y)
        for j, x in enumerate(x_values):
            manual[i, j] = dnn_comparator.ratio(row.with_num_apps(x))
    np.testing.assert_array_equal(result.ratios, manual)


def test_dse_parity_with_per_combo_loop(small_scenario):
    grid = {
        "use_energy_source": ["wind", "coal"],
        "duty_cycle": [0.1, 0.5],
    }
    result = explore("dnn", small_scenario, grid, engine=EvaluationEngine())
    import itertools

    from repro.core.comparison import PlatformComparator
    from repro.devices.catalog import get_domain

    spec = get_domain("dnn")
    names = list(grid)
    expected = []
    for combo in itertools.product(*(grid[n] for n in names)):
        params = Parameters().with_overrides(**dict(zip(names, combo)))
        comparator = PlatformComparator(
            fpga_device=spec.fpga_device(),
            asic_device=spec.asic_device(),
            suite=params.build_suite(),
        )
        expected.append(comparator.compare(small_scenario))
    assert len(result.points) == len(expected)
    for point, comparison in zip(result.points, expected):
        assert point.fpga_total_kg == comparison.fpga.footprint.total
        assert point.asic_total_kg == comparison.asic.footprint.total
        assert point.ratio == comparison.ratio


def _set_use_intensity(comparator, value):
    suite = comparator.suite.with_overrides(
        operation=OperationModel(
            energy_source=value, profile=comparator.suite.operation.profile
        )
    )
    return dataclasses.replace(comparator, suite=suite)


@pytest.fixture
def intensity_dist():
    return ParameterDistribution(
        name="use_intensity", low=30.0, high=700.0, apply=_set_use_intensity
    )


def test_monte_carlo_parity_with_seed_loop(dnn_comparator, small_scenario,
                                           intensity_dist):
    """Engine batching must not disturb the seeded RNG draw sequence."""
    result = monte_carlo(dnn_comparator, small_scenario, [intensity_dist],
                         n_samples=25, seed=11, engine=EvaluationEngine())
    rng = np.random.default_rng(11)
    expected = np.empty(25)
    for i in range(25):
        value = intensity_dist.sample(rng)
        assert result.samples[i]["use_intensity"] == value
        expected[i] = _set_use_intensity(dnn_comparator, value).ratio(small_scenario)
    np.testing.assert_array_equal(result.ratios, expected)


def test_monte_carlo_reproducible_through_shared_cache(dnn_comparator,
                                                       small_scenario,
                                                       intensity_dist):
    engine = EvaluationEngine()
    a = monte_carlo(dnn_comparator, small_scenario, [intensity_dist],
                    n_samples=15, seed=3, engine=engine)
    b = monte_carlo(dnn_comparator, small_scenario, [intensity_dist],
                    n_samples=15, seed=3, engine=engine)
    np.testing.assert_array_equal(a.ratios, b.ratios)
    # The second run is served entirely from the cache.
    assert engine.cache_stats.misses == 15


def test_tornado_parity_with_seed_loop(dnn_comparator, small_scenario,
                                       intensity_dist):
    result = tornado(dnn_comparator, small_scenario, [intensity_dist],
                     engine=EvaluationEngine())
    assert result.baseline_ratio == dnn_comparator.ratio(small_scenario)
    entry = result.entries[0]
    assert entry.ratio_at_low == _set_use_intensity(
        dnn_comparator, intensity_dist.low
    ).ratio(small_scenario)
    assert entry.ratio_at_high == _set_use_intensity(
        dnn_comparator, intensity_dist.high
    ).ratio(small_scenario)


def test_analyses_share_default_engine_cache(dnn_comparator, small_scenario):
    """Calling without an engine must route through the shared default."""
    engine = default_engine()
    engine.clear_cache()
    sweep(dnn_comparator, small_scenario, "num_apps", [1, 2, 3])
    misses_after_first = engine.cache_stats.misses
    sweep(dnn_comparator, small_scenario, "num_apps", [1, 2, 3])
    assert engine.cache_stats.misses == misses_after_first
    assert engine.cache_stats.hits >= 3


# ----------------------------------------------------------------------
# Ratio edge cases (zero ASIC total) and Monte-Carlo robustness
# ----------------------------------------------------------------------


def _fake_comparison(fpga_total: float, asic_total: float) -> ComparisonResult:
    return ComparisonResult(
        scenario=Scenario(),
        fpga=FpgaAssessment(
            footprint=CarbonFootprint(operational=fpga_total),
            per_chip_embodied_kg=0.0,
            n_fpga_per_unit=1,
            generations=1,
        ),
        asic=AsicAssessment(
            footprint=CarbonFootprint(operational=asic_total),
            per_chip_embodied_kg=0.0,
            per_application=(),
        ),
    )


def test_zero_asic_total_gives_infinite_ratio():
    result = _fake_comparison(10.0, 0.0)
    assert result.ratio == math.inf
    assert result.winner == "asic"
    assert result.summary()["ratio"] == math.inf


def test_both_totals_zero_is_a_tie():
    result = _fake_comparison(0.0, 0.0)
    assert result.ratio == 1.0
    assert result.winner == "asic"  # ties go to the ASIC


def test_negative_fpga_total_with_zero_asic_total_wins():
    """Net recycling credits can push a total negative: FPGA is greener."""
    result = _fake_comparison(-0.5, 0.0)
    assert result.ratio == -math.inf
    assert result.winner == "fpga"


def test_winner_correct_for_negative_asic_totals():
    """With a negative ASIC total the quotient's sign inverts; the
    winner must still follow the totals themselves."""
    both_negative = _fake_comparison(-5.0, -1.0)
    assert both_negative.ratio == pytest.approx(5.0)
    assert both_negative.winner == "fpga"  # -5 kg is greener than -1 kg
    asic_negative = _fake_comparison(10.0, -2.0)
    assert asic_negative.ratio == pytest.approx(-5.0)
    assert asic_negative.winner == "asic"  # -2 kg is greener than 10 kg


def test_cached_result_carries_the_requested_scenario(dnn_comparator):
    """Equivalent lifetime spellings share the cache but keep their own
    scenario object on the returned result."""
    engine = EvaluationEngine()
    scalar = Scenario(num_apps=2, app_lifetime_years=2.0, volume=1_000)
    expanded = Scenario(num_apps=2, app_lifetime_years=[2.0, 2.0], volume=1_000)
    first = engine.evaluate(dnn_comparator, scalar)
    second = engine.evaluate(dnn_comparator, expanded)
    assert engine.cache_stats.misses == 1  # one assessment served both
    assert first.scenario == scalar
    assert second.scenario == expanded
    assert first.summary() == second.summary()


def test_win_probability_robust_to_non_finite_ratios():
    ratios = np.array([0.5, math.inf, 2.0, math.nan, 0.9])
    result = MonteCarloResult(ratios=ratios, samples=({},) * 5)
    assert result.fpga_win_probability == pytest.approx(2 / 5)
    assert result.n_non_finite == 2
    assert 0.0 <= result.fpga_win_probability <= 1.0


def test_quantiles_and_summary_use_finite_draws():
    ratios = np.array([0.5, math.inf, 1.5])
    result = MonteCarloResult(ratios=ratios, samples=({},) * 3)
    quantiles = result.quantiles((0.5,))
    assert quantiles[0.5] == pytest.approx(1.0)
    summary = result.summary()
    assert summary["ratio_mean"] == pytest.approx(1.0)
    assert math.isfinite(summary["ratio_p95"])


def test_all_non_finite_draws_do_not_raise():
    ratios = np.array([math.inf, math.nan])
    result = MonteCarloResult(ratios=ratios, samples=({},) * 2)
    assert result.fpga_win_probability == 0.0
    assert math.isnan(result.summary()["ratio_mean"])
    assert math.isnan(result.quantiles((0.5,))[0.5])


def test_touch_point_on_comparison_curve_is_not_a_crossover():
    """Curves that touch (equal totals) at one grid point never cross.

    End-to-end over the ratio path: equal totals give ratio == 1 (a tie,
    winner "asic") and a zero difference, which crossover detection must
    not report as a sign change.
    """
    from repro.analysis.crossover import find_crossovers

    comparisons = [
        _fake_comparison(2.0, 1.0),   # ASIC greener
        _fake_comparison(1.5, 1.5),   # touch point
        _fake_comparison(2.0, 1.0),   # ASIC greener again
    ]
    touch = comparisons[1]
    assert touch.ratio == 1.0 and touch.winner == "asic"
    crossovers = find_crossovers(
        [1.0, 2.0, 3.0],
        [c.fpga.footprint.total for c in comparisons],
        [c.asic.footprint.total for c in comparisons],
    )
    assert crossovers == []


def test_zero_asic_touch_point_in_sweep_totals():
    """A both-zero tie inside a sweep stays finite and crossover-free."""
    from repro.analysis.crossover import find_crossovers

    comparisons = [
        _fake_comparison(1.0, 2.0),   # FPGA greener
        _fake_comparison(0.0, 0.0),   # degenerate tie
        _fake_comparison(1.0, 2.0),
    ]
    assert [c.ratio for c in comparisons] == [0.5, 1.0, 0.5]
    crossovers = find_crossovers(
        [1.0, 2.0, 3.0],
        [c.fpga.footprint.total for c in comparisons],
        [c.asic.footprint.total for c in comparisons],
    )
    assert crossovers == []


# ----------------------------------------------------------------------
# Default-engine lifecycle (atexit hook, reset, configure)
# ----------------------------------------------------------------------


def test_reset_default_engine_discards_shared_state(dnn_comparator,
                                                    small_scenario):
    from repro.engine import reset_default_engine

    first = default_engine()
    first.evaluate(dnn_comparator, small_scenario)
    assert first.cache_stats.size >= 1
    reset_default_engine()
    fresh = default_engine()
    assert fresh is not first
    assert fresh.cache_stats.size == 0
    reset_default_engine()  # idempotent; also closes the fresh engine


def test_configure_default_engine_replaces_and_applies_options():
    from repro.engine import (
        configure_default_engine,
        default_engine,
        reset_default_engine,
        resolve_engine,
    )

    configured = configure_default_engine(vectorize=False, cache_size=16)
    try:
        assert default_engine() is configured
        assert resolve_engine(None) is configured
        assert configured.vectorize is False
        assert configured.cache_stats.maxsize == 16
    finally:
        reset_default_engine()  # restore a pristine default for other tests


def test_default_engine_close_is_registered_at_exit():
    """Importing the engine module must register the atexit reset hook.

    Reloads the module with ``atexit.register`` instrumented: deleting
    the ``atexit.register(reset_default_engine)`` line makes this fail.
    The duplicate registration the reload leaves behind is harmless —
    ``reset_default_engine`` is idempotent.
    """
    import atexit
    import importlib

    from repro.engine import engine as engine_module

    recorded = []
    real_register = atexit.register

    def recording_register(fn, *args, **kwargs):
        recorded.append(fn)
        return real_register(fn, *args, **kwargs)

    atexit.register = recording_register
    try:
        importlib.reload(engine_module)
    finally:
        atexit.register = real_register
    assert engine_module.reset_default_engine in recorded


# ----------------------------------------------------------------------
# Engine concurrency: shared singletons hammered from threads
# ----------------------------------------------------------------------

BASE = Scenario(num_apps=5, app_lifetime_years=2.0, volume=1_000_000)


def _hammer(worker, threads: int = 16):
    """Run ``worker`` on many threads through a start barrier."""
    barrier = threading.Barrier(threads)
    outputs: list[object] = [None] * threads
    errors: list[BaseException] = []

    def body(slot: int) -> None:
        try:
            barrier.wait()
            outputs[slot] = worker()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    workers = [
        threading.Thread(target=body, args=(slot,)) for slot in range(threads)
    ]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    assert not errors, errors
    return outputs


def test_build_suite_cached_single_flight_under_threads():
    """Racing threads must all observe the *same* suite object."""
    from repro.engine import engine as engine_module

    params = Parameters(duty_cycle=0.123456)
    with engine_module._SUITE_LOCK:
        engine_module._SUITE_CACHE.pop(params, None)
    suites = _hammer(lambda: build_suite_cached(params))
    assert all(suite is suites[0] for suite in suites)
    assert suites[0] == params.build_suite()


def test_default_engine_singleton_under_threads():
    reset_default_engine()
    try:
        engines = _hammer(default_engine)
        assert all(engine is engines[0] for engine in engines)
    finally:
        reset_default_engine()


def test_shared_engine_hammered_from_threads(dnn_comparator):
    """Concurrent evaluate calls on one engine stay correct and race-free."""
    engine = EvaluationEngine()
    scenarios = [
        Scenario(num_apps=n, app_lifetime_years=1.0, volume=2_000)
        for n in range(1, 17)
    ]
    expected = tuple(dnn_comparator.compare(s) for s in scenarios)

    def worker():
        return engine.evaluate_many(dnn_comparator, scenarios)

    for results in _hammer(worker, threads=12):
        assert results == expected
    # Every thread saw the same 16 cells; they were computed at most once
    # per racing wave, never corrupted (16 <= computed <= 16 * threads).
    assert engine.rows_computed >= 16
    assert engine.cache_stats.hits + engine.cache_stats.misses == 12 * 16


def test_store_hammered_by_mixed_batch_and_object_readers(dnn_comparator):
    """Batch gathers and object materialisation race on one store."""
    engine = EvaluationEngine(cache_size=64)  # small: forces evictions
    values = list(range(1, 33))
    reference = sweep_batch(dnn_comparator, BASE, "num_apps", values,
                            engine=EvaluationEngine())

    def batch_worker():
        result = sweep_batch(dnn_comparator, BASE, "num_apps", values,
                             engine=engine)
        np.testing.assert_array_equal(result.ratios, reference.ratios)
        return True

    def object_worker():
        scenario = BASE.with_num_apps(5)
        return engine.evaluate(dnn_comparator, scenario).summary()

    outputs = _hammer(
        lambda: (batch_worker(), object_worker()), threads=8
    )
    expected = dnn_comparator.compare(BASE.with_num_apps(5)).summary()
    for _, summary in outputs:
        assert summary == expected
