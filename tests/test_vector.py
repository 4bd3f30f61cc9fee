"""Tests for the vectorized NumPy evaluation kernel.

Parity is the contract: the same-comparator path must match the scalar
models bit-for-bit across the device catalog (it feeds the shared LRU
cache), and the multi-comparator kernel path must agree to
``rtol=1e-12`` — including degenerate zero / credit-negative totals and
the signed-infinity ratio semantics.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from repro.analysis.dse import explore, explore_batch
from repro.analysis.heatmap import pairwise_heatmap, pairwise_heatmap_batch
from repro.analysis.montecarlo import (
    ParameterDistribution,
    monte_carlo,
    monte_carlo_batch,
)
from repro.analysis.sweep import axis_batch, sweep, sweep_batch
from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.design.model import DesignModel
from repro.devices.catalog import DOMAIN_NAMES
from repro.engine import (
    BatchResult,
    EvaluationEngine,
    ScenarioBatch,
    VectorizedEvaluator,
)
from repro.engine.vector import ratio_kernel, winner_kernel
from repro.engine.vector.fused import FusedKernel
from repro.engine.vector.kernels import FoldPlan
from repro.engine.vector.params import ParameterBatch
from repro.eol.model import EolModel
from repro.errors import ParameterError
from repro.manufacturing.act import ManufacturingModel
from repro.operation.model import OperationModel


@pytest.fixture(scope="module")
def evaluator() -> VectorizedEvaluator:
    return VectorizedEvaluator()


def _scenario_grid() -> list[Scenario]:
    """Scenario variety covering every kernel branch."""
    return [
        Scenario(num_apps=n, app_lifetime_years=t, volume=v,
                 evaluation_years=ey, app_size_mgates=sz,
                 enforce_chip_lifetime=e)
        for n in (1, 2, 5, 7)
        for t in (0.5, 2.0, 3.25)
        for v, ey, sz, e in [
            (1, None, None, False),
            (1_000_000, None, None, False),
            (10_000, 30.0, None, True),
            (500, None, 1200.0, False),
        ]
    ]


# ----------------------------------------------------------------------
# Same-comparator path: bit-exact parity across the catalog
# ----------------------------------------------------------------------


@pytest.mark.parametrize("domain", DOMAIN_NAMES)
def test_evaluate_batch_bit_exact_across_catalog(evaluator, domain):
    comparator = PlatformComparator.for_domain(domain)
    scenarios = _scenario_grid()
    batch = evaluator.evaluate_batch(comparator, scenarios)
    assert batch.size == len(scenarios)
    for i, scenario in enumerate(scenarios):
        reference = comparator.compare(scenario)
        assert batch.fpga_totals[i] == reference.fpga.footprint.total
        assert batch.asic_totals[i] == reference.asic.footprint.total
        assert batch.ratios[i] == reference.ratio
        assert batch.winners[i] == reference.winner
        for component in ("design", "manufacturing", "packaging", "eol",
                          "appdev", "operational"):
            assert batch.fpga_components[component][i] == getattr(
                reference.fpga.footprint, component
            )
            assert batch.asic_components[component][i] == getattr(
                reference.asic.footprint, component
            )
        materialised = batch.comparison(i, scenario)
        assert materialised == reference


def test_evaluate_batch_accepts_column_batches(evaluator, dnn_comparator):
    """from_arrays and from_scenarios spell the same batch."""
    num_apps = np.array([1, 3, 5])
    lifetime = np.array([0.5, 2.0, 3.0])
    columns = ScenarioBatch.from_arrays(
        num_apps=num_apps, lifetime=lifetime, volume=10_000
    )
    objects = [
        Scenario(num_apps=int(n), app_lifetime_years=float(t), volume=10_000)
        for n, t in zip(num_apps, lifetime)
    ]
    a = evaluator.evaluate_batch(dnn_comparator, columns)
    b = evaluator.evaluate_batch(dnn_comparator, objects)
    np.testing.assert_array_equal(a.ratios, b.ratios)
    np.testing.assert_array_equal(a.fpga_totals, b.fpga_totals)
    np.testing.assert_array_equal(a.asic_totals, b.asic_totals)


def test_heterogeneous_lifetimes_run_on_the_kernel(evaluator, dnn_comparator):
    scenarios = [
        Scenario(num_apps=2, app_lifetime_years=[1.0, 2.5], volume=1_000),
        Scenario(num_apps=3, app_lifetime_years=2.0, volume=1_000),
        Scenario(num_apps=3, app_lifetime_years=[1.0, 2.0, 4.0], volume=77),
    ]
    columns = ScenarioBatch.from_scenarios(scenarios)
    # One (n, w) block: application j reads column min(j, w - 1).
    np.testing.assert_array_equal(
        columns.lifetime, [[1.0, 2.5, 2.5], [2.0, 2.0, 2.0], [1.0, 2.0, 4.0]]
    )
    batch = evaluator.evaluate_batch(dnn_comparator, columns)
    assert batch.asic_generations.shape == (3, 3)
    for i, scenario in enumerate(scenarios):
        reference = dnn_comparator.compare(scenario)
        assert batch.ratios[i] == reference.ratio
        assert batch.fpga_totals[i] == reference.fpga.footprint.total
        assert batch.comparison(i, scenario) == reference


# ----------------------------------------------------------------------
# Multi-comparator kernel path (per-row suites)
# ----------------------------------------------------------------------


def _perturb(comparator, value: float):
    """Perturb every sub-model the ext_uncertainty study varies."""
    return dataclasses.replace(
        comparator,
        suite=comparator.suite.with_overrides(
            operation=OperationModel(
                energy_source=30.0 + value,
                profile=comparator.suite.operation.profile,
            ),
            manufacturing=ManufacturingModel(recycled_fraction=min(1.0, value / 50.0)),
            eol=EolModel(recycled_fraction=min(1.0, value / 60.0)),
            design=DesignModel(energy_source=700.0 - 10.0 * value),
        ),
    )


def test_evaluate_pairs_batch_matches_scalar_rtol(dnn_comparator,
                                                  baseline_scenario):
    pairs = [
        (_perturb(dnn_comparator, float(v)), baseline_scenario)
        for v in range(40)
    ]
    batch = EvaluationEngine().evaluate_pairs_batch(pairs)
    for i, (comparator, scenario) in enumerate(pairs):
        reference = comparator.compare(scenario)
        np.testing.assert_allclose(
            batch.fpga_totals[i], reference.fpga.footprint.total,
            rtol=1.0e-12, atol=0.0,
        )
        np.testing.assert_allclose(
            batch.asic_totals[i], reference.asic.footprint.total,
            rtol=1.0e-12, atol=0.0,
        )
        np.testing.assert_allclose(
            batch.ratios[i], reference.ratio, rtol=1.0e-12, atol=0.0
        )
        assert batch.winners[i] == reference.winner


def test_pairs_batch_mixed_domains_and_scenarios():
    """Rows may mix domains, suites and scenarios arbitrarily."""
    pairs = []
    for domain in DOMAIN_NAMES:
        comparator = PlatformComparator.for_domain(domain)
        pairs.append((comparator, Scenario(num_apps=2, app_lifetime_years=1.5,
                                           volume=5_000)))
        pairs.append((_perturb(comparator, 7.0),
                      Scenario(num_apps=4, app_lifetime_years=2.5,
                               volume=250_000, enforce_chip_lifetime=True,
                               evaluation_years=40.0)))
    batch = EvaluationEngine().evaluate_pairs_batch(pairs)
    for i, (comparator, scenario) in enumerate(pairs):
        reference = comparator.compare(scenario)
        np.testing.assert_allclose(
            batch.ratios[i], reference.ratio, rtol=1.0e-12, atol=0.0
        )


def test_pairs_batch_credit_negative_eol_parity(baseline_scenario):
    """Aggressive recycling credits (negative per-chip EOL) stay in parity."""
    comparator = PlatformComparator.for_domain("dnn")
    credited = dataclasses.replace(
        comparator,
        suite=comparator.suite.with_overrides(
            eol=EolModel(recycled_fraction=1.0, material="copper")
        ),
    )
    reference = credited.compare(baseline_scenario)
    assert reference.fpga.footprint.eol < 0.0  # the credit is real
    batch = EvaluationEngine().evaluate_pairs_batch(
        [(credited, baseline_scenario)]
    )
    np.testing.assert_allclose(
        batch.fpga_components["eol"][0], reference.fpga.footprint.eol,
        rtol=1.0e-12, atol=0.0,
    )
    np.testing.assert_allclose(
        batch.ratios[0], reference.ratio, rtol=1.0e-12, atol=0.0
    )


# ----------------------------------------------------------------------
# Degenerate-ratio semantics (masks, no warnings)
# ----------------------------------------------------------------------


def test_ratio_kernel_matches_scalar_degenerate_semantics():
    fpga = np.array([10.0, 0.0, -0.5, 5.0, -5.0, 2.0])
    asic = np.array([0.0, 0.0, 0.0, 2.0, -1.0, -2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any FP warning fails the test
        ratios = ratio_kernel(fpga, asic)
    assert ratios[0] == math.inf       # zero ASIC, positive FPGA
    assert ratios[1] == 1.0            # both zero: perfect tie
    assert ratios[2] == -math.inf      # zero ASIC, credit-negative FPGA
    assert ratios[3] == pytest.approx(2.5)
    assert ratios[4] == pytest.approx(5.0)   # both negative
    assert ratios[5] == pytest.approx(-1.0)  # negative ASIC only


def test_winner_kernel_ties_go_to_asic():
    fpga = np.array([1.0, 2.0, 2.0])
    asic = np.array([2.0, 1.0, 2.0])
    np.testing.assert_array_equal(
        winner_kernel(fpga, asic), np.array(["fpga", "asic", "asic"])
    )


def _scalar_fold(xi: float, ni: int) -> float:
    """The scalar models' repeated ``+=`` (0.0 for counts below one)."""
    if ni < 1:
        return 0.0
    acc = xi
    for _ in range(int(ni) - 1):
        acc = acc + xi
    return acc


def repeat_add(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row-wise ``x + x + ... + x`` (``counts`` times) through a
    one-operand :class:`FoldPlan`, broadcasting ``x`` against
    ``counts`` (``0.0`` where ``counts < 1``)."""
    x = np.asarray(x, dtype=np.float64)
    counts = np.asarray(counts)
    shape = np.broadcast_shapes(x.shape, counts.shape)
    plan = FoldPlan(np.broadcast_to(counts, shape))
    return plan.fold(np.broadcast_to(x, shape).reshape(-1))[0].reshape(shape)


def _assert_bit_equal(got: np.ndarray, want: list[float]) -> None:
    want_arr = np.array(want, dtype=np.float64)
    assert got.shape == want_arr.shape
    np.testing.assert_array_equal(
        got.view(np.int64), want_arr.view(np.int64)
    )  # bit-exact, not approx (NaN payloads and -0.0 included)


_FOLD_X = np.array([0.1, 0.7, 1.0 / 3.0, 1234.5678, -2.5e-7, 6.02e23])


_FOLD_COUNTS = [
    [1, 4, 7, 23, 2, 9],  # distinct
    [3, 3, 3, 3, 3, 3],  # uniform
    [5, 2, 5, 2, 5, 2],  # repeated
    [1, 200, 1, 200, 200, 1],  # gaps
    [230, 199, 0, 1, 57, 212],  # maximum >= 200, a zero count
]


def test_repeat_add_reproduces_left_fold():
    for counts in map(np.array, _FOLD_COUNTS):
        _assert_bit_equal(
            repeat_add(_FOLD_X, counts),
            [_scalar_fold(x, n) for x, n in zip(_FOLD_X, counts)],
        )
        # A length-1 operand broadcasts against n counts.
        _assert_bit_equal(
            repeat_add(_FOLD_X[:1], counts),
            [_scalar_fold(_FOLD_X[0], n) for n in counts],
        )
        # One shared plan folds several operands exactly like repeat_add.
        operands = (_FOLD_X, _FOLD_X[::-1], _FOLD_X[2:3])
        for row, x in zip(FoldPlan(counts).fold(*operands), operands):
            np.testing.assert_array_equal(row, repeat_add(x, counts))


def test_repeat_add_non_finite_operands():
    x = np.array([np.inf, -np.inf, np.nan, -0.0, np.inf, np.nan])
    counts = np.array([3, 1, 4, 5, 0, 0])
    _assert_bit_equal(
        repeat_add(x, counts), [_scalar_fold(a, n) for a, n in zip(x, counts)]
    )


def test_repeat_add_stride0_and_multi_tile_counts():
    tiled = ScenarioBatch.tile(
        Scenario(num_apps=37, app_lifetime_years=2.0, volume=10), 5
    ).num_apps
    assert tiled.strides[0] == 0
    _assert_bit_equal(
        repeat_add(_FOLD_X[:5], tiled),
        [_scalar_fold(x, 37) for x in _FOLD_X[:5]],
    )
    # Larger than one fold tile, ragged and uniform.
    rng = np.random.default_rng(7)
    n = FoldPlan.TILE_ROWS * 2 + 123
    x = rng.standard_normal(n) * 1e3
    for counts in (rng.integers(0, 60, n), np.full(n, 13)):
        got = repeat_add(x, counts)
        sample = rng.integers(0, n, 400)
        _assert_bit_equal(
            got[sample], [_scalar_fold(x[i], counts[i]) for i in sample]
        )


def test_repeat_add_empty_and_zero_counts():
    np.testing.assert_array_equal(
        repeat_add(np.array([]), np.array([], dtype=int)), np.array([])
    )
    np.testing.assert_array_equal(
        repeat_add(np.array([3.0]), np.array([0])), np.array([0.0])
    )
    np.testing.assert_array_equal(
        repeat_add(np.array([3.0, 4.0]), np.array([0, -2])),
        np.array([0.0, 0.0]),
    )
    assert FoldPlan(np.array([], dtype=int)).fold(np.array([])).shape == (1, 0)
    assert FoldPlan(np.zeros(3, dtype=int)).fold(np.ones(3)).tolist() == [
        [0.0, 0.0, 0.0]
    ]


def test_fold_plan_size_independent_of_counts():
    # One prefix length per distinct positive count: a huge count costs
    # no memory until it is folded.
    plan = FoldPlan(np.array([1, 10**12, 1, 10**12, 5, 0]))
    assert plan.levels == [(1, 5), (5, 3), (10**12, 2)]
    assert FoldPlan(np.full(4, 10**12)).levels == [(10**12, 4)]


def test_ragged_num_apps_batch_bit_identical_to_scalar(dnn_comparator):
    apps = np.arange(1, 201)
    lifetimes = np.array([0.5, 2.0, 3.25])
    num_apps = np.repeat(apps, lifetimes.size)
    lifetime = np.tile(lifetimes, apps.size)
    batch = ScenarioBatch.from_arrays(
        num_apps=num_apps, lifetime=lifetime, volume=50_000
    )
    result = EvaluationEngine(cache_size=0).evaluate_batch(dnn_comparator, batch)
    components = ("design", "manufacturing", "packaging", "eol",
                  "appdev", "operational")
    for i, (n, t) in enumerate(zip(num_apps, lifetime)):
        ref = dnn_comparator.compare(
            Scenario(num_apps=int(n), app_lifetime_years=float(t), volume=50_000)
        )
        assert result.ratios[i] == ref.ratio
        assert result.winners[i] == ref.winner
        assert result.fpga_totals[i] == ref.fpga.footprint.total
        assert result.asic_totals[i] == ref.asic.footprint.total
        for c in components:
            assert result.fpga_components[c][i] == getattr(ref.fpga.footprint, c)
            assert result.asic_components[c][i] == getattr(ref.asic.footprint, c)

    fused = FusedKernel().evaluate(
        ParameterBatch.from_comparator(dnn_comparator, batch.size), batch
    )
    assert fused is not None
    np.testing.assert_allclose(fused.ratios, result.ratios, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        fused.fpga_totals, result.fpga_totals, rtol=1e-12, atol=0.0
    )
    np.testing.assert_allclose(
        fused.asic_totals, result.asic_totals, rtol=1e-12, atol=0.0
    )
    np.testing.assert_array_equal(
        np.asarray(fused.winners), np.asarray(result.winners)
    )


# ----------------------------------------------------------------------
# Engine integration: fast path, cache warmth, scalar spelling
# ----------------------------------------------------------------------


def test_engine_fast_path_populates_shared_cache(dnn_comparator):
    engine = EvaluationEngine()
    scenarios = [
        Scenario(num_apps=n, app_lifetime_years=1.0, volume=1_000)
        for n in range(1, 13)
    ]
    engine.evaluate_many(dnn_comparator, scenarios)  # vector fast path
    assert engine.cache_stats.misses == len(scenarios)
    engine.evaluate(dnn_comparator, scenarios[0])  # scalar caller
    stats = engine.cache_stats
    assert stats.hits >= 1 and stats.misses == len(scenarios)


def test_engine_vectorized_results_equal_scalar_engine(dnn_comparator):
    scenarios = [
        Scenario(num_apps=n, app_lifetime_years=1.5, volume=20_000)
        for n in range(1, 13)
    ]
    vector = EvaluationEngine().evaluate_many(dnn_comparator, scenarios)
    scalar = EvaluationEngine(vectorize=False).evaluate_many(
        dnn_comparator, scenarios
    )
    for v, s in zip(vector, scalar):
        assert v == s


def test_engine_small_batches_skip_the_kernel(dnn_comparator, monkeypatch):
    """Below MIN_VECTOR_BATCH the scalar path runs (same results)."""
    from repro.engine.engine import MIN_VECTOR_BATCH

    scenarios = [
        Scenario(num_apps=n, app_lifetime_years=1.0, volume=10_000)
        for n in range(1, MIN_VECTOR_BATCH)
    ]
    engine = EvaluationEngine()

    def no_kernel(*args, **kwargs):
        raise AssertionError("a group below MIN_VECTOR_BATCH hit the kernel")

    monkeypatch.setattr(engine._vector, "evaluate_batch", no_kernel)
    results = engine.evaluate_many(dnn_comparator, scenarios)
    assert results == tuple(dnn_comparator.compare(s) for s in scenarios)


def test_engine_evaluate_batch_scalar_spelling_matches(dnn_comparator):
    scenarios = [
        Scenario(num_apps=n, app_lifetime_years=2.0, volume=1_000)
        for n in (1, 2, 3)
    ]
    vector = EvaluationEngine().evaluate_batch(dnn_comparator, scenarios)
    scalar = EvaluationEngine(vectorize=False).evaluate_batch(
        dnn_comparator, scenarios
    )
    assert isinstance(scalar, BatchResult)
    np.testing.assert_array_equal(vector.ratios, scalar.ratios)
    np.testing.assert_array_equal(vector.winners, scalar.winners)
    np.testing.assert_array_equal(vector.n_fpga, scalar.n_fpga)
    np.testing.assert_array_equal(vector.fpga_generations, scalar.fpga_generations)
    np.testing.assert_array_equal(vector.asic_generations, scalar.asic_generations)
    for i, scenario in enumerate(scenarios):
        assert vector.comparison(i, scenario) == scalar.comparison(i, scenario)


# ----------------------------------------------------------------------
# Analysis batch entry points
# ----------------------------------------------------------------------


def test_sweep_batch_matches_sweep(dnn_comparator, baseline_scenario):
    """A fractional base volume rides along unchanged on both paths."""
    values = [1, 2, 3, 4, 5, 6, 7, 8]
    for base in (baseline_scenario, baseline_scenario.with_volume(1000.5)):
        classic = sweep(dnn_comparator, base, "num_apps", values)
        batch = sweep_batch(dnn_comparator, base, "num_apps", values)
        np.testing.assert_array_equal(batch.ratios, np.array(classic.ratios))
        np.testing.assert_array_equal(
            batch.fpga_totals, np.array(classic.fpga_totals)
        )
        np.testing.assert_array_equal(
            batch.asic_totals, np.array(classic.asic_totals)
        )
        assert list(batch.winners) == [
            classic.winner_at(i) for i in range(len(values))
        ]


def test_sweep_batch_rejects_bad_axis(dnn_comparator, baseline_scenario):
    with pytest.raises(ParameterError):
        sweep_batch(dnn_comparator, baseline_scenario, "nonsense", [1.0])
    with pytest.raises(ParameterError):
        sweep_batch(dnn_comparator, baseline_scenario, "volume", [])


def test_heatmap_batch_matches_heatmap(dnn_comparator, baseline_scenario):
    x_values, y_values = [1, 3, 9], [0.5, 1.5, 2.5]
    classic = pairwise_heatmap(
        dnn_comparator, baseline_scenario,
        "num_apps", x_values, "lifetime", y_values,
        engine=EvaluationEngine(),
    )
    batch = pairwise_heatmap_batch(
        dnn_comparator, baseline_scenario,
        "num_apps", x_values, "lifetime", y_values,
    )
    np.testing.assert_array_equal(batch.ratios, classic.ratios)
    assert batch.x_values == classic.x_values
    assert batch.y_values == classic.y_values


def test_heatmap_batch_volume_axis(dnn_comparator, baseline_scenario):
    """Volume axes flow through the int column exactly like with_volume."""
    result = pairwise_heatmap_batch(
        dnn_comparator, baseline_scenario,
        "volume", [1.0e3, 1.0e5, 1.0e7], "lifetime", [1.0, 2.0],
    )
    manual = pairwise_heatmap(
        dnn_comparator, baseline_scenario,
        "volume", [1.0e3, 1.0e5, 1.0e7], "lifetime", [1.0, 2.0],
        engine=EvaluationEngine(vectorize=False),
    )
    np.testing.assert_array_equal(result.ratios, manual.ratios)


def test_monte_carlo_batch_matches_monte_carlo(dnn_comparator, small_scenario):
    def set_intensity(comparator, value):
        return dataclasses.replace(
            comparator,
            suite=comparator.suite.with_overrides(
                operation=OperationModel(
                    energy_source=value,
                    profile=comparator.suite.operation.profile,
                )
            ),
        )

    dists = [ParameterDistribution("use_intensity", 30.0, 700.0, set_intensity)]
    classic = monte_carlo(dnn_comparator, small_scenario, dists,
                          n_samples=50, seed=7,
                          engine=EvaluationEngine(vectorize=False))
    batch = monte_carlo_batch(dnn_comparator, small_scenario, dists,
                              n_samples=50, seed=7)
    assert batch.samples == classic.samples  # identical RNG consumption
    np.testing.assert_allclose(batch.ratios, classic.ratios,
                               rtol=1.0e-12, atol=0.0)
    assert batch.fpga_win_probability == classic.fpga_win_probability


def test_explore_batch_matches_explore(small_scenario):
    grid = {
        "use_energy_source": ["wind", "coal"],
        "duty_cycle": [0.1, 0.5],
    }
    classic = explore("dnn", small_scenario, grid,
                      engine=EvaluationEngine(vectorize=False))
    batch = explore_batch("dnn", small_scenario, grid)
    assert len(batch.points) == len(classic.points)
    for got, want in zip(batch.points, classic.points):
        assert got.overrides == want.overrides
        np.testing.assert_allclose(got.fpga_total_kg, want.fpga_total_kg,
                                   rtol=1.0e-12, atol=0.0)
        np.testing.assert_allclose(got.asic_total_kg, want.asic_total_kg,
                                   rtol=1.0e-12, atol=0.0)
        assert got.winner == want.winner


def test_heatmap_batch_heterogeneous_base_matches_scalar(dnn_comparator):
    """A ragged base works when the lifetime axis overrides it (and the
    batch path mirrors the scalar path's apply-y-then-x failure mode)."""
    ragged = Scenario(num_apps=2, app_lifetime_years=[1.0, 2.0], volume=10_000)
    classic = pairwise_heatmap(
        dnn_comparator, ragged, "num_apps", [1, 2], "lifetime", [1.0, 2.0],
        engine=EvaluationEngine(vectorize=False),
    )
    batch = pairwise_heatmap_batch(
        dnn_comparator, ragged, "num_apps", [1, 2], "lifetime", [1.0, 2.0]
    )
    np.testing.assert_array_equal(batch.ratios, classic.ratios)
    # Swapped axes apply num_apps while lifetimes are still ragged: the
    # scalar path raises, so the batch path must too.
    with pytest.raises(ParameterError):
        pairwise_heatmap(
            dnn_comparator, ragged, "lifetime", [1.0, 2.0], "num_apps", [1, 2],
            engine=EvaluationEngine(vectorize=False),
        )
    with pytest.raises(ParameterError):
        pairwise_heatmap_batch(
            dnn_comparator, ragged, "lifetime", [1.0, 2.0], "num_apps", [1, 2]
        )


def test_volume_batch_over_heterogeneous_base_matches_scalar(dnn_comparator):
    """A volume axis over a ragged base keeps the base's per-application
    lifetimes, as ``Scenario.with_volume`` does; a num_apps axis raises
    on both paths, as ``Scenario.with_num_apps`` does."""
    ragged = Scenario(num_apps=3, app_lifetime_years=[1.0, 2.5, 4.0],
                      volume=10_000)
    volumes = [1_000, 50_000, 2_000_000, 123_457]
    columns = axis_batch(ragged, {"volume": np.asarray(volumes)})
    assert columns.lifetime.shape == (len(volumes), 3)
    scalar = EvaluationEngine(vectorize=False)
    classic = sweep(dnn_comparator, ragged, "volume", volumes, engine=scalar)
    batch = sweep_batch(dnn_comparator, ragged, "volume", volumes,
                        engine=EvaluationEngine()).batch
    for got, want in ((batch.fpga_totals, classic.fpga_totals),
                      (batch.asic_totals, classic.asic_totals),
                      (batch.ratios, classic.ratios)):
        np.testing.assert_allclose(got, want, rtol=1.0e-12, atol=0.0)
    assert list(batch.winners) == [
        classic.winner_at(i) for i in range(len(volumes))
    ]
    grid = ("volume", volumes, "lifetime", [1.0, 3.0])
    np.testing.assert_allclose(
        pairwise_heatmap_batch(dnn_comparator, ragged, *grid).ratios,
        pairwise_heatmap(dnn_comparator, ragged, *grid, engine=scalar).ratios,
        rtol=1.0e-12, atol=0.0,
    )
    with pytest.raises(ParameterError):
        sweep(dnn_comparator, ragged, "num_apps", [1, 2], engine=scalar)
    with pytest.raises(ParameterError):
        sweep_batch(dnn_comparator, ragged, "num_apps", [1, 2])


def test_win_probability_uses_totals_based_winners():
    """A credit-negative ASIC total flips the quotient's sign; the
    winners column keeps the probability honest."""
    from repro.analysis.montecarlo import MonteCarloResult

    ratios = np.array([-5.0, 0.5, 2.0])  # first draw: fpga=10, asic=-2
    by_ratio = MonteCarloResult(ratios=ratios, samples=({},) * 3)
    assert by_ratio.fpga_win_probability == pytest.approx(2 / 3)  # proxy
    with_winners = MonteCarloResult(
        ratios=ratios, samples=({},) * 3,
        winners=np.array(["asic", "fpga", "asic"]),
    )
    assert with_winners.fpga_win_probability == pytest.approx(1 / 3)


def test_monte_carlo_results_carry_winners(dnn_comparator, small_scenario):
    def set_intensity(comparator, value):
        return dataclasses.replace(
            comparator,
            suite=comparator.suite.with_overrides(
                operation=OperationModel(
                    energy_source=value,
                    profile=comparator.suite.operation.profile,
                )
            ),
        )

    dists = [ParameterDistribution("use_intensity", 30.0, 700.0, set_intensity)]
    classic = monte_carlo(dnn_comparator, small_scenario, dists,
                          n_samples=10, seed=3,
                          engine=EvaluationEngine(vectorize=False))
    batch = monte_carlo_batch(dnn_comparator, small_scenario, dists,
                              n_samples=10, seed=3)
    assert classic.winners is not None and batch.winners is not None
    np.testing.assert_array_equal(classic.winners, batch.winners)


# ----------------------------------------------------------------------
# ScenarioBatch columns
# ----------------------------------------------------------------------


def test_from_arrays_validates_vectorised():
    with pytest.raises(ParameterError):
        ScenarioBatch.from_arrays(num_apps=[1, 0], lifetime=2.0, volume=10)
    with pytest.raises(ParameterError):
        ScenarioBatch.from_arrays(num_apps=1, lifetime=-1.0, volume=10)
    with pytest.raises(ParameterError):
        ScenarioBatch.from_arrays(num_apps=1, lifetime=2.0, volume=0)
    with pytest.raises(ParameterError):
        ScenarioBatch.from_arrays(num_apps=1, lifetime=2.0, volume=10,
                                  evaluation_years=0.0)


def test_from_arrays_broadcasts_scalars():
    batch = ScenarioBatch.from_arrays(
        num_apps=[1, 2, 3], lifetime=2.0, volume=100
    )
    assert batch.size == 3
    np.testing.assert_array_equal(batch.volume, [100, 100, 100])
    assert batch.volume.dtype == np.float64
    scenario = batch.scenario_at(1)
    assert scenario == Scenario(num_apps=2, app_lifetime_years=2.0, volume=100)


def test_identical_scenario_fast_path_marks_coverage():
    """The identical-object fast path (a tile) builds the same row shape
    as the per-row path: a lifetime column for uniform scenarios, a
    per-application block for ragged ones."""
    uniform = Scenario(num_apps=3, app_lifetime_years=2.0, volume=10)
    ragged = Scenario(num_apps=2, app_lifetime_years=[1.0, 3.0], volume=10)
    assert ScenarioBatch.from_scenarios([uniform] * 5).lifetime.shape == (5,)
    fast = ScenarioBatch.from_scenarios([ragged] * 5)
    slow = ScenarioBatch.from_scenarios([ragged, dataclasses.replace(ragged)])
    assert fast.lifetime.shape == (5, 2)
    np.testing.assert_array_equal(fast.lifetime[:2], slow.lifetime)
