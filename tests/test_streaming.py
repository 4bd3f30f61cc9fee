"""Streaming reduction pipeline: reducers, chunk execution, parity.

The contract under test (see ``repro/engine/vector/reducers.py``):
streamed reductions are **bit-identical across chunk sizes, worker
counts and the 1-chunk degenerate case**, match the materialized path
exactly for integer counters (win probability, non-finite draws),
within ``rtol <= 1e-12`` for moments, and within documented sketch
tolerance (exact while the sketch holds every finite value) for
quantiles — all while never materializing more than one chunk of rows.
"""

from __future__ import annotations

import contextvars
import threading
import time

import numpy as np
import pytest

from repro.analysis.dse import explore_batch
from repro.analysis.montecarlo import (
    MonteCarloResult,
    ParameterDistribution,
    monte_carlo_batch,
    monte_carlo_reduction,
    monte_carlo_stream,
    quantiles_from_sorted,
)
from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.engine import EvaluationEngine
from repro.engine.vector import (
    ArrayChunkSource,
    BatchResult,
    Checkpoint,
    CheckpointJournal,
    HistogramReducer,
    MomentsReducer,
    MonteCarloChunkSource,
    ParameterBatch,
    ParetoReducer,
    ReservoirQuantiles,
    ScenarioBatch,
    SharedArrayChunkSource,
    StreamingReduction,
    TopKReducer,
    WinCountReducer,
    extract_row,
    run_stream,
)
from repro.engine.vector import params as pcols
from repro.engine.vector.evaluator import VectorizedEvaluator
from repro.engine.vector.streaming import PREFETCH_THREAD_PREFIX
from repro.errors import ParameterError
from repro.experiments.ext_uncertainty import distributions as table1_distributions
from repro.operation.model import OperationModel
from repro.units import g_per_kwh_to_kg_per_kwh

BASELINE = Scenario(num_apps=5, app_lifetime_years=2.0, volume=1_000_000)


def _fake_result(
    ratios: np.ndarray,
    winners: "np.ndarray | None" = None,
    fpga: "np.ndarray | None" = None,
    asic: "np.ndarray | None" = None,
) -> BatchResult:
    """A minimal BatchResult carrying only the columns reducers read."""
    n = ratios.shape[0]
    zeros = np.zeros(n)
    ints = np.zeros(n, dtype=np.int64)
    return BatchResult(
        ratios=np.asarray(ratios, dtype=np.float64),
        winners=(
            winners if winners is not None else np.full(n, "asic", dtype="<U4")
        ),
        fpga_totals=zeros if fpga is None else np.asarray(fpga, float),
        asic_totals=zeros if asic is None else np.asarray(asic, float),
        fpga_components={},
        asic_components={},
        fpga_per_chip_embodied_kg=zeros,
        asic_per_chip_embodied_kg=zeros,
        n_fpga=ints,
        fpga_generations=ints,
        asic_generations=ints,
        num_apps=ints,
    )


def _chunked(reducer, values: np.ndarray, chunk: int, **kwargs):
    """Feed ``values`` through a fresh reducer in ``chunk``-row pieces."""
    fresh = reducer.fresh()
    for start in range(0, values.shape[0], chunk):
        fresh.update(
            _fake_result(values[start : start + chunk], **kwargs), start
        )
    return fresh


# ----------------------------------------------------------------------
# Reducer units
# ----------------------------------------------------------------------


def test_moments_match_numpy_and_count_non_finite():
    rng = np.random.default_rng(11)
    values = rng.normal(1.5, 0.4, 5000)
    values[::97] = np.inf
    values[::131] = np.nan
    moments = _chunked(MomentsReducer(block=256), values, 512).moments()
    finite = values[np.isfinite(values)]
    assert moments["n"] == 5000
    assert moments["n_finite"] == finite.size
    np.testing.assert_allclose(moments["mean"], finite.mean(), rtol=1e-12)
    np.testing.assert_allclose(moments["std"], finite.std(), rtol=1e-9)
    assert moments["min"] == finite.min() and moments["max"] == finite.max()


def test_moments_variance_survives_large_offset_small_spread():
    # E[x^2]-E[x]^2 would lose all significant digits here; the
    # per-block M2 + Chan combine must not.
    rng = np.random.default_rng(2)
    values = 1.0e8 + rng.normal(0.0, 1.0e-2, 8192)
    moments = _chunked(MomentsReducer(block=512), values, 1024).moments()
    np.testing.assert_allclose(moments["var"], values.var(), rtol=1e-6)
    np.testing.assert_allclose(moments["std"], values.std(), rtol=1e-6)
    assert moments["var"] > 0.0


def test_moments_bit_identical_across_chunkings_and_merge_order():
    rng = np.random.default_rng(7)
    values = rng.normal(size=4096)
    one = _chunked(MomentsReducer(block=128), values, 4096).moments()
    for chunk in (128, 256, 1024):
        assert _chunked(MomentsReducer(block=128), values, chunk).moments() == one
    # merging partials in any order reaches the same state
    proto = MomentsReducer(block=128)
    a = _chunked(proto, values[:1024], 256)
    b = proto.fresh()
    for start in range(1024, 4096, 512):
        b.update(_fake_result(values[start : start + 512]), start)
    b.merge(a)
    assert b.moments() == one


def test_moments_rejects_unaligned_and_overlapping_chunks():
    reducer = MomentsReducer(block=64)
    reducer.update(_fake_result(np.ones(64)), 0)
    with pytest.raises(ParameterError):
        reducer.update(_fake_result(np.ones(64)), 32)  # unaligned
    with pytest.raises(ParameterError):
        reducer.update(_fake_result(np.ones(64)), 0)  # block reduced twice
    other = reducer.fresh()
    other.update(_fake_result(np.ones(64)), 0)
    with pytest.raises(ParameterError):
        reducer.merge(other)


def test_win_counter_matches_materialized_convention():
    rng = np.random.default_rng(3)
    ratios = rng.normal(1.0, 0.5, 2000)
    ratios[::53] = np.inf
    winners = np.where(rng.random(2000) < 0.3, "fpga", "asic").astype("<U4")
    wins = _chunked(WinCountReducer(), ratios, 333, winners=winners)
    reference = MonteCarloResult(
        ratios=ratios, samples=({},) * 2000, winners=winners
    )
    assert wins.fpga_win_probability == reference.fpga_win_probability
    moments = _chunked(MomentsReducer(block=1), ratios, 333)
    assert moments.n_total - moments.n_finite == reference.n_non_finite


def test_histogram_matches_numpy_with_out_of_range_tallies():
    rng = np.random.default_rng(5)
    values = rng.normal(1.0, 1.0, 3000)
    values[:7] = np.nan
    hist = _chunked(HistogramReducer(0.0, 2.0, bins=32), values, 700)
    finite = values[np.isfinite(values)]
    inside = finite[(finite >= 0.0) & (finite <= 2.0)]
    np.testing.assert_array_equal(
        hist.counts, np.histogram(inside, bins=32, range=(0.0, 2.0))[0]
    )
    assert hist.non_finite == 7
    assert hist.underflow == int(np.count_nonzero(finite < 0.0))
    assert hist.overflow == int(np.count_nonzero(finite > 2.0))
    assert hist.counts.sum() + hist.underflow + hist.overflow == finite.size


def test_reservoir_exact_below_k_and_deterministic_above():
    rng = np.random.default_rng(9)
    values = rng.normal(size=5000)
    exact = _chunked(ReservoirQuantiles(k=8192, seed=1), values, 611)
    assert exact.exact
    qs = (0.05, 0.5, 0.95)
    expected = {float(q): float(v) for q, v in zip(qs, np.quantile(values, qs))}
    assert exact.quantiles(qs) == expected

    sketch_a = _chunked(ReservoirQuantiles(k=512, seed=1), values, 613)
    sketch_b = _chunked(ReservoirQuantiles(k=512, seed=1), values, 2048)
    assert not sketch_a.exact
    np.testing.assert_array_equal(sketch_a.sample(), sketch_b.sample())
    # ~sqrt(q(1-q)/k) rank error: generous 5-sigma bound in value space
    for q, estimate in sketch_a.quantiles(qs).items():
        rank_sigma = np.sqrt(q * (1 - q) / 512)
        lo, hi = np.quantile(values, [max(0.0, q - 5 * rank_sigma),
                                      min(1.0, q + 5 * rank_sigma)])
        assert lo <= estimate <= hi


def test_topk_and_pareto_match_exhaustive_reference():
    rng = np.random.default_rng(21)
    n = 500
    fpga = rng.uniform(1.0, 10.0, n)
    asic = rng.uniform(1.0, 10.0, n)
    asic[100:110] = asic[90:100]  # inject exact coordinate duplicates
    fpga[100:110] = fpga[90:100]
    ratios = fpga / asic
    top = TopKReducer(k=10)
    front = ParetoReducer()
    for chunk, reducer in ((64, top), (117, front)):
        for start in range(0, n, chunk):
            reducer.update(
                _fake_result(
                    ratios[start : start + chunk],
                    fpga=fpga[start : start + chunk],
                    asic=asic[start : start + chunk],
                ),
                start,
            )
    best = np.minimum(fpga, asic)
    expected_top = sorted(range(n), key=lambda i: (best[i], i))[:10]
    assert [row["index"] for row in top.rows()] == expected_top

    kept = {row["index"] for row in front.rows()}
    for i in range(n):
        dominated = bool(np.any(
            (fpga <= fpga[i]) & (asic <= asic[i])
            & ((fpga < fpga[i]) | (asic < asic[i]))
        ))
        assert (i not in kept) == dominated, i


def test_pareto_keeps_nan_rows_like_materialized_dominates():
    from repro.analysis.dse import _dominates

    fpga = np.array([1.0, 2.0, np.nan, 3.0, 0.5])
    asic = np.array([2.0, 1.0, 1.5, np.nan, 3.0])
    front = ParetoReducer()
    front.update(_fake_result(fpga / asic, fpga=fpga, asic=asic), 0)
    kept = {row["index"] for row in front.rows()}
    for i in range(5):
        dominated = any(
            _dominates((fpga[j], asic[j]), (fpga[i], asic[i]))
            for j in range(5) if j != i
        )
        assert (i not in kept) == dominated, i
    assert {2, 3} <= kept  # NaN rows can never be dominated


def test_quantiles_from_sorted_is_bit_identical_to_numpy():
    rng = np.random.default_rng(13)
    for n in (1, 2, 5, 1000):
        values = rng.normal(size=n)
        qs = np.concatenate([[0.0, 1.0], rng.random(17)])
        np.testing.assert_array_equal(
            quantiles_from_sorted(np.sort(values), qs),
            np.quantile(values, qs),
        )
    with pytest.raises(ValueError):
        quantiles_from_sorted(np.zeros(3), [1.5])


# ----------------------------------------------------------------------
# End-to-end streaming Monte-Carlo
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def comparator(suite):
    return PlatformComparator.for_domain("dnn", suite)


@pytest.fixture(scope="module")
def engine():
    with EvaluationEngine(cache_size=0) as eng:
        yield eng


N_DRAWS = 20_000


@pytest.fixture(scope="module")
def materialized(comparator, engine):
    return monte_carlo_batch(
        comparator, BASELINE, table1_distributions(), n_samples=N_DRAWS,
        seed=2024, engine=engine,
    )


def _small_reduction():
    """A reduction sized so small studies exercise multi-chunk paths."""
    return monte_carlo_reduction(seed=2024, quantile_k=N_DRAWS, block=512)


def test_streaming_matches_materialized_across_chunk_sizes(
    comparator, engine, materialized
):
    reference = None
    for chunk_rows in (2048, 7168, N_DRAWS):  # N_DRAWS = 1-chunk degenerate
        stream = monte_carlo_batch(
            comparator, BASELINE, table1_distributions(), n_samples=N_DRAWS,
            seed=2024, engine=engine, reduce=_small_reduction(),
            chunk_rows=chunk_rows, workers=1,
        )
        # exact integer counters
        assert stream.n_samples == materialized.n_samples
        assert stream.fpga_win_probability == materialized.fpga_win_probability
        assert stream.n_non_finite == materialized.n_non_finite
        # moments within 1e-12 of the materialized reference
        np.testing.assert_allclose(
            stream.ratio_mean, materialized.summary()["ratio_mean"],
            rtol=1e-12, atol=0.0,
        )
        # the sketch holds every draw here -> quantiles track the
        # materialized run within the fused tier's parity bound (the
        # default streaming tier reassociates scalar algebra; the
        # chain-tier test below keeps the bitwise guarantee)
        assert stream.quantile_exact
        sq, mq = stream.quantiles(), materialized.quantiles()
        assert set(sq) == set(mq)
        np.testing.assert_allclose(
            [sq[q] for q in sorted(sq)], [mq[q] for q in sorted(mq)],
            rtol=1e-12, atol=0.0,
        )
        assert set(stream.summary()) == set(materialized.summary())
        # bit-identical summaries for every chunking
        if reference is None:
            reference = stream
        else:
            assert stream.summary() == reference.summary()
            np.testing.assert_array_equal(
                stream.quantile_sample, reference.quantile_sample
            )


def test_chain_tier_streaming_matches_materialized_bitwise(
    comparator, materialized
):
    """``kernel_tier="numpy"`` preserves the pre-fused bitwise contract."""
    with EvaluationEngine(cache_size=0, kernel_tier="numpy") as eng:
        stream = monte_carlo_batch(
            comparator, BASELINE, table1_distributions(), n_samples=N_DRAWS,
            seed=2024, engine=eng, reduce=_small_reduction(),
            chunk_rows=2048, workers=1,
        )
    assert stream.n_samples == materialized.n_samples
    assert stream.fpga_win_probability == materialized.fpga_win_probability
    assert stream.quantile_exact
    assert stream.quantiles() == materialized.quantiles()


def test_streaming_chunk_source_bit_reproduces_sequential_draws(comparator):
    dists = tuple(table1_distributions())
    source = MonteCarloChunkSource(
        np.asarray(extract_row(comparator)), dists, 2024, BASELINE, 1000
    )
    rng = np.random.default_rng(2024)
    full = rng.random((1000, len(dists)))
    for start, stop in ((0, 300), (300, 301), (301, 1000)):
        params, batch = source.chunk(start, stop)
        assert batch.size == stop - start
        for j, dist in enumerate(dists):
            if dist.name == "duty_cycle":
                expected = dist.column_from_uniform(full[start:stop, j])
                np.testing.assert_array_equal(
                    params.col(pcols.OP_DUTY), expected
                )


def test_streaming_multiworker_bit_parity(comparator, materialized):
    with EvaluationEngine(cache_size=0, workers=2) as eng:
        stream = monte_carlo_stream(
            comparator, BASELINE, table1_distributions(), n_samples=N_DRAWS,
            seed=2024, engine=eng, chunk_rows=4096, quantile_k=N_DRAWS,
        )
        sequential = monte_carlo_stream(
            comparator, BASELINE, table1_distributions(), n_samples=N_DRAWS,
            seed=2024, engine=eng, chunk_rows=4096, workers=1,
            quantile_k=N_DRAWS,
        )
    assert stream.summary() == sequential.summary()
    np.testing.assert_array_equal(
        stream.quantile_sample, sequential.quantile_sample
    )
    assert stream.fpga_win_probability == materialized.fpga_win_probability


def test_streaming_falls_back_sequential_for_unpicklable_study(comparator):
    def _apply(comp, value):  # local function: unpicklable for spawn
        suite = comp.suite.with_overrides(
            operation=OperationModel(
                energy_source=value, profile=comp.suite.operation.profile
            )
        )
        import dataclasses

        return dataclasses.replace(comp, suite=suite)

    dists = [
        ParameterDistribution(
            "use_intensity", 30.0, 700.0, _apply, kind="loguniform",
            apply_column=lambda params, values: params.set_col(
                pcols.OP_CI, g_per_kwh_to_kg_per_kwh(values)
            ),
        )
    ]
    with EvaluationEngine(cache_size=0, workers=2) as eng:
        stream = monte_carlo_stream(
            comparator, BASELINE, dists, n_samples=4096, seed=7, engine=eng,
            chunk_rows=1024,
        )
        reference = monte_carlo_stream(
            comparator, BASELINE, dists, n_samples=4096, seed=7, engine=eng,
            chunk_rows=1024, workers=1,
        )
    assert stream.summary() == reference.summary()


def test_streaming_validates_reduction_members_and_chunk_rows(
    comparator, engine
):
    incomplete = StreamingReduction({"histogram": HistogramReducer(0.0, 2.0)})
    with pytest.raises(ParameterError, match="missing members"):
        monte_carlo_batch(
            comparator, BASELINE, table1_distributions(), n_samples=64,
            engine=engine, reduce=incomplete,
        )
    with pytest.raises(ParameterError, match="missing members"):
        explore_batch("dnn", BASELINE, GRID, engine=engine, reduce=incomplete)
    with pytest.raises(ParameterError, match="chunk_rows"):
        monte_carlo_stream(
            comparator, BASELINE, table1_distributions(), n_samples=64,
            engine=engine, chunk_rows=0, workers=1,
        )


def test_streaming_requires_columnar_path(comparator, engine):
    no_column = [
        ParameterDistribution("x", 0.1, 0.9, lambda c, v: c)  # no apply_column
    ]
    with pytest.raises(ParameterError, match="apply_column"):
        monte_carlo_stream(
            comparator, BASELINE, no_column, n_samples=64, engine=engine
        )
    with EvaluationEngine(vectorize=False) as scalar_eng:
        with pytest.raises(ParameterError, match="vectorize"):
            monte_carlo_stream(
                comparator, BASELINE, table1_distributions(), n_samples=64,
                engine=scalar_eng,
            )


# ----------------------------------------------------------------------
# Engine reduce= mode and shared-memory workers
# ----------------------------------------------------------------------


def _perturbed_param_batch(comparator, n: int) -> tuple[ParameterBatch, ScenarioBatch]:
    params = ParameterBatch.from_comparator(comparator, n)
    rng = np.random.default_rng(17)
    params.set_col(pcols.OP_CI, rng.uniform(0.03, 0.7, n))
    params.set_col(pcols.MFG_RHO, rng.uniform(0.0, 1.0, n))
    return params, ScenarioBatch.tile(BASELINE, n)


def test_evaluate_param_batch_reduce_mode_matches_materialized(comparator):
    n = 8192
    params, batch = _perturbed_param_batch(comparator, n)
    with EvaluationEngine(cache_size=0) as eng:
        full = eng.evaluate_param_batch(params, batch)
        reduction = eng.evaluate_param_batch(
            params, batch,
            reduce=monte_carlo_reduction(seed=0, quantile_k=n, block=512),
            chunk_rows=1024, stream_workers=1,
        )
    assert isinstance(reduction, StreamingReduction)
    moments = reduction["moments"].moments()
    finite = full.ratios[np.isfinite(full.ratios)]
    assert moments["n"] == n and moments["n_finite"] == finite.size
    np.testing.assert_allclose(moments["mean"], finite.mean(), rtol=1e-12)
    wins = reduction["wins"]
    assert wins.fpga_wins == int(np.count_nonzero(full.winners == "fpga"))


def test_shared_memory_workers_match_sequential(comparator):
    n = 8192
    params, batch = _perturbed_param_batch(comparator, n)
    prototype = monte_carlo_reduction(seed=0, quantile_k=n, block=512)
    with EvaluationEngine(cache_size=0) as eng:
        parallel = eng.evaluate_param_batch(
            params, batch, reduce=prototype.fresh(), chunk_rows=1024,
            stream_workers=2,
        )
        sequential = eng.evaluate_param_batch(
            params, batch, reduce=prototype.fresh(), chunk_rows=1024,
            stream_workers=1,
        )
    assert parallel["moments"].moments() == sequential["moments"].moments()
    assert parallel["wins"].fpga_wins == sequential["wins"].fpga_wins
    np.testing.assert_array_equal(
        parallel["quantiles"].sample(), sequential["quantiles"].sample()
    )


def test_shared_chunk_source_round_trips_columns(comparator):
    n = 1024
    params, _ = _perturbed_param_batch(comparator, n)
    ragged = Scenario(num_apps=3, app_lifetime_years=(1.0, 3.0, 3.0),
                      volume=10.5)
    batch = ScenarioBatch.from_scenarios([BASELINE, ragged] * (n // 2))
    source = SharedArrayChunkSource.pack(params, batch)
    try:
        chunk_params, chunk_batch = source.chunk(100, 612)
        reference_p, reference_b = ArrayChunkSource(params, batch).chunk(100, 612)
        np.testing.assert_array_equal(
            chunk_params.col(pcols.OP_CI), reference_p.col(pcols.OP_CI)
        )
        # broadcast columns ride inline, untouched by the shared block
        np.testing.assert_array_equal(
            chunk_params.col(pcols.F_AREA), reference_p.col(pcols.F_AREA)
        )
        np.testing.assert_array_equal(
            chunk_batch.num_apps, reference_b.num_apps
        )
        # the (n, w) per-application lifetime block keeps its shape
        np.testing.assert_array_equal(chunk_batch.lifetime, reference_b.lifetime)
        np.testing.assert_array_equal(chunk_batch.volume, reference_b.volume)
        assert chunk_batch.lifetime.shape == (512, 2)
    finally:
        source.close()


def test_reduce_mode_streams_heterogeneous_rows(comparator, engine):
    ragged = Scenario(num_apps=2, app_lifetime_years=(1.0, 3.0), volume=10.5)
    params = ParameterBatch.from_comparators([comparator] * 4)
    batch = ScenarioBatch.from_scenarios((ragged,) * 4)
    merged = engine.evaluate_param_batch(
        params, batch, reduce=monte_carlo_reduction(seed=0)
    )
    assert merged["wins"].n == 4
    assert merged["moments"].moments()["mean"] == pytest.approx(
        comparator.compare(ragged).ratio, rel=1e-12
    )


# ----------------------------------------------------------------------
# Streaming DSE
# ----------------------------------------------------------------------


GRID = {
    "fab_energy_source": ["taiwan", "usa", "europe"],
    "recycled_material_fraction": [0.0, 0.3, 0.6, 0.9],
    "duty_cycle": [0.2, 0.5, 0.8],
}


def test_explore_batch_streaming_matches_materialized(engine):
    materialized = explore_batch("dnn", BASELINE, GRID, engine=engine)
    streamed = explore_batch(
        "dnn", BASELINE, GRID, engine=engine, reduce=True, chunk_rows=7,
        top_k=5, workers=1,
    )
    assert streamed.streamed and not materialized.streamed
    assert streamed.best().overrides == materialized.best().overrides
    np.testing.assert_allclose(
        streamed.best().ratio, materialized.best().ratio, rtol=1e-12
    )
    front_m = {tuple(sorted(p.overrides.items())): p
               for p in materialized.pareto_front()}
    front_s = {tuple(sorted(p.overrides.items())): p
               for p in streamed.pareto_front()}
    assert front_m.keys() == front_s.keys()
    for key, point in front_s.items():
        np.testing.assert_allclose(
            point.fpga_total_kg, front_m[key].fpga_total_kg, rtol=1e-12
        )
    # kept points: top-k united with the front, deduplicated
    assert len(streamed.points) <= 5 + len(front_s)
    # every kept ranked point matches its materialized twin
    ranked = {tuple(sorted(p.overrides.items())): p
              for p in materialized.points}
    for point in streamed.points:
        twin = ranked[tuple(sorted(point.overrides.items()))]
        np.testing.assert_allclose(point.ratio, twin.ratio, rtol=1e-12)


def test_explore_batch_streams_heterogeneous_scenario(engine):
    ragged = Scenario(num_apps=2, app_lifetime_years=(1.0, 2.0), volume=10.5)
    materialized = explore_batch("dnn", ragged, GRID, engine=engine)
    streamed = explore_batch(
        "dnn", ragged, GRID, engine=engine, reduce=True, chunk_rows=7,
        workers=1,
    )
    assert streamed.best().overrides == materialized.best().overrides
    assert streamed.best().ratio == materialized.best().ratio


# ----------------------------------------------------------------------
# Pool hygiene
# ----------------------------------------------------------------------


def test_stream_worker_resolution_validates_and_caps():
    from repro.engine import MAX_STREAM_WORKERS

    with EvaluationEngine() as eng:
        with pytest.raises(ParameterError):
            eng.stream_workers(0)
        assert eng.stream_workers(3) == 3
        assert eng.stream_workers(64) == MAX_STREAM_WORKERS
    with EvaluationEngine(workers=32) as pinned:
        # the engine pin obeys the streaming hard cap too
        assert pinned.stream_workers() == MAX_STREAM_WORKERS


def test_engine_pools_are_pinned_to_spawn():
    with EvaluationEngine(workers=2) as eng:
        assert (
            eng._stream_pool_get(2)._mp_context.get_start_method() == "spawn"
        )


def test_broken_stream_pool_degrades_then_recovers(comparator):
    import os

    with EvaluationEngine(cache_size=0, workers=2) as eng:
        pool = eng._stream_pool_get(2)
        with pytest.raises(Exception):  # kill a worker -> pool breaks
            pool.submit(os._exit, 1).result()
        assert pool._broken
        # the next run must not crash: the engine rebuilds the broken
        # pool up-front, and run_stream's submit sits inside its
        # sequential-fallback try for breakage mid-run
        result = monte_carlo_stream(
            comparator, BASELINE, table1_distributions(), n_samples=2048,
            seed=5, engine=eng, chunk_rows=512,
        )
        assert result.n_samples == 2048
        fresh = eng._stream_pool_get(2)
        assert fresh is not pool and not fresh._broken


class _KamikazeChunkSource:
    """Chunk-source wrapper that SIGKILLs the worker asked for one span.

    Module-level so spawn can pickle it to the pool workers.  The
    parent-pid guard matters twice: the parent's own sequential
    *recovery* pass replays the same ``chunk(kill_start, ...)`` call and
    must survive it, and the probe pickle in ``run_stream`` must not
    detonate anything.  SIGKILL (not an exception, not ``sys.exit``) is
    the point — the worker gets no chance to answer, exactly like an
    OOM kill.
    """

    def __init__(self, inner, kill_start: int, parent_pid: int) -> None:
        self.inner = inner
        self.n = inner.n
        self.kill_start = kill_start
        self.parent_pid = parent_pid

    def chunk(self, start: int, stop: int):
        import os
        import signal

        if start == self.kill_start and os.getpid() != self.parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.chunk(start, stop)


def test_run_stream_recovers_sigkilled_worker_bit_identically(comparator):
    """A worker dying mid-span must cost a recompute, never a result.

    Regression for the streaming fault-recovery path: SIGKILL one pool
    worker at the first chunk of its span, assert the merged reduction
    is bit-identical to the sequential run and that the recovery
    counters fired.
    """
    import os

    from repro.engine.vector.streaming import STREAM_STATS

    dists = tuple(table1_distributions())
    n, chunk = 8192, 1024
    inner = MonteCarloChunkSource(
        np.asarray(extract_row(comparator)), dists, 2024, BASELINE, n
    )
    prototype = monte_carlo_reduction(seed=2024, quantile_k=n, block=512)
    sequential = run_stream(
        inner, prototype.fresh(), chunk_rows=chunk, workers=1
    )

    # Spans for n=8192 / chunk=1024 / 2 workers: [0,4096) and
    # [4096,8192) — kill the worker that picks up the second span.
    killer = _KamikazeChunkSource(inner, 4096, os.getpid())
    before = STREAM_STATS.snapshot()
    with EvaluationEngine(cache_size=0, workers=2) as eng:
        recovered = run_stream(
            killer, prototype.fresh(), chunk_rows=chunk, workers=2,
            pool=eng._stream_pool_get(2),
        )
    after = STREAM_STATS.snapshot()

    assert after["broken_pool_recoveries"] == (
        before["broken_pool_recoveries"] + 1
    )
    assert after["spans_recovered"] >= before["spans_recovered"] + 1
    assert recovered["moments"].moments() == sequential["moments"].moments()
    assert recovered["wins"].fpga_wins == sequential["wins"].fpga_wins
    np.testing.assert_array_equal(
        recovered["quantiles"].sample(), sequential["quantiles"].sample()
    )


def test_engine_close_is_idempotent_under_concurrent_callers(comparator):
    eng = EvaluationEngine(cache_size=0, workers=2)
    # start the pool so close() has real work to race over
    eng._stream_pool_get(2)
    errors: list[BaseException] = []

    def hammer() -> None:
        try:
            for _ in range(20):
                eng.close()
        except BaseException as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert eng._stream_pool is None
    # the engine stays usable: pools restart lazily on demand
    result = monte_carlo_stream(
        comparator, BASELINE, table1_distributions(), n_samples=1024,
        seed=3, engine=eng, chunk_rows=512, workers=1,
    )
    assert result.n_samples == 1024
    eng.close()
    eng.close()  # double close after use is a no-op too


# ----------------------------------------------------------------------
# One-chunk-ahead sampling (in-process streams)
# ----------------------------------------------------------------------


def _prefetch_threads() -> list[str]:
    return [
        thread.name for thread in threading.enumerate()
        if thread.name.startswith(PREFETCH_THREAD_PREFIX)
    ]


def _mc(comparator, n: int) -> MonteCarloChunkSource:
    return MonteCarloChunkSource(
        np.asarray(extract_row(comparator)), tuple(table1_distributions()),
        2024, BASELINE, n,
    )


@pytest.mark.parametrize(
    "m", [1, 16_383, 16_384, 16_385, 100_001, 131_072]
)
def test_tiled_draws_bit_identical_to_whole_matrix_draw(comparator, m):
    """Tile-by-tile sampling consumes PCG64 in the order of one (m, k)
    fill, for uniform and loguniform knobs alike."""
    dists = tuple(table1_distributions())
    assert {d.kind for d in dists} == {"uniform", "loguniform"}
    start = 12_345
    source = _mc(comparator, start + 131_072)
    params, batch = source.chunk(start, start + m)

    rng = np.random.default_rng(2024)
    rng.bit_generator.advance(start * len(dists))
    units = rng.random((m, len(dists)))
    expected = ParameterBatch(m, base_row=source.base_row)
    for j, dist in enumerate(dists):
        dist.apply_column(expected, dist.column_from_uniform(units[:, j]))
    assert batch.size == m
    assert params.columns.keys() == expected.columns.keys()
    for key, column in expected.columns.items():
        np.testing.assert_array_equal(params.columns[key], column)


def test_chunk_columns_survive_the_next_draw(comparator):
    """A chunk's columns stay valid until the next-but-one call (the
    two-slot ring a one-ahead producer relies on)."""
    rows = 4096
    source = _mc(comparator, 3 * rows)
    first, _ = source.chunk(0, rows)
    kept = {key: column.copy() for key, column in first.columns.items()}
    second, _ = source.chunk(rows, 2 * rows)
    for key, column in kept.items():
        np.testing.assert_array_equal(first.columns[key], column)
        assert not np.shares_memory(first.columns[key], second.columns[key])
    third, _ = source.chunk(2 * rows, 3 * rows)
    assert any(
        np.shares_memory(first.columns[key], third.columns[key])
        for key in kept
    )


class _OffsetLog:
    """Reducer member logging the offsets it folds into a shared list."""

    alignment = 1

    def __init__(self, log: list) -> None:
        self.log = log

    def fresh(self) -> "_OffsetLog":
        return _OffsetLog(self.log)

    def update(self, result, offset: int) -> None:
        self.log.append(offset)


_CALLER: "contextvars.ContextVar[str]" = contextvars.ContextVar(
    "caller", default="unset"
)


class _Prefetchable:
    """A prefetch-safe source wrapper that records each draw and can
    fail the draw starting at ``fail_at``."""

    PREFETCH_SAFE = True

    def __init__(self, inner, fail_at: "int | None" = None,
                 delay_s: float = 0.0) -> None:
        self.inner = inner
        self.fail_at = fail_at
        self.delay_s = delay_s
        self.started: list[int] = []
        self.finished: list[int] = []
        self.threads: set[str] = set()
        self.contexts: set[str] = set()

    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def seed(self) -> int:
        return self.inner.seed

    def checkpoint_token(self) -> str:
        return self.inner.checkpoint_token()

    def chunk(self, start: int, stop: int):
        self.started.append(start)
        self.threads.add(threading.current_thread().name)
        self.contexts.add(_CALLER.get())
        try:
            if start == self.fail_at:
                raise RuntimeError(f"draw failed at row {start}")
            time.sleep(self.delay_s)
            return self.inner.chunk(start, stop)
        finally:
            self.finished.append(start)


def test_prefetched_draws_run_off_thread_in_the_callers_context(comparator):
    rows = 2048
    source = _Prefetchable(_mc(comparator, 8 * rows))
    token = _CALLER.set("study")
    try:
        streamed = run_stream(source, _small_reduction(), chunk_rows=rows)
    finally:
        _CALLER.reset(token)
    reference = run_stream(
        _mc(comparator, 8 * rows), _small_reduction(), chunk_rows=rows
    )
    assert streamed.to_state().keys() == reference.to_state().keys()
    for key, array in reference.to_state().items():
        np.testing.assert_array_equal(streamed.to_state()[key], array)
    assert source.started == [rows * i for i in range(8)]
    assert {name.split("_")[0] for name in source.threads} == {
        PREFETCH_THREAD_PREFIX
    }
    assert source.contexts == {"study"}
    assert _prefetch_threads() == []


def test_non_prefetch_sources_draw_inline(comparator):
    rows = 2048
    source = _Prefetchable(_mc(comparator, 4 * rows))
    source.PREFETCH_SAFE = False
    run_stream(source, _small_reduction(), chunk_rows=rows)
    assert source.threads == {threading.current_thread().name}


def test_prefetched_draw_failure_surfaces_at_its_chunk(comparator):
    rows, fail = 1024, 5
    log: list[int] = []
    source = _Prefetchable(_mc(comparator, 8 * rows), fail_at=fail * rows)
    with pytest.raises(RuntimeError, match=f"row {fail * rows}"):
        run_stream(
            source, StreamingReduction({"log": _OffsetLog(log)}),
            chunk_rows=rows,
        )
    # Every chunk before the failing one was reduced, none after it
    # was drawn, and nothing is left running.
    assert log == [rows * i for i in range(fail)]
    assert max(source.started) == fail * rows
    assert sorted(source.started) == sorted(source.finished)
    assert _prefetch_threads() == []


def test_prefetched_draw_failure_keeps_every_earlier_unit(
    comparator, tmp_path
):
    rows, fail = 1024, 5
    config = Checkpoint(tmp_path / "mc.ckpt", every_rows=rows)
    source = _Prefetchable(_mc(comparator, 8 * rows), fail_at=fail * rows)
    with pytest.raises(RuntimeError, match=f"row {fail * rows}"):
        run_stream(source, _small_reduction(), chunk_rows=rows,
                   checkpoint=config)
    journal = CheckpointJournal.open(
        config, _mc(comparator, 8 * rows), _small_reduction(),
        n=8 * rows, chunk_rows=rows,
    )
    assert journal.resumed_units == fail
    assert [unit[0] for unit in journal.pending()] == [5, 6, 7]


def test_model_error_leaves_no_draw_in_flight_and_a_clean_rerun(
    comparator, monkeypatch
):
    rows = 2048
    source = _Prefetchable(_mc(comparator, 8 * rows), delay_s=0.02)
    original = VectorizedEvaluator.reduce_batch
    calls = []

    def failing(self, params, batch):
        calls.append(1)
        if len(calls) == 3:
            raise ParameterError("model error in chunk 2")
        return original(self, params, batch)

    monkeypatch.setattr(VectorizedEvaluator, "reduce_batch", failing)
    with pytest.raises(ParameterError, match="chunk 2"):
        run_stream(source, _small_reduction(), chunk_rows=rows)
    # The draw of chunk 3 had started; it finished before the error
    # left run_stream, and the producer thread is gone.
    assert source.started == [0, rows, 2 * rows, 3 * rows]
    assert source.finished == source.started
    assert _prefetch_threads() == []

    monkeypatch.setattr(VectorizedEvaluator, "reduce_batch", original)
    rerun = run_stream(source, _small_reduction(), chunk_rows=rows)
    fresh = run_stream(
        _mc(comparator, 8 * rows), _small_reduction(), chunk_rows=rows
    )
    for key, array in fresh.to_state().items():
        np.testing.assert_array_equal(rerun.to_state()[key], array)


def test_no_prefetch_thread_outlives_a_study_or_engine_close(
    comparator, monkeypatch
):
    engine = EvaluationEngine(cache_size=0, workers=1)
    seen: set[str] = set()
    original = MonteCarloChunkSource.chunk

    def spy(self, start, stop):
        seen.add(threading.current_thread().name)
        return original(self, start, stop)

    monkeypatch.setattr(MonteCarloChunkSource, "chunk", spy)
    monte_carlo_stream(
        comparator, BASELINE, table1_distributions(), n_samples=8192,
        seed=5, engine=engine, chunk_rows=1024, workers=1,
    )
    assert {name.split("_")[0] for name in seen} == {PREFETCH_THREAD_PREFIX}
    assert _prefetch_threads() == []
    engine.close()
    assert _prefetch_threads() == []


def test_concurrent_prefetching_streams_on_one_source_stay_exact(comparator):
    """Four streams over one source instance at once, with a short
    switch interval: each run's producer thread has its own column
    ring, so no run reads another's draws."""
    import sys

    rows = 512
    source = _mc(comparator, 16 * rows)
    reference = run_stream(
        _Prefetchable(_mc(comparator, 16 * rows)), _small_reduction(),
        chunk_rows=rows,
    ).to_state()
    reference_inline = _Prefetchable(_mc(comparator, 16 * rows))
    reference_inline.PREFETCH_SAFE = False
    inline = run_stream(
        reference_inline, _small_reduction(), chunk_rows=rows
    ).to_state()
    for key, array in inline.items():
        np.testing.assert_array_equal(reference[key], array)

    results: list = []
    errors: list = []

    def study() -> None:
        try:
            for _ in range(3):
                results.append(run_stream(
                    source, _small_reduction(), chunk_rows=rows
                ).to_state())
        except BaseException as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=study) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(results) == 12
    for state in results:
        for key, array in reference.items():
            np.testing.assert_array_equal(state[key], array)
    assert _prefetch_threads() == []
