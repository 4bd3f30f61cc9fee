"""One row shape through the kernels: every valid ``Scenario`` is a row.

Mixed batches of uniform and heterogeneous per-application lifetimes,
with fractional volumes, horizon overrides, chip-lifetime enforcement
and application sizing, must

* equal the scalar model bit for bit on the NumPy chain, down to the
  materialised ``per_application`` footprints and ASIC generations;
* match it on a default-tier engine (identical winners, rtol <= 1e-12);
* stream bit-identically for any chunk size and worker count
  (Monte-Carlo and DSE over a heterogeneous scenario).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.dse import explore_batch
from repro.analysis.montecarlo import monte_carlo_stream
from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.devices.catalog import DOMAIN_NAMES
from repro.engine import EvaluationEngine, ParameterBatch, ScenarioBatch
from repro.engine.vector import REDUCE_BLOCK, VectorizedEvaluator
from repro.engine.vector.kernels import KERNEL_RTOL
from repro.engine.vector.model import chip_generations
from repro.engine.vector.streaming import STREAM_STATS
from repro.experiments.ext_uncertainty import distributions

CHAIN = VectorizedEvaluator(kernel_tier="numpy")
DEFAULT_TIER = VectorizedEvaluator()
GRID = {"duty_cycle": [0.2, 0.5, 0.8], "recycled_material_fraction": [0.0, 0.6]}

lifetimes = st.floats(min_value=0.25, max_value=15.0, allow_nan=False)


@st.composite
def scenarios(draw) -> Scenario:
    num_apps = draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()):
        app_lifetime_years = draw(lifetimes)
    else:
        app_lifetime_years = tuple(
            draw(st.lists(lifetimes, min_size=num_apps, max_size=num_apps))
        )
    return Scenario(
        num_apps=num_apps,
        app_lifetime_years=app_lifetime_years,
        volume=draw(st.one_of(
            st.integers(min_value=1, max_value=10_000_000),
            st.floats(min_value=1.0, max_value=1.0e7, allow_nan=False),
        )),
        evaluation_years=draw(st.one_of(
            st.none(), st.floats(min_value=0.5, max_value=40.0)
        )),
        app_size_mgates=draw(st.one_of(
            st.none(), st.floats(min_value=1.0, max_value=300.0)
        )),
        enforce_chip_lifetime=draw(st.booleans()),
    )


HETEROGENEOUS = Scenario(
    num_apps=3, app_lifetime_years=(1.0, 2.5, 2.5), volume=20_000.5
)

#: Three reducer blocks: a 2-worker stream runs more than one span.
N_DRAWS = 2 * REDUCE_BLOCK + 7


@pytest.fixture(scope="module")
def stream_engine():
    with EvaluationEngine(cache_size=0) as engine:
        yield engine


@settings(
    derandomize=True,
    database=None,
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    domain=st.sampled_from(DOMAIN_NAMES),
    batch=st.lists(scenarios(), min_size=1, max_size=12).map(
        lambda rows: [*rows, HETEROGENEOUS]
    ),
)
def test_mixed_rows_match_the_scalar_model(stream_engine, domain, batch):
    comparator = PlatformComparator.for_domain(domain)
    reference = [comparator.compare(s) for s in batch]
    columns = ScenarioBatch.from_scenarios(batch)
    assert columns.lifetime.ndim == 2  # the heterogeneous row forces a block

    # The chain equals the scalar model bit for bit, objects included.
    chain = CHAIN.evaluate_batch(comparator, columns)
    chip_life = comparator.asic_device.chip_lifetime_years
    width = chain.asic_generations.shape[1]
    for i, (scenario, expected) in enumerate(zip(batch, reference)):
        assert chain.comparison(i, scenario) == expected
        assert chain.ratios[i] == expected.ratio
        assert [
            int(chain.asic_generations[i, min(j, width - 1)])
            for j in range(scenario.num_apps)
        ] == [chip_generations(t, chip_life) for t in scenario.lifetimes]

    # A default-tier engine and the default reduce tier agree to rtol,
    # with identical winners (the fused tier yields (n, w) blocks).
    winners = np.array([r.winner for r in reference])
    ratios = np.array([r.ratio for r in reference])
    engine = EvaluationEngine()
    for result in (
        engine.evaluate_batch(comparator, columns),
        engine.evaluate_batch(comparator, columns),  # warm
        engine.evaluate_pairs_batch([(comparator, s) for s in batch]),
        DEFAULT_TIER.reduce_batch(
            ParameterBatch.from_comparators([comparator] * len(batch)), columns
        ),
    ):
        np.testing.assert_array_equal(np.asarray(result.winners), winners)
        np.testing.assert_allclose(result.ratios, ratios, rtol=KERNEL_RTOL, atol=0)
    assert engine.evaluate_many(comparator, batch) == tuple(reference)

    # Streaming over the first heterogeneous row: bit-identical for any
    # chunk size and for one or two workers.
    scenario = next(s for s in batch if len(set(s.lifetimes)) > 1)
    recoveries = STREAM_STATS.snapshot()
    studies = [
        monte_carlo_stream(
            comparator, scenario, distributions(), n_samples=N_DRAWS,
            seed=7, engine=stream_engine, chunk_rows=chunk_rows,
            workers=workers,
        )
        for chunk_rows, workers in (
            (REDUCE_BLOCK, 1), (N_DRAWS, 1), (REDUCE_BLOCK, 2)
        )
    ]
    grids = [
        explore_batch(
            domain, scenario, GRID, engine=stream_engine, reduce=True,
            chunk_rows=chunk_rows, workers=workers,
        )
        for chunk_rows, workers in ((1, 1), (6, 1), (2, 2))
    ]
    assert STREAM_STATS.snapshot() == recoveries  # the pool ran its spans
    for study in studies[1:]:
        assert study.summary() == studies[0].summary()
        assert study.quantiles() == studies[0].quantiles()
    for grid in grids[1:]:
        assert grid.points == grids[0].points
