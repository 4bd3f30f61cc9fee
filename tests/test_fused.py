"""Fused kernel tier: selection, fallback, parity, allocation.

The contract under test (see ``repro/engine/vector/fused.py``): the
fused tier serves values within ``rtol <= 1e-12`` of the kernel chain
with bit-identical winners, is invariant to chunk size and worker
count, allocates nothing array-sized per chunk after warmup, and is
selected by exactly two tier spellings (``fused``, ``numpy``).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.analysis.montecarlo import monte_carlo_reduction
from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.engine import EvaluationEngine
from repro.engine.vector import (
    MonteCarloChunkSource,
    extract_row,
    run_stream,
)
from repro.engine.vector import fused as fused_mod
from repro.engine.vector.evaluator import VectorizedEvaluator
from repro.engine.vector.fused import (
    KERNEL_TIER_ENV,
    FusedKernel,
    FusedResult,
    ScratchPool,
    kernel_tier_label,
    make_kernel,
    resolve_kernel_tier,
)
from repro.engine.vector.kernels import ratio_kernel, winner_kernel
from repro.errors import ParameterError
from repro.experiments.ext_uncertainty import distributions as table1_distributions

BASELINE = Scenario(num_apps=5, app_lifetime_years=2.0, volume=1_000_000)

RTOL = 1e-12


@pytest.fixture(scope="module")
def comparator():
    return PlatformComparator.for_domain("dnn")


def _source(comparator, n, seed=2024):
    return MonteCarloChunkSource(
        np.asarray(extract_row(comparator)),
        table1_distributions(),
        seed,
        BASELINE,
        n,
    )


# ----------------------------------------------------------------------
# Tier resolution: env var, explicit request, validation
# ----------------------------------------------------------------------


def test_resolve_tier_env_and_request(monkeypatch):
    monkeypatch.delenv(KERNEL_TIER_ENV, raising=False)
    assert resolve_kernel_tier(None) == "fused"
    assert resolve_kernel_tier("numpy") == "chain"

    monkeypatch.setenv(KERNEL_TIER_ENV, "numpy")
    assert resolve_kernel_tier(None) == "chain"
    # An explicit request wins over the environment.
    assert resolve_kernel_tier("fused") == "fused"

    monkeypatch.setenv(KERNEL_TIER_ENV, "fused")
    assert resolve_kernel_tier(None) == "fused"


def test_resolve_tier_rejects_unknown(monkeypatch):
    with pytest.raises(ParameterError, match="kernel tier"):
        resolve_kernel_tier("bogus")
    monkeypatch.setenv(KERNEL_TIER_ENV, "bogus")
    with pytest.raises(ParameterError, match="kernel tier"):
        resolve_kernel_tier(None)


def test_exactly_two_tier_spellings(monkeypatch):
    monkeypatch.delenv(KERNEL_TIER_ENV, raising=False)
    assert fused_mod.KERNEL_TIERS == ("fused", "numpy")
    for spelling in ("fused", "numpy"):
        resolve_kernel_tier(spelling)
        with EvaluationEngine(kernel_tier=spelling):
            pass


@pytest.mark.parametrize("spelling", ["numba", "auto", "bogus"])
def test_retired_and_unknown_spellings_list_both_tiers(monkeypatch, spelling):
    monkeypatch.delenv(KERNEL_TIER_ENV, raising=False)
    for reject in (
        lambda: resolve_kernel_tier(spelling),
        lambda: EvaluationEngine(kernel_tier=spelling),
    ):
        with pytest.raises(ParameterError) as info:
            reject()
        assert "'fused'" in str(info.value)
        assert "'numpy'" in str(info.value)


@pytest.mark.parametrize("env", [None, "", "  "])
def test_unset_or_empty_env_means_fused(monkeypatch, env):
    if env is None:
        monkeypatch.delenv(KERNEL_TIER_ENV, raising=False)
    else:
        monkeypatch.setenv(KERNEL_TIER_ENV, env)
    assert kernel_tier_label(None) == "fused-numpy"
    with EvaluationEngine() as engine:
        assert engine.kernel_tier_name == "fused-numpy"


def test_tier_labels(monkeypatch):
    monkeypatch.delenv(KERNEL_TIER_ENV, raising=False)
    assert kernel_tier_label("numpy") == "numpy-chain"
    assert kernel_tier_label("fused") == "fused-numpy"
    assert kernel_tier_label(None) == "fused-numpy"


def test_make_kernel_chain_is_none(monkeypatch):
    monkeypatch.delenv(KERNEL_TIER_ENV, raising=False)
    assert make_kernel("numpy") is None
    kern = make_kernel("fused")
    assert isinstance(kern, FusedKernel)
    assert kern.name == "fused-numpy"


def test_kernel_rejects_bad_backend_and_dtype():
    """One backend, float64 only: the kernel takes no selector at all."""
    with pytest.raises(TypeError):
        FusedKernel(backend="cuda")
    with pytest.raises(TypeError):
        FusedKernel(dtype=np.int32)


def test_engine_validates_tier_eagerly(monkeypatch):
    monkeypatch.delenv(KERNEL_TIER_ENV, raising=False)
    with pytest.raises(ParameterError, match="kernel tier"):
        EvaluationEngine(kernel_tier="bogus")
    with EvaluationEngine(kernel_tier="fused") as engine:
        assert engine.kernel_tier_name == "fused-numpy"
    # kernel_tier_name resolves live, so the env override shows up.
    monkeypatch.setenv(KERNEL_TIER_ENV, "numpy")
    with EvaluationEngine() as engine:
        assert engine.kernel_tier_name == "numpy-chain"


# ----------------------------------------------------------------------
# Parity vs the kernel chain
# ----------------------------------------------------------------------


def test_fused_matches_chain_values_and_winners(comparator):
    n = 4096
    params, batch = _source(comparator, n).chunk(0, n)
    chain = VectorizedEvaluator(kernel_tier="numpy").evaluate_param_batch(
        params, batch
    )
    result = FusedKernel().evaluate(params, batch)
    assert result is not None
    np.testing.assert_allclose(result.ratios, chain.ratios, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(
        result.fpga_totals, chain.fpga_totals, rtol=RTOL, atol=0.0
    )
    np.testing.assert_allclose(
        result.asic_totals, chain.asic_totals, rtol=RTOL, atol=0.0
    )
    # Winners are bit-identical, not merely close.
    np.testing.assert_array_equal(
        np.asarray(result.winners), np.asarray(chain.winners)
    )
    assert result.fpga_win_count == int(
        np.count_nonzero(np.asarray(chain.winners) == "fpga")
    )


def test_fused_ratio_and_winner_twins_match_chain():
    # The fused tier writes ratios into a pool buffer and keeps winners
    # as an FPGA-wins mask; both must match the chain's spellings.
    fpga = np.array([1.0, 0.0, 0.0, 5.0, 2.0, -1.0])
    asic = np.array([2.0, 0.0, 3.0, 0.0, 2.0, 4.0])
    pool = ScratchPool()
    np.testing.assert_array_equal(
        ratio_kernel(fpga, asic, out=pool.take(fpga.size)),
        ratio_kernel(fpga, asic),
    )
    result = FusedResult(ratio_kernel(fpga, asic), fpga, asic, fpga < asic)
    np.testing.assert_array_equal(result.winners, winner_kernel(fpga, asic))
    assert result.fpga_win_count == 3


# ----------------------------------------------------------------------
# Streaming: chunk-size / worker-count invariance, env override
# ----------------------------------------------------------------------


def _summary_state(reduction):
    moments = reduction["moments"].moments()
    wins = reduction["wins"]
    sample = np.sort(reduction["quantiles"].sample())
    return moments, wins.n, wins.fpga_wins, sample


@pytest.mark.parametrize("chunk", [17, 256, 1000])
def test_fused_stream_invariant_and_matches_chain(comparator, chunk):
    n = 2000
    prototype = monte_carlo_reduction(seed=11, quantile_k=n)

    def run(kernel_tier, chunk_rows):
        return run_stream(
            _source(comparator, n),
            prototype.fresh(),
            chunk_rows=chunk_rows,
            workers=1,
            kernel_tier=kernel_tier,
        )

    fused = run("fused", chunk)
    reference = run("fused", n)  # single-chunk degenerate case
    chain = run("numpy", n)

    f_m, f_n, f_w, f_s = _summary_state(fused)
    r_m, r_n, r_w, r_s = _summary_state(reference)
    c_m, c_n, c_w, c_s = _summary_state(chain)

    # Fused is bit-identical across chunk sizes ...
    assert f_m == r_m
    assert (f_n, f_w) == (r_n, r_w)
    np.testing.assert_array_equal(f_s, r_s)
    # ... and matches the chain within the tier's contract, with exact
    # counters.
    assert (f_n, f_w) == (c_n, c_w)
    for key in f_m:
        np.testing.assert_allclose(f_m[key], c_m[key], rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(f_s, c_s, rtol=RTOL, atol=0.0)


def test_fused_large_uniform_num_apps_stays_within_contract(comparator):
    # x * count drifts from the left fold by up to (count - 1) * 2**-53
    # relative; at 100k applications that is ~1e-11, so the NumPy fused
    # backend must yield such batches to the chain.
    n = 256
    scenario = Scenario(num_apps=100_000, app_lifetime_years=2.0, volume=1_000)
    source = MonteCarloChunkSource(
        np.asarray(extract_row(comparator)), table1_distributions(), 3,
        scenario, n,
    )
    prototype = monte_carlo_reduction(seed=3, quantile_k=n)

    def run(kernel_tier):
        return run_stream(
            source, prototype.fresh(), chunk_rows=n, workers=1,
            kernel_tier=kernel_tier,
        )

    f_m, f_n, f_w, f_s = _summary_state(run("fused"))
    c_m, c_n, c_w, c_s = _summary_state(run("numpy"))
    assert (f_n, f_w) == (c_n, c_w)
    np.testing.assert_allclose(f_s, c_s, rtol=RTOL, atol=0.0)
    for key in f_m:
        np.testing.assert_allclose(f_m[key], c_m[key], rtol=RTOL, atol=0.0)

    params, batch = source.chunk(0, n)
    assert FusedKernel().evaluate(params, batch) is None
    assert fused_mod.MAX_UNIFORM_FOLD_COUNT == 9008


def test_fused_stream_worker_invariant(comparator):
    n = 4096
    prototype = monte_carlo_reduction(seed=11, quantile_k=n)
    sequential = run_stream(
        _source(comparator, n), prototype.fresh(), chunk_rows=512,
        workers=1, kernel_tier="fused",
    )
    parallel = run_stream(
        _source(comparator, n), prototype.fresh(), chunk_rows=512,
        workers=2, kernel_tier="fused",
    )
    s_m, s_n, s_w, s_s = _summary_state(sequential)
    p_m, p_n, p_w, p_s = _summary_state(parallel)
    assert s_m == p_m
    assert (s_n, s_w) == (p_n, p_w)
    np.testing.assert_array_equal(s_s, p_s)


def test_env_override_reaches_streaming(monkeypatch, comparator):
    n = 512
    prototype = monte_carlo_reduction(seed=3, quantile_k=n)
    explicit = run_stream(
        _source(comparator, n), prototype.fresh(), chunk_rows=128,
        workers=1, kernel_tier="numpy",
    )
    monkeypatch.setenv(KERNEL_TIER_ENV, "numpy")
    via_env = run_stream(
        _source(comparator, n), prototype.fresh(), chunk_rows=128,
        workers=1,
    )
    # Both runs served the chain, so they are bit-identical.
    e_m, e_n, e_w, e_s = _summary_state(explicit)
    v_m, v_n, v_w, v_s = _summary_state(via_env)
    assert e_m == v_m
    assert (e_n, e_w) == (v_n, v_w)
    np.testing.assert_array_equal(e_s, v_s)


# ----------------------------------------------------------------------
# Steady-state allocation
# ----------------------------------------------------------------------


def test_steady_state_allocation_bounded(comparator):
    """After warmup the NumPy backend reuses its scratch: four more
    chunks may grow the traced heap by small-object noise only (views,
    numpy scalars) — no array-sized allocations."""
    rows = 4096
    source = _source(comparator, 8 * rows)
    chunks = [
        source.chunk(i * rows, (i + 1) * rows) for i in range(8)
    ]  # pre-materialised so sampling allocations stay out of the trace
    kern = FusedKernel()
    for params, batch in chunks[:2]:
        kern.evaluate(params, batch)

    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    for params, batch in chunks[2:6]:
        kern.evaluate(params, batch)
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()

    grown = sum(
        s.size_diff
        for s in after.compare_to(before, "lineno")
        if s.size_diff > 0
    )
    # One chunk's worth of float64 rows is 32 KB *per column*; the
    # bound catches any per-chunk array allocation sneaking back in.
    assert grown < 64 * 1024, f"steady-state fused tier grew {grown} bytes"


# ----------------------------------------------------------------------
# FusedResult surface
# ----------------------------------------------------------------------


def test_fused_result_lazy_winners_and_slices(comparator):
    n = 64
    params, batch = _source(comparator, n).chunk(0, n)
    result = FusedKernel().evaluate(params, batch)
    winners = np.asarray(result.winners)
    mask = winners == "fpga"
    assert int(np.count_nonzero(mask)) == result.fpga_win_count
    assert set(np.unique(winners)) <= {"fpga", "asic"}
