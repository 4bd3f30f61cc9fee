"""Fused kernel tier: selection, fallback, parity, allocation.

The contract under test (see ``repro/engine/vector/fused.py``): the
fused tier serves values within ``rtol <= 1e-12`` of the kernel chain
with bit-identical winners, is invariant to chunk size and worker
count, degrades silently when Numba is absent, allocates nothing
array-sized per chunk after warmup, and — in the opt-in float32 mode —
keeps summaries within ``rtol <= 1e-5`` while win counts stay exact.
"""

from __future__ import annotations

import builtins
import importlib
import sys
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
    assert resolve_kernel_tier(None) in ("numba", "numpy-fused")
    assert resolve_kernel_tier("numpy") == "chain"

    monkeypatch.setenv(KERNEL_TIER_ENV, "numpy")
    assert resolve_kernel_tier(None) == "chain"
    # An explicit request wins over the environment.
    assert resolve_kernel_tier("fused") != "chain"

    monkeypatch.setenv(KERNEL_TIER_ENV, "fused")
    assert resolve_kernel_tier(None) != "chain"


def test_resolve_tier_rejects_unknown(monkeypatch):
    with pytest.raises(ParameterError, match="kernel tier"):
        resolve_kernel_tier("bogus")
    monkeypatch.setenv(KERNEL_TIER_ENV, "bogus")
    with pytest.raises(ParameterError, match="kernel tier"):
        resolve_kernel_tier(None)


def test_tier_labels(monkeypatch):
    monkeypatch.delenv(KERNEL_TIER_ENV, raising=False)
    assert kernel_tier_label("numpy") == "numpy-chain"
    assert kernel_tier_label("fused").startswith("fused-")
    assert kernel_tier_label(None) in ("fused-numba", "fused-numpy")


def test_make_kernel_chain_is_none(monkeypatch):
    monkeypatch.delenv(KERNEL_TIER_ENV, raising=False)
    assert make_kernel("numpy") is None
    kern = make_kernel("fused")
    assert isinstance(kern, FusedKernel)
    assert kern.name in ("fused-numba", "fused-numpy")


def test_kernel_rejects_bad_backend_and_dtype():
    with pytest.raises(ParameterError, match="backend"):
        FusedKernel(backend="cuda")
    with pytest.raises(ParameterError, match="dtype"):
        FusedKernel(dtype=np.int32)


def test_engine_validates_tier_eagerly(monkeypatch):
    monkeypatch.delenv(KERNEL_TIER_ENV, raising=False)
    with pytest.raises(ParameterError, match="kernel tier"):
        EvaluationEngine(kernel_tier="bogus")
    with EvaluationEngine(kernel_tier="fused") as engine:
        assert engine.kernel_tier_name.startswith("fused-")
    # kernel_tier_name resolves live, so the env override shows up.
    monkeypatch.setenv(KERNEL_TIER_ENV, "numpy")
    with EvaluationEngine() as engine:
        assert engine.kernel_tier_name == "numpy-chain"


# ----------------------------------------------------------------------
# Missing Numba: the silent no-op contract, via import blocking
# ----------------------------------------------------------------------


def test_missing_numba_degrades_silently(comparator):
    real_import = builtins.__import__

    def blocked(name, *args, **kwargs):
        if name.split(".")[0] == "numba":
            raise ImportError("numba blocked for test")
        return real_import(name, *args, **kwargs)

    saved_numba = sys.modules.pop("numba", None)
    builtins.__import__ = blocked
    try:
        mod = importlib.reload(fused_mod)
        assert mod.NUMBA_AVAILABLE is False
        # Every fused spelling silently lands on the NumPy backend.
        assert mod.resolve_kernel_tier("numba") == "numpy-fused"
        assert mod.resolve_kernel_tier("fused") == "numpy-fused"
        kern = mod.FusedKernel(backend="numba")
        assert kern.backend == "numpy-fused"
        assert kern.name == "fused-numpy"
        # ... and still serves correct answers.
        params, batch = _source(comparator, 256).chunk(0, 256)
        result = kern.evaluate(params, batch)
        chain = VectorizedEvaluator(kernel_tier="numpy").evaluate_param_batch(
            params, batch
        )
        np.testing.assert_allclose(
            result.ratios, chain.ratios, rtol=RTOL, atol=0.0
        )
    finally:
        builtins.__import__ = real_import
        if saved_numba is not None:
            sys.modules["numba"] = saved_numba
        importlib.reload(fused_mod)


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
    fpga = np.array([1.0, 0.0, 0.0, 5.0, 2.0, -1.0])
    asic = np.array([2.0, 0.0, 3.0, 0.0, 2.0, 4.0])
    pool = ScratchPool()
    np.testing.assert_array_equal(
        fused_mod.fused_ratio_kernel(fpga, asic, pool=pool),
        ratio_kernel(fpga, asic),
    )
    mask = fused_mod.fused_winner_kernel(fpga, asic, pool=pool)
    np.testing.assert_array_equal(
        np.asarray(mask, dtype=bool), winner_kernel(fpga, asic) == "fpga"
    )


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
# float32 summary mode
# ----------------------------------------------------------------------


def test_float32_mode_bounds_and_exact_winners(comparator):
    n = 8192
    params, batch = _source(comparator, n).chunk(0, n)
    f64 = FusedKernel().evaluate(params, batch)
    f32 = FusedKernel(dtype=np.float32).evaluate(params, batch)
    assert f32.ratios.dtype == np.float32
    np.testing.assert_allclose(
        np.asarray(f32.ratios, dtype=np.float64), f64.ratios,
        rtol=1e-5, atol=0.0,
    )
    # Lifecycle totals and the winner verdicts stay float64-exact.
    np.testing.assert_array_equal(f32.fpga_totals, f64.fpga_totals)
    np.testing.assert_array_equal(f32.asic_totals, f64.asic_totals)
    assert f32.fpga_win_count == f64.fpga_win_count
    np.testing.assert_array_equal(
        np.asarray(f32.winners), np.asarray(f64.winners)
    )


def test_float32_streaming_summaries_within_contract(comparator):
    n = 4096
    prototype = monte_carlo_reduction(seed=5, quantile_k=n)
    f64 = run_stream(
        _source(comparator, n), prototype.fresh(), chunk_rows=512,
        workers=1, kernel_tier="fused", kernel_dtype=np.float64,
    )
    f32 = run_stream(
        _source(comparator, n), prototype.fresh(), chunk_rows=512,
        workers=1, kernel_tier="fused", kernel_dtype=np.float32,
    )
    m64, n64, w64, s64 = _summary_state(f64)
    m32, n32, w32, s32 = _summary_state(f32)
    assert (n64, w64) == (n32, w32)  # win counts exact
    for key in m64:
        np.testing.assert_allclose(m32[key], m64[key], rtol=1e-5, atol=1e-12)
    np.testing.assert_allclose(s32, s64, rtol=1e-5, atol=0.0)


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
