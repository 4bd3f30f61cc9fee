#!/usr/bin/env bash
# Local CI gate: static audit + tier-1 tests + engine/serving benchmarks.
#
# Usage: scripts/check.sh [--full-bench]
#   --full-bench  additionally run the engine benchmarks with timing
#                 statistics, at FULL gated scale (BENCH_QUICK=0): the
#                 streaming monte_carlo_100M workload runs its real
#                 100M draws plus the 1->4 worker scaling measurement
#                 (slower; default is one quick smoke iteration).
#
# The smoke run executes every engine bench once (--benchmark-disable)
# under BENCH_QUICK=1 (unless the caller pinned it), which scales the
# gated streaming workload ~100x down so this script stays under a
# minute on laptops.  Gates exercised either way: the warm-vs-cold
# speedup assertion, the vector-kernel >= 10x heatmap gate, the
# columnar Monte-Carlo >= 50x gate, the gated 1M-draw Monte-Carlo
# budget, the warm-store gate (warm_cache_s <= 2x cold_vector_s on the
# 10k-cell grid), and the streaming monte_carlo_100M workload's
# time + peak-RSS (< 2 GB process tree) budgets with
# streaming-vs-materialized summary parity — so a perf or memory
# regression in the hot evaluation path fails here before it ships.
# The serving bench drives the async micro-batching front-end (1 vs 8
# concurrent clients, cold vs persisted-warm store) and gates >= 4x
# aggregate throughput for coalesced concurrent clients over windowed
# serialized dispatch plus near-eager latency for the adaptive window.
# The durable-execution gates: the kill-and-resume chaos suite
# (SIGKILLed streaming Monte-Carlo resumed to bit-identical results)
# and the checkpoint_stream workload's <= 5% overhead budget over the
# fault-free stream.
# The fused kernel tier gates: the registry parity sweep runs twice —
# once on the default tier resolution (fused; Numba when importable,
# the buffer-reuse NumPy backend otherwise) and once pinned to the
# plain chain via REPRO_KERNEL=numpy, so both tiers hold the
# rtol<=1e-12 + bit-identical-winners contract with and without the
# compiled backend — and the mc_stream_fused workload must clear its
# >= 4x draws/s gate over the NumPy chain (min_fused_speedup_gate,
# re-checked as an absolute floor by bench_compare.py).
# Both benches emit JSON trajectories (benchmarks/BENCH_engine.json,
# benchmarks/BENCH_serving.json), which this script surfaces and then
# diffs against the committed anchors in benchmarks/baselines/ via
# scripts/bench_compare.py (a >25% regression in a speedup ratio
# fails; a >25% *increase* in a latency p99_ms fails, p50_ms warns;
# machine-relative *_per_s rates warn only; workloads that declare an
# RSS budget fail when they exceed it by >25%; re-anchor intentional
# perf changes with --update-baselines).

set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
# Quick gated workloads by default; see --full-bench below.
export BENCH_QUICK="${BENCH_QUICK:-1}"

echo "== static analysis + registry parity audit =="
# Lint always runs at full scope; the parity sweep's per-column draw
# count auto-scales with BENCH_QUICK (2 values quick, 4 full).  The
# JSON report lands next to the bench trajectories; bench_compare.py
# recognises its audit_version marker and skips it.
python -m repro.cli audit --json benchmarks/BENCH_audit.json

echo
echo "== registry parity sweep, chain tier (REPRO_KERNEL=numpy) =="
# The audit above swept the fused tier (the default REPRO_KERNEL
# resolution); this pass pins the always-available chain fallback so a
# missing/broken Numba can never hide a parity break in either tier.
REPRO_KERNEL=numpy python -m repro.cli audit --parity-only

echo
echo "== tier-1: unit + integration tests =="
python -m pytest tests -x -q \
    --ignore=tests/test_service.py --ignore=tests/test_store.py \
    --ignore=tests/test_serve_chaos.py --ignore=tests/test_checkpoint.py

echo
echo "== async serving + store test suite =="
python -m pytest tests/test_service.py tests/test_store.py -x -q

echo
echo "== serving chaos suite (quick fault-injection scale) =="
# Deterministic fault injection against the socket serving tier:
# worker kills, crash loops, truncated response frames, corrupted
# cache shards.  CHAOS_QUICK scales request counts down; the
# bit-identity and bounded-latency invariants asserted are identical.
CHAOS_QUICK=1 python -m pytest tests/test_serve_chaos.py -x -q

echo
echo "== durable-execution chaos suite (kill-and-resume, quick scale) =="
# Crash-resumable streaming: reducer state round-trips, atomic journal
# persistence, and a streaming Monte-Carlo SIGKILLed mid-run (real
# process, seeded kill schedule) resumed to bit-identical results.
# CHAOS_QUICK scales the SIGKILL study to 1M draws (4M at full scale).
CHAOS_QUICK=1 python -m pytest tests/test_checkpoint.py -x -q

echo
echo "== benchmark harness tests (perfbench) =="
# The repo benchmark's own harness tests (named check_*.py, so the
# tier-1 collection above never picks them up).
python -m pytest perfbench/tests -q

echo
echo "== engine benchmarks (smoke) =="
python -m pytest benchmarks/test_bench_engine.py benchmarks/test_bench_vector.py \
    -x -q --benchmark-disable

echo
echo "== serving benchmarks =="
python -m pytest benchmarks/test_bench_serving.py -x -q --benchmark-disable

echo
echo "== BENCH_engine.json =="
if [[ -f benchmarks/BENCH_engine.json ]]; then
    cat benchmarks/BENCH_engine.json
else
    echo "error: benchmarks/BENCH_engine.json was not emitted" >&2
    exit 1
fi

echo
echo "== BENCH_serving.json =="
if [[ -f benchmarks/BENCH_serving.json ]]; then
    cat benchmarks/BENCH_serving.json
else
    echo "error: benchmarks/BENCH_serving.json was not emitted" >&2
    exit 1
fi

echo
echo "== bench trajectory vs committed baselines =="
python scripts/bench_compare.py

if [[ "${1:-}" == "--full-bench" ]]; then
    echo
    echo "== engine benchmarks (full statistics, full gated scale) =="
    BENCH_QUICK=0 python -m pytest benchmarks/test_bench_engine.py \
        benchmarks/test_bench_vector.py \
        benchmarks/test_bench_serving.py -x -q
fi

echo
echo "check.sh: all gates passed"
