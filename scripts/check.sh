#!/usr/bin/env bash
# Local CI gate: static audit, the test suites, and the timing gates.
#
# Usage: scripts/check.sh [--full-bench]
#   --full-bench  run the benchmark tests and the timing gates at full
#                 scale (BENCH_QUICK=0): the streaming workload runs its
#                 real 100M draws, plus the 1->4 worker scaling gate on
#                 machines with >= 4 cores.
#
# Steps: the AST lint and the registry parity sweep (twice: default
# kernel tier, then pinned to the NumPy chain), the unit and
# integration tests, the serving and durable-execution chaos suites at
# quick scale, the perfbench harness tests, the benchmark tests
# (paper-figure shapes, parity, bounded memory), and
# benchmarks/timing_gates.py, which prints each wall-clock gate's
# median, spread and bound.  The script fails if any step changed the
# git working tree, and prints its own wall time.

set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
if [[ "${1:-}" == "--full-bench" ]]; then
    export BENCH_QUICK=0
else
    export BENCH_QUICK="${BENCH_QUICK:-1}"
fi

tree_before="$(git status --porcelain)"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"; echo "check.sh: wall time ${SECONDS}s"' EXIT

echo "== static analysis + registry parity audit =="
python -m repro.cli audit --parity-values 2 --json "$scratch/audit.json"

echo
echo "== registry parity sweep, chain tier (REPRO_KERNEL=numpy) =="
# The audit above swept the fused tier (the default REPRO_KERNEL
# resolution); this pass pins the always-available chain fallback so a
# missing/broken Numba can never hide a parity break in either tier.
REPRO_KERNEL=numpy python -m repro.cli audit --parity-only --parity-values 2

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
echo "== benchmark tests (BENCH_QUICK=$BENCH_QUICK) =="
python -m pytest benchmarks -x -q

echo
echo "== timing gates (BENCH_QUICK=$BENCH_QUICK) =="
python benchmarks/timing_gates.py

if [[ "$(git status --porcelain)" != "$tree_before" ]]; then
    echo "check.sh: the steps above changed the working tree:" >&2
    git status --porcelain >&2
    exit 1
fi

echo
echo "check.sh: all gates passed"
