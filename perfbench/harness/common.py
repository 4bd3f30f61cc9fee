"""Paths, metric vocabulary and small measurement helpers.

Everything here is shared by the workloads, the traced runs, the
fresh-process set-up probes and the harness tests.  The metric names
below are the benchmark's public vocabulary: ``BENCHMARK.json`` lists
exactly these, and the harness tests hold the two in step.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

import numpy as np

#: Root of the checkout the benchmark runs in (``perfbench/..``).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
#: The only place a benchmark run writes to (ignored by git).
OUT = ROOT / ".perfbench"

WORKLOADS = ("mc_stream", "mc_durable", "grid_churn", "serve_open")

#: End-to-end metrics: ``name -> unit``.  Every workload reports all of
#: them with ``--trace 0``.
END_TO_END = {
    "rows_per_s": "1/s",
    "p50_ms": "ms",
    "p75_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics: ``name -> unit``.  Every workload reports all of
#: them with ``--trace 1``; a layer a workload bypasses reads 0.
PER_LAYER = {
    "streaming.chunk.calls": "count",
    "streaming.chunk.self_s": "s",
    "streaming.chunk.share": "fraction",
    "evaluator.reduce_batch.self_s": "s",
    "evaluator.reduce_batch.share": "fraction",
    "evaluator.evaluate_batch.calls": "count",
    "evaluator.evaluate_batch.rows": "count",
    "evaluator.evaluate_batch.self_s": "s",
    "evaluator.evaluate_batch.share": "fraction",
    "reducers.moments.self_s": "s",
    "reducers.quantiles.self_s": "s",
    "reducers.wins.self_s": "s",
    "reducers.update.share": "fraction",
    "checkpoint.flush.calls": "count",
    "checkpoint.flush.self_s": "s",
    "checkpoint.flush.share": "fraction",
    "checkpoint.flush.bytes": "bytes",
    "atomicio.write.self_s": "s",
    "store.digest.self_s": "s",
    "store.get_batch.self_s": "s",
    "store.put_batch.self_s": "s",
    "store.hit_ratio": "fraction",
    "store.evictions": "count",
    "engine.rows_computed_ratio": "fraction",
    "heatmap.columns.self_s": "s",
    "protocol.encode_request.ms_p50": "ms",
    "protocol.decode_request.ms_p50": "ms",
    "protocol.encode_response.ms_p50": "ms",
    "protocol.decode_response.ms_p50": "ms",
    "supervisor.submit.ms_p50": "ms",
    "supervisor.submit.ms_p90": "ms",
    "worker.evaluate_job.ms_p50": "ms",
    "supervisor.ipc.ms_p50": "ms",
    "server.queue_wait.ms_p90": "ms",
    "server.shed": "count",
    "server.replays": "count",
    "client.retries": "count",
    "loadgen.late.ms_p50": "ms",
    "loadgen.late.ms_max": "ms",
    "setup.import_s": "s",
    "setup.construct_s": "s",
    "setup.spawn_s": "s",
    "setup.first_result_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_share": "fraction",
}

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5


def child_env() -> dict:
    """Environment for benchmark child interpreters.

    Children import ``repro`` from this checkout's ``src`` and the
    harness from ``perfbench``, never from anything installed.
    """
    env = dict(os.environ)
    paths = [str(SRC), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0 for an empty sample)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50)


def tail_ms(latencies_s) -> dict:
    """Unbounded tail figures for the run record (not gated metrics)."""
    return {
        "count": len(latencies_s),
        "p90": percentile(latencies_s, 90) * 1e3,
        "p99": percentile(latencies_s, 99) * 1e3,
        "max": float(np.max(latencies_s)) * 1e3 if len(latencies_s) else 0.0,
    }


def digest(*arrays) -> str:
    """Hex digest of the arrays' exact bytes (bit-identity check)."""
    h = hashlib.blake2b(digest_size=16)
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str(array.dtype).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def tree_peak_rss_mb(root: "int | None" = None) -> float:
    """Summed ``VmHWM`` (peak resident set) of a process tree, in MiB.

    The kernel keeps each process's high-water mark exactly, so this
    needs no polling thread and misses no spike.
    """
    from repro.engine.resources import process_tree_pids

    total_kb = 0
    for pid in process_tree_pids(root):
        try:
            with open(f"/proc/{pid}/status", "rb") as handle:
                for line in handle:
                    if line.startswith(b"VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except (OSError, IndexError, ValueError):
            continue
    return total_kb / 1024.0


def machine_shape() -> dict:
    """Hardware and toolchain facts that make a figure comparable."""
    from repro.engine import EvaluationEngine

    try:
        import numba  # noqa: F401

        numba_ok = True
    except ImportError:
        numba_ok = False
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": numba_ok,
        "kernel_tier": EvaluationEngine(cache_size=0).kernel_tier_name,
    }
