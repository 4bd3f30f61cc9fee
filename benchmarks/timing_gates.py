"""Wall-clock gates on the engine and serving hot paths.

    PYTHONPATH=src python benchmarks/timing_gates.py

Times the workloads that ``test_bench_vector.py``, ``test_bench_engine.py``
and ``test_bench_serving.py`` check for correctness (imported from them,
so the timed and the checked runs cannot drift apart).  Each workload
runs :data:`REPEATS` times, interleaved with the others so a load spike
on a shared machine lands on every workload rather than one, and each
gate reports the median of its per-repeat statistic, the spread
(interquartile range over median) and its bound.  A median that misses
its bound fails; a spread above :data:`MAX_SPREAD` is *unresolved* and
also exits non-zero, because such a median cannot tell a pass from a
fail.  A ratio gate also prints its two arms (the per-run seconds on
each side) as ungated lines, so a moved ratio says which side moved.
``BENCH_QUICK=0`` runs the streamed workloads at full scale.

Root ``pytest`` never collects this file (no ``test_`` prefix), so
tier-1 passes or fails on behaviour alone.  ``scripts/check.sh`` runs
it; ``perfbench/`` records the end-to-end throughput and latency
trajectory.
"""

from __future__ import annotations

import contextlib
import gc
import operator
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import test_bench_engine as eng  # noqa: E402
import test_bench_serving as srv  # noqa: E402
import test_bench_vector as vec  # noqa: E402
from repro.analysis.montecarlo import monte_carlo, monte_carlo_batch  # noqa: E402
from repro.core.comparison import PlatformComparator  # noqa: E402
from repro.engine import EvaluationEngine  # noqa: E402
from repro.engine.serve.bench import latency_benchmark  # noqa: E402
from repro.engine.service import serving_benchmark  # noqa: E402
from repro.engine.vector import Checkpoint  # noqa: E402
from repro.experiments.ext_uncertainty import distributions as table1  # noqa: E402

#: Interleaved repeats per workload.
REPEATS = 5

#: Largest interquartile range over median a gate can be judged at.
MAX_SPREAD = 0.25

#: Runs averaged within one repeat for arms that take well under a
#: second: one such run varies by more than MAX_SPREAD on a shared
#: 2-core host (serving phases read 0.09-0.16 s back to back).
SHORT_RUNS = 5

#: The 1 -> 4 worker scaling gate needs the full-scale stream and the
#: cores (spawn start-up would dominate the quick workload).
SCALING = not vec.BENCH_QUICK and vec.STREAM_WORKERS >= 4

_OPS = {">=": operator.ge, "<=": operator.le, "<": operator.lt}


class Gate(NamedTuple):
    name: str
    op: str
    bound: float
    applies: bool = True


# One bound per statistic: the stricter of the former tier-1 assertion
# and the retired baseline trajectory's (0.75 x anchor for a speedup,
# 1.25 x anchor for a fault-free p99).  "x over y" is a time ratio.
GATES = (
    # 0.75 x the 237.2x anchor (tier-1 had >= 10x).
    Gate("heatmap vector speedup", ">=", 177.9),
    # 0.75 x the 2192.9x anchor (cold scalar over warm store).
    Gate("heatmap warm speedup", ">=", 1644.7),
    # Tier-1 bound (test_bench_vector.py).
    Gate("heatmap warm over cold vector", "<=", 2.0),
    # 0.75 x the 855.7x anchor (tier-1 had >= 50x).
    Gate("mc-10k vector speedup", ">=", 641.8),
    # Tier-1 bound (test_bench_vector.py).
    Gate("mc-1M seconds", "<=", 30.0),
    # Tier-1 bound (test_bench_vector.py): 60 s quick, 900 s full scale.
    Gate("stream seconds", "<=", 60.0 if vec.BENCH_QUICK else 900.0),
    # Tier-1 bound (test_bench_vector.py).
    Gate("stream 1->4 worker scaling", ">=", 2.0, applies=SCALING),
    # Tier-1 bound (test_bench_vector.py): checkpoint overhead <= 5%.
    Gate("checkpointed over fault-free", "<=", 1.05),
    # 0.75 x the 6.01x anchor (tier-1 had >= 4x).
    Gate("fused speedup", ">=", 4.51),
    # 0.75 x the 5.82x anchor (tier-1 had >= 4x).
    Gate("concurrent speedup", ">=", 4.37),
    # Tier-1 bound (test_bench_serving.py).
    Gate("adaptive over eager", "<=", 1.5),
    # Tier-1 bound (test_bench_serving.py).
    Gate("warm serialized over cold serialized", "<=", 1.5),
    # 1.25 x the 14.597 ms anchor.
    Gate("8-client fault-free p99 ms", "<=", 18.25),
    # 1.25 x the 109.982 ms anchor.
    Gate("64-client fault-free p99 ms", "<=", 137.5),
    # Tier-1 bound (test_bench_engine.py): warm < cold / 2.
    Gate("engine warm over scalar cold", "<", 0.5),
)


#: Ungated arms printed under a ratio gate: gate -> arm statistics.
ARMS = {
    "checkpointed over fault-free": (
        "fault-free stream s", "checkpointed stream s"),
    "fused speedup": ("chain stream s", "fused stream s"),
}


def timed(fn, *args, **kwargs) -> float:
    gc.collect()  # garbage left by an earlier workload is not this one's cost
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def phase_sums(runs):
    """Elapsed seconds per phase, summed over serving-benchmark reports."""
    return {name: sum(run["phases"][name]["elapsed_s"] for run in runs)
            for name in runs[0]["phases"]}


def heatmap(stack, comparator, tmp):
    vec.grid(comparator, EvaluationEngine())  # warm-up: one-time dispatch

    def repeat(_):
        scalar_s = timed(vec.grid, comparator,
                         EvaluationEngine(cache_size=16384, vectorize=False),
                         batch=False)
        cold_s = warm_s = 0.0
        for _ in range(SHORT_RUNS):
            engine = EvaluationEngine(cache_size=16384)
            cold_s += timed(vec.grid, comparator, engine) / SHORT_RUNS
            warm_s += timed(vec.grid, comparator, engine) / SHORT_RUNS
        return {
            "heatmap vector speedup": scalar_s / cold_s,
            "heatmap warm speedup": scalar_s / warm_s,
            "heatmap warm over cold vector": warm_s / cold_s,
        }
    return repeat


def monte_carlo_runs(stack, comparator, tmp):
    dists = vec.use_intensity_dists()
    monte_carlo_batch(comparator, vec.BASELINE, dists, n_samples=32,
                      seed=2024, engine=EvaluationEngine())  # warm-up

    def repeat(_):
        scalar_s = timed(monte_carlo, comparator, vec.BASELINE, dists,
                         n_samples=vec.N_MC_DRAWS, seed=2024,
                         engine=EvaluationEngine(cache_size=0, vectorize=False))
        vector_s = sum(
            timed(monte_carlo_batch, comparator, vec.BASELINE, dists,
                  n_samples=vec.N_MC_DRAWS, seed=2024,
                  engine=EvaluationEngine())
            for _ in range(SHORT_RUNS)
        ) / SHORT_RUNS
        mc_1m_s = timed(monte_carlo_batch, comparator, vec.BASELINE, table1(),
                        n_samples=vec.N_MC_1M_DRAWS, seed=2024,
                        engine=EvaluationEngine())
        return {"mc-10k vector speedup": scalar_s / vector_s,
                "mc-1M seconds": mc_1m_s}
    return repeat


def streaming(stack, comparator, tmp):
    runs = SHORT_RUNS if vec.BENCH_QUICK else 1

    def repeat(_):
        stream_s = 0.0
        for _ in range(runs):
            # A fresh engine per run: the budget covers pool start-up.
            with EvaluationEngine(cache_size=0) as engine:
                stream_s += timed(vec.stream, comparator, engine,
                                  vec.N_MC_STREAM_DRAWS,
                                  workers=vec.STREAM_WORKERS) / runs
        stats = {"stream seconds": stream_s}
        if SCALING:
            with EvaluationEngine(cache_size=0) as engine:
                stats["stream 1->4 worker scaling"] = timed(
                    vec.stream, comparator, engine, vec.N_MC_STREAM_DRAWS
                ) / stream_s
        return stats
    return repeat


def checkpointing(stack, comparator, tmp):
    engine = stack.enter_context(
        EvaluationEngine(cache_size=0, kernel_tier="numpy"))
    vec.stream(comparator, engine, vec.N_CKPT_DRAWS)  # warm-up

    def repeat(index):
        plain_s = timed(vec.stream, comparator, engine, vec.N_CKPT_DRAWS)
        ckpt_s = timed(vec.stream, comparator, engine, vec.N_CKPT_DRAWS,
                       checkpoint=Checkpoint(tmp / f"gate-{index}.ckpt"))
        return {"checkpointed over fault-free": ckpt_s / plain_s,
                "fault-free stream s": plain_s,
                "checkpointed stream s": ckpt_s}
    return repeat


def fused(stack, comparator, tmp):
    chain = stack.enter_context(
        EvaluationEngine(cache_size=0, kernel_tier="numpy"))
    fused_engine = stack.enter_context(
        EvaluationEngine(cache_size=0, kernel_tier="fused"))
    for engine in (chain, fused_engine):
        vec.stream(comparator, engine, vec.N_FUSED_DRAWS)  # warm-up

    def repeat(_):
        chain_s = fused_s = 0.0
        for _ in range(SHORT_RUNS):
            chain_s += timed(vec.stream, comparator, chain, vec.N_FUSED_DRAWS)
            fused_s += timed(vec.stream, comparator, fused_engine,
                             vec.N_FUSED_DRAWS)
        return {"fused speedup": chain_s / fused_s,
                "chain stream s": chain_s / SHORT_RUNS,
                "fused stream s": fused_s / SHORT_RUNS}
    return repeat


def serving(stack, comparator, tmp):
    def repeat(_):
        big = phase_sums([
            serving_benchmark(clients=srv.CLIENTS,
                              requests_per_client=srv.REQUESTS_PER_CLIENT,
                              cells_per_request=srv.CELLS_PER_REQUEST)
            for _ in range(SHORT_RUNS)
        ])
        small = phase_sums([
            serving_benchmark(clients=2, requests_per_client=8,
                              cells_per_request=50)
            for _ in range(SHORT_RUNS)
        ])
        return {
            "concurrent speedup": big["warm_serialized_1_windowed"]
            / big[f"warm_concurrent_{srv.CLIENTS}"],
            "adaptive over eager": big["warm_serialized_1"]
            / big["warm_serialized_1_eager"],
            "warm serialized over cold serialized":
                small["warm_serialized_1"] / small["cold_serialized_1"],
        }
    return repeat


def latency(stack, comparator, tmp):
    def repeat(_):
        phases = latency_benchmark()["phases"]
        return {
            f"{n}-client fault-free p99 ms":
                phases[f"clients_{n}"]["fault_free"]["p99_ms"]
            for n in (8, 64)
        }
    return repeat


def engine_cache(stack, comparator, tmp):
    def repeat(_):
        cold_s = timed(eng.dense_heatmap, comparator,
                       EvaluationEngine(cache_size=0, vectorize=False))
        engine = EvaluationEngine(cache_size=8192)
        eng.dense_heatmap(comparator, engine)  # populate
        warm_s = sum(timed(eng.dense_heatmap, comparator, engine)
                     for _ in range(SHORT_RUNS)) / SHORT_RUNS
        return {"engine warm over scalar cold": warm_s / cold_s}
    return repeat


def median_spread(values) -> tuple[float, float]:
    """The median and the interquartile range over the median."""
    q25, median, q75 = np.percentile(values, (25, 50, 75))
    return median, (q75 - q25) / median


WORKLOADS = (heatmap, monte_carlo_runs, streaming, checkpointing, fused,
             serving, latency, engine_cache)


def main() -> int:
    started = time.perf_counter()
    samples: dict[str, list[float]] = {
        name: [] for gate in GATES
        for name in (gate.name, *ARMS.get(gate.name, ()))
    }
    comparator = PlatformComparator.for_domain("dnn")
    with contextlib.ExitStack() as stack:
        tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        repeats = [setup(stack, comparator, tmp) for setup in WORKLOADS]
        for index in range(REPEATS):
            for repeat in repeats:
                for name, value in repeat(index).items():
                    samples[name].append(value)

    scale = "quick" if vec.BENCH_QUICK else "full"
    print(f"timing gates: {REPEATS} interleaved repeats, {scale} scale")
    print(f"{'gate':<38} {'median':>10} {'IQR/med':>8} {'bound':>12}  verdict")
    bad = 0
    for gate in GATES:
        values = samples[gate.name]
        bound = f"{gate.op} {gate.bound:g}"
        if not gate.applies:
            print(f"{gate.name:<38} {'-':>10} {'-':>8} {bound:>12}  skipped "
                  f"(needs BENCH_QUICK=0 and >= 4 cores)")
            continue
        median, spread = median_spread(values)
        if spread > MAX_SPREAD:
            verdict = "UNRESOLVED"
        elif _OPS[gate.op](median, gate.bound):
            verdict = "ok"
        else:
            verdict = "FAIL"
        bad += verdict != "ok"
        print(f"{gate.name:<38} {median:>10.4g} {spread:>8.3f} {bound:>12}  "
              f"{verdict}")
        if verdict != "ok":
            print("    samples: " + ", ".join(f"{v:.4g}" for v in values))
        for arm in ARMS.get(gate.name, ()):
            median, spread = median_spread(samples[arm])
            print(f"  {arm:<36} {median:>10.4g} {spread:>8.3f} {'-':>12}  "
                  f"ungated")
    print(f"timing gates: {bad} failed or unresolved "
          f"({time.perf_counter() - started:.0f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
