"""The in-process batch workloads: ``mc_stream``, ``mc_durable``, ``grid_churn``.

Each workload object builds its inputs from the run seed, runs one
operation (a streamed study, a heatmap panel) per :meth:`op` call
through the public analysis API, keeps what its output check needs,
and checks it after the timed phase.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
from repro import EvaluationEngine, PlatformComparator, Scenario
from repro.analysis.heatmap import pairwise_heatmap_batch
from repro.analysis.montecarlo import monte_carlo_stream
from repro.engine import DEFAULT_STREAM_CHUNK_ROWS
from repro.experiments import ext_uncertainty

from harness import checks, layers, setup_probe
from harness.calibrate import Calibration
from harness.common import (
    OUT, SETUP_SAMPLES, digest, median, percentile, tail_ms, tree_peak_rss_mb,
)
from harness.trace import Tracer

#: Draws per streamed Monte-Carlo study.
DRAWS_PER_STUDY = 1_000_000
#: Rows per durable checkpoint unit in ``mc_durable`` (one chunk).
CHECKPOINT_EVERY_ROWS = 131_072
#: Heatmap panel shape (``num_apps`` x ``lifetime``) and its slide.
PANEL_APPS = 100
PANEL_LIFETIMES = 100
PANEL_SLIDE = 50
#: Lifetime grid spacing in years; every slide reaches new cells.
LIFETIME_STEP_Y = 1e-5
#: Result-store capacity of the ``grid_churn`` engine.
STORE_CAPACITY = 65_536
#: Alternating untraced/traced blocks of a traced run.
TRACE_BLOCKS = 8


def derived_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the run seed and a path of indices."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


class MonteCarloStudies:
    """Back-to-back streamed studies over the Table 1 uncertainty knobs."""

    def __init__(self, seed: int, durable: bool) -> None:
        self.seed = seed
        self.durable = durable
        # Study 0 (the untimed first call), one seeded timed study and
        # the last timed study are checked.
        self.checked = {0, 1 + derived_seed(seed, 1) % 32}
        self.kept: dict[int, object] = {}
        self.last: "tuple[int, object] | None" = None
        self.engine = None
        self.tmp = None

    def constants(self) -> dict:
        return {
            "draws_per_study": DRAWS_PER_STUDY,
            "chunk_rows": DEFAULT_STREAM_CHUNK_ROWS,
            "workers": 1,
            "checkpoint_every_rows": (
                CHECKPOINT_EVERY_ROWS if self.durable else None
            ),
            "checked_studies": sorted(self.checked) + ["last"],
        }

    def prepare(self) -> None:
        self.comparator = PlatformComparator.for_domain("dnn")
        self.scenario = ext_uncertainty.BASELINE
        self.distributions = ext_uncertainty.distributions()
        self.engine = EvaluationEngine()
        if self.durable:
            OUT.mkdir(parents=True, exist_ok=True)
            self.tmp = Path(tempfile.mkdtemp(prefix="ckpt-", dir=OUT))

    def study(self, index: int, engine=None, durable: "bool | None" = None):
        durable = self.durable if durable is None else durable
        seed = derived_seed(self.seed, 0, index)
        extra = {}
        if durable:
            path = self.tmp / f"study-{index}.ckpt"
            extra = {"checkpoint": path,
                     "checkpoint_every": CHECKPOINT_EVERY_ROWS}
        try:
            return monte_carlo_stream(
                self.comparator, self.scenario, self.distributions,
                n_samples=DRAWS_PER_STUDY, seed=seed,
                engine=self.engine if engine is None else engine, workers=1, **extra,
            )
        finally:
            if durable:
                # A leftover file would make the next run resume.
                path.unlink(missing_ok=True)

    def op(self, index: int) -> int:
        result = self.study(index)
        if index in self.checked:
            self.kept[index] = result
        self.last = (index, result)
        return DRAWS_PER_STUDY

    def first_digest(self) -> str:
        result = self.kept[0]
        return digest(
            np.array([result.n_samples, result.n_finite, result.fpga_wins]),
            np.array([result.ratio_mean, result.ratio_var,
                      result.ratio_min, result.ratio_max]),
            result.quantile_sample,
        )

    def check(self) -> tuple[int, list[str]]:
        """``(studies checked, problems)``.

        ``mc_stream`` is held to the NumPy chain tier within the parity
        tolerance; ``mc_durable`` to the same study run without a
        checkpoint, bit for bit.
        """
        kept = dict(self.kept)
        kept[self.last[0]] = self.last[1]
        chain = None if self.durable else EvaluationEngine(kernel_tier="numpy")
        problems = []
        for index, result in sorted(kept.items()):
            if self.durable:
                found = checks.study_identical(
                    result, self.study(index, durable=False))
            else:
                found = checks.study_close(result, self.study(index, chain))
            problems += [f"study {index}: {p}" for p in found]
        return len(kept), problems

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
        if self.engine is not None:
            self.engine.close()


class GridChurn:
    """Sliding 100x100 heatmap panels on one store-backed engine."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(derived_seed(seed, 2))
        self.apps = int(rng.integers(1, 11)) + np.arange(PANEL_APPS)
        self.lifetime0 = float(rng.uniform(0.5, 1.5))
        self.checked = {0, 1, 2 + derived_seed(seed, 1) % 64}
        self.kept: dict[int, object] = {}
        self.last = None
        self.engine = None

    def constants(self) -> dict:
        return {
            "panel_shape": [PANEL_APPS, PANEL_LIFETIMES],
            "panel_axes": ["num_apps", "lifetime"],
            "panel_slide": PANEL_SLIDE,
            "lifetime_step_y": LIFETIME_STEP_Y,
            "store_capacity": STORE_CAPACITY,
            "checked_panels": sorted(self.checked) + ["last"],
        }

    def prepare(self) -> None:
        self.comparator = PlatformComparator.for_domain("dnn")
        self.base = Scenario(num_apps=5, app_lifetime_years=2.0,
                             volume=1_000_000)
        self.engine = EvaluationEngine(cache_size=STORE_CAPACITY)

    def panel(self, index: int, engine=None):
        steps = index * PANEL_SLIDE + np.arange(PANEL_LIFETIMES)
        return pairwise_heatmap_batch(
            self.comparator, self.base, "num_apps", self.apps,
            "lifetime", self.lifetime0 + steps * LIFETIME_STEP_Y,
            engine=self.engine if engine is None else engine,
        )

    def op(self, index: int) -> int:
        result = self.panel(index)
        if index in self.checked:
            self.kept[index] = result
        self.last = (index, result)
        return PANEL_APPS * PANEL_LIFETIMES

    def first_digest(self) -> str:
        return digest(self.kept[0].ratios)

    def check(self) -> tuple[int, list[str]]:
        """Panels against a ``cache_size=0`` engine, bit for bit."""
        kept = dict(self.kept)
        kept[self.last[0]] = self.last[1]
        reference = EvaluationEngine(cache_size=0)
        problems = []
        for index, result in sorted(kept.items()):
            found = checks.panel_identical(
                result, self.panel(index, reference))
            problems += [f"panel {index}: {p}" for p in found]
        return len(kept), problems

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()


def make(name: str, seed: int):
    if name == "grid_churn":
        return GridChurn(seed)
    return MonteCarloStudies(seed, durable=name == "mc_durable")


def probe(name: str, seed: int) -> dict:
    """Set-up probe body: construct, then the first (checked) result."""
    workload = make(name, seed)
    try:
        workload.prepare()
        constructed = time.monotonic()
        workload.op(0)
        first = time.monotonic()
        return {"constructed": constructed, "spawned": constructed,
                "first": first, "digest": workload.first_digest()}
    finally:
        workload.close()


def _timed(workload, index: int, seconds: float, tracer=None, name="",
           calibration=None):
    """Operations back to back for ``seconds``: ``(next, rows, s, lat)``.

    ``calibration`` is sampled about every half second between
    operations; its time is left out of the elapsed time.
    """
    latencies = []
    rows = 0
    start = time.perf_counter()
    paused = 0.0
    last_sample = start
    while True:
        begin = time.perf_counter()
        if tracer is None:
            rows += workload.op(index)
        else:
            with tracer.span("api." + name):
                rows += workload.op(index)
        end = time.perf_counter()
        latencies.append(end - begin)
        index += 1
        if calibration is not None and end - last_sample >= 0.5:
            calibration.sample()
            last_sample = time.perf_counter()
            paused += last_sample - end
        elapsed = time.perf_counter() - start - paused
        if elapsed >= seconds:
            return index, rows, elapsed, latencies


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of a batch workload; see ``perfbench/README.md``."""
    workload = make(name, seed)
    calibration = Calibration()
    setups = setup_probe.measure(name, seed, SETUP_SAMPLES, calibration)
    try:
        workload.prepare()
        workload.op(0)
        reference = workload.first_digest()
        info = {"constants": workload.constants()}
        if trace:
            metrics, attempted, info["samples"] = _traced(
                workload, name, seconds)
            metrics.update(setup_probe.phase_medians(setups))
        else:
            index, rows, elapsed, latencies = _timed(
                workload, 1, seconds, calibration=calibration)
            calibration.sample(5)
            raw = {
                "rows_per_s": rows / elapsed,
                "p50_ms": median(latencies) * 1e3,
                "p75_ms": percentile(latencies, 75) * 1e3,
                "setup_s": median([s["total_s"] for s in setups]),
                "peak_rss_mb": tree_peak_rss_mb(),
            }
            metrics = calibration.at_nominal_speed(raw)
            info["raw_metrics"] = raw
            info["calibration"] = calibration.summary()
            attempted = index - 1
            info["samples"] = {"operations": attempted, "rows": rows,
                               "elapsed_s": elapsed, "setups": len(setups)}
            info["latency_ms"] = tail_ms(latencies)
        checked, problems = workload.check()
    finally:
        workload.close()
    info["checked_operations"] = checked
    info["problems"] = problems + [
        f"set-up probe {i}: first result differs"
        for i, s in enumerate(setups) if s["digest"] != reference
    ]
    return {
        "metrics": metrics,
        "attempted": attempted + len(setups),
        "failed": len(info["problems"]),
        "info": info,
    }


def _traced(workload, name: str, seconds: float):
    """Alternate untraced and traced blocks; per-layer metrics.

    Alternating keeps the host's slow phases from landing on one side
    of the tracing-overhead comparison.
    """
    tracer = Tracer()
    index, rows, elapsed = 1, [0, 0], [0.0, 0.0]
    engine = workload.engine
    before = (engine.cache_stats, engine.rows_computed)
    for block in range(TRACE_BLOCKS):
        traced = block % 2
        if traced:
            tracer.install(layers.ENGINE_LAYERS)
        try:
            index, n, s, _ = _timed(workload, index, seconds / TRACE_BLOCKS,
                                    tracer if traced else None, name)
        finally:
            tracer.unwrap_all()
        rows[traced] += n
        elapsed[traced] += s
    metrics = layers.zero_metrics()
    metrics.update(layers.engine_metrics(tracer.spans, elapsed[1]))
    if name == "grid_churn":  # the studies bypass the store
        metrics.update(layers.store_metrics(
            before[0], engine.cache_stats, before[1], engine.rows_computed,
            rows[0] + rows[1]))
    untraced_rate = rows[0] / elapsed[0]
    metrics["trace.overhead_frac"] = 1.0 - (rows[1] / elapsed[1]) / untraced_rate
    tracer.dump(OUT / f"trace-{name}.jsonl")
    samples = {"operations": index - 1, "rows_untraced": rows[0],
               "rows_traced": rows[1], "elapsed_untraced_s": elapsed[0],
               "elapsed_traced_s": elapsed[1], "spans": len(tracer.spans)}
    return metrics, index - 1, samples
