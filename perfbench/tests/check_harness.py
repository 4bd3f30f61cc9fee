"""Tests for the benchmark harness (not part of the repo's tier-1 suite).

Run from the repo root with ``python3 -m pytest perfbench/tests``; the
``pytest.ini`` beside ``perfbench`` names these ``check_*.py`` files, so
a plain ``pytest`` at the root never collects them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from repro import EvaluationEngine, PlatformComparator, Scenario
from repro.analysis.heatmap import pairwise_heatmap_batch
from repro.analysis.montecarlo import monte_carlo_stream
from repro.engine.serve import ServeResult
from repro.experiments import ext_uncertainty

from harness import checks
from harness.common import END_TO_END, OUT, PER_LAYER, ROOT, WORKLOADS
from harness.trace import Tracer, self_times, unattributed_share

# -- the metric vocabulary ----------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["perfbench"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- smoke runs ---------------------------------------------------------


def _checkout_files() -> set[str]:
    """Every file outside the run's output, caches and git metadata."""
    skip = {".git", ".perfbench", "__pycache__", ".pytest_cache",
            ".hypothesis"}
    found = set()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in skip]
        found.update(os.path.join(dirpath, f) for f in filenames)
    return found


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    before = _checkout_files()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    names = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert _checkout_files() == before
    record = json.loads((OUT / f"{workload}-trace{trace}.json").read_text())
    assert record["seed"] == 5 and record["machine"]["nproc"] >= 1


def test_run_without_program_sources_fails():
    """Only the benchmark's own files: no result, non-zero exit."""
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mc_stream",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- output checks reject perturbed outputs ----------------------------


@pytest.fixture(scope="module")
def studies():
    comparator = PlatformComparator.for_domain("dnn")
    kwargs = dict(n_samples=20_000, seed=3, workers=1)
    args = (comparator, ext_uncertainty.BASELINE,
            ext_uncertainty.distributions())
    fused = monte_carlo_stream(*args, engine=EvaluationEngine(), **kwargs)
    chain = monte_carlo_stream(
        *args, engine=EvaluationEngine(kernel_tier="numpy"), **kwargs)
    return fused, chain


def test_study_check_accepts_chain_tier(studies):
    fused, chain = studies
    assert checks.study_close(fused, chain) == []
    assert checks.study_identical(fused, fused) == []


def test_study_checks_reject_perturbed_ratio_or_wins(studies):
    fused, chain = studies
    nudged = dataclasses.replace(fused, ratio_mean=fused.ratio_mean * (1 + 1e-9))
    assert checks.study_close(nudged, chain)
    one_ulp = dataclasses.replace(
        fused, ratio_mean=float(np.nextafter(fused.ratio_mean, np.inf)))
    assert checks.study_identical(one_ulp, fused)
    extra_win = dataclasses.replace(fused, fpga_wins=fused.fpga_wins + 1)
    assert checks.study_close(extra_win, chain)
    assert checks.study_identical(extra_win, fused)


def test_panel_check_rejects_one_ulp():
    comparator = PlatformComparator.for_domain("dnn")
    base = Scenario(num_apps=5, app_lifetime_years=2.0, volume=1_000_000)
    args = (comparator, base, "num_apps", np.arange(1, 11), "lifetime",
            np.linspace(0.5, 3.0, 10))
    warm = EvaluationEngine(cache_size=4096)
    pairwise_heatmap_batch(*args, engine=warm)
    cached = pairwise_heatmap_batch(*args, engine=warm)
    fresh = pairwise_heatmap_batch(*args, engine=EvaluationEngine(cache_size=0))
    assert checks.panel_identical(cached, fresh) == []
    ratios = cached.ratios.copy()
    ratios[3, 4] = np.nextafter(ratios[3, 4], np.inf)
    assert checks.panel_identical(
        dataclasses.replace(cached, ratios=ratios), fresh)


def test_reply_check_rejects_flipped_winner_or_ratio():
    from repro.engine.vector.columns import ScenarioBatch

    batch = ScenarioBatch.from_arrays(num_apps=np.arange(1, 9), lifetime=2.0,
                                      volume=1_000_000)
    ref = EvaluationEngine(cache_size=0).evaluate_batch(
        PlatformComparator.for_domain("dnn"), batch)
    columns = (ref.ratios, ref.winners, ref.fpga_totals, ref.asic_totals)
    reply = ServeResult(*(c.copy() for c in columns))
    assert checks.reply_identical(reply, columns) == []
    winners = reply.winners.copy()
    winners[2] = "asic" if winners[2] == "fpga" else "fpga"
    assert checks.reply_identical(
        dataclasses.replace(reply, winners=winners), columns)
    ratios = reply.ratios.copy()
    ratios[0] = np.nextafter(ratios[0], 0.0)
    assert checks.reply_identical(
        dataclasses.replace(reply, ratios=ratios), columns)


# -- tracing ------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        ["api.op", 0.0, 10.0, -1, {}],
        ["layer.a", 1.0, 4.0, 0, {}],
        ["layer.b", 3.0, 6.0, 0, {}],  # overlaps a: union counts once
        ["layer.c", 4.5, 5.0, 2, {}],
    ]
    assert self_times(spans) == pytest.approx([5.0, 3.0, 2.5, 0.5])
    assert unattributed_share(spans, 10.0) == pytest.approx(0.4)


def test_tracer_wraps_and_restores():
    class Owner:
        def work(self, n):
            return n * 2

    tracer = Tracer()
    original = Owner.work
    tracer.wrap(Owner, "work", "owner.work",
                attrs=lambda args, kwargs, result: {"rows": result})
    with tracer.span("api.call"):
        assert Owner().work(4) == 8
    tracer.unwrap_all()
    assert Owner.work is original
    (outer, inner) = tracer.spans
    assert inner[0] == "owner.work" and inner[3] == 0
    assert inner[4] == {"rows": 8}
