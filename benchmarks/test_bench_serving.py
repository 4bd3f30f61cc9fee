"""Bench: the serving front-ends under concurrent clients.

Drives :func:`repro.engine.service.serving_benchmark` — the same harness
behind ``greenfpga serve-bench`` — over one shared cell universe in
four phases (1 serialized vs 8 concurrent clients, cold store vs
persisted-warm ``.npz``), and
:func:`repro.engine.serve.bench.latency_benchmark` — 8 and 64 socket
clients, fault-free and with one injected worker kill per repeat.

Asserted here: the persisted-warm concurrent phase recomputes *zero*
rows (every cell is served from the ``.npz``-loaded store, proving
in-flight deduplication plus persistence work end to end), and served
columns stay bit-identical across every latency phase including the
kills.  The throughput ratios and p99 bounds of the same harnesses are
gated by ``benchmarks/timing_gates.py``.
"""

from __future__ import annotations

from repro.engine.serve.bench import latency_benchmark
from repro.engine.service import serving_benchmark

CLIENTS = 8
REQUESTS_PER_CLIENT = 24
CELLS_PER_REQUEST = 100


def test_serving_persisted_warmth_recomputes_nothing(tmp_path):
    """1 vs 8 clients, cold vs persisted-warm."""
    report = serving_benchmark(
        clients=CLIENTS,
        requests_per_client=REQUESTS_PER_CLIENT,
        cells_per_request=CELLS_PER_REQUEST,
        cache_file=tmp_path / "serving-warmth.npz",
    )

    unique_cells = REQUESTS_PER_CLIENT * CELLS_PER_REQUEST
    assert report["persisted_entries"] == unique_cells
    assert report["warm_concurrent_rows_recomputed"] == 0, (
        "persisted-warm clients recomputed cells the .npz store already held"
    )


def test_serving_latency_bit_identical_under_kill(tmp_path):
    """Served columns stay bit-identical with one worker kill.

    Runs the socket-serving latency benchmark (2 supervised workers,
    real connections, 3 fresh-server repeats; the one-kill phases
    hard-kill worker 0 mid-window every repeat) and asserts
    bit-identity across every phase, and at least one worker death per
    one-kill repeat (otherwise the chaos injection silently stopped
    firing).
    """
    report = latency_benchmark(cache_file=tmp_path / "latency-warmth.npz")

    assert report["mismatches"] == 0, (
        f"served columns diverged from the in-process reference: {report}"
    )
    assert report["identical_under_kill"], report
    for name, modes in report["phases"].items():
        assert modes["one_kill"]["worker_deaths"] >= report["repeats"], (
            f"{name}: injected kill fired fewer times than repeats: {modes}"
        )
        assert modes["fault_free"]["worker_deaths"] == 0, (
            f"{name}: fault-free phase lost a worker: {modes}"
        )
