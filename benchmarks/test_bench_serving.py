"""Bench: the socket serving tier under concurrent clients.

Drives :func:`repro.engine.serve.bench.latency_benchmark` — the harness
behind ``greenfpga serve-bench`` — with 8 and 64 socket clients,
fault-free and with one injected worker kill per repeat.

Asserted here: served columns stay bit-identical across every phase
including the kills.  The p99 bounds of the same harness are gated by
``benchmarks/timing_gates.py``.
"""

from __future__ import annotations

from repro.engine.serve.bench import latency_benchmark


def test_serving_latency_bit_identical_under_kill():
    """Served columns stay bit-identical with one worker kill.

    Runs the socket-serving latency benchmark (2 supervised workers,
    real connections, 3 fresh-server repeats; the one-kill phases
    hard-kill worker 0 mid-window every repeat) and asserts
    bit-identity across every phase, and at least one worker death per
    one-kill repeat (otherwise the chaos injection silently stopped
    firing).
    """
    report = latency_benchmark()

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
