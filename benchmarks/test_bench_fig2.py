"""Bench: regenerate Fig. 2 (1 vs 10 applications, DNN)."""

from repro.experiments import fig2_motivation


def test_bench_fig2(suite):
    one, ten = fig2_motivation.ratios(suite)
    # Paper shape: FPGA worse alone, ~25% better across ten applications.
    assert one > 1.0
    assert ten < 1.0
    assert 0.05 < 1.0 - ten < 0.60
