"""Bench: regenerate Fig. 6 (CFP vs application volume)."""

import pytest

from repro.experiments import fig6_volume


@pytest.mark.parametrize("domain", ["dnn", "imgproc", "crypto"])
def test_bench_fig6(suite, domain):
    result, crossings = fig6_volume.domain_sweep(domain, suite)
    paper = fig6_volume.PAPER_F2A[domain]
    f2a = next((c for c in crossings if c.kind == "F2A"), None)
    if paper is None:
        assert all(r < 1.0 for r in result.ratios), "crypto: FPGA at any volume"
    else:
        assert f2a is not None, f"{domain}: F2A crossover expected"
        assert paper / 3.0 <= f2a.x <= paper * 3.0
    # Totals grow monotonically with volume for both platforms.
    assert all(b > a for a, b in zip(result.fpga_totals, result.fpga_totals[1:]))
    assert all(b > a for a, b in zip(result.asic_totals, result.asic_totals[1:]))
