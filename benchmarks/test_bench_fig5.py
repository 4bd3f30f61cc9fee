"""Bench: regenerate Fig. 5 (CFP vs application lifetime)."""

import pytest

from repro.experiments import fig5_lifetime


@pytest.mark.parametrize("domain", ["dnn", "imgproc", "crypto"])
def test_bench_fig5(suite, domain):
    result, crossings = fig5_lifetime.domain_sweep(domain, suite)
    if domain == "crypto":
        assert all(r < 1.0 for r in result.ratios), "crypto: FPGA always greener"
    elif domain == "imgproc":
        assert all(r > 1.0 for r in result.ratios), "imgproc: ASIC always greener"
    else:
        f2a = next((c for c in crossings if c.kind == "F2A"), None)
        assert f2a is not None, "dnn: F2A crossover expected"
        assert 1.6 / 3.0 <= f2a.x <= 1.6 * 3.0  # paper: ~1.6 years
