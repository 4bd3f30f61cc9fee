"""Bench: regenerate Fig. 4 (CFP vs N_app, A2F crossovers per domain)."""

import pytest

from repro.experiments import fig4_num_apps


@pytest.mark.parametrize("domain", ["dnn", "imgproc", "crypto"])
def test_bench_fig4(suite, domain):
    result, crossings = fig4_num_apps.domain_sweep(domain, suite)
    assert len(result.values) == len(fig4_num_apps.NUM_APPS_VALUES)
    a2f = next((c for c in crossings if c.kind == "A2F"), None)
    paper = fig4_num_apps.PAPER_A2F[domain]
    assert a2f is not None, f"{domain}: no A2F crossover found"
    # Same rough location as the paper (factor-3 band; crypto crosses at 1).
    if domain == "crypto":
        assert a2f.x <= 2.0
    else:
        assert paper / 3.0 <= a2f.x <= paper * 3.0
