"""Bench: regenerate Fig. 11 (industry ASIC component breakdown)."""

from repro.experiments import fig11_industry_asic


def test_bench_fig11(suite):
    footprints = fig11_industry_asic.assess_all(suite)
    assert set(footprints) == {"industry_asic1", "industry_asic2"}
    for key, fp in footprints.items():
        # Paper: operational dominates, then manufacturing, then design.
        assert fp.operational > fp.manufacturing > fp.design, key
        assert fp.operational > 0.5 * fp.total, key
        # ASICs are never reprogrammed: zero app-dev per the paper.
        assert fp.appdev == 0.0, key
