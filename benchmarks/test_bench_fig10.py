"""Bench: regenerate Fig. 10 (industry FPGA component breakdown)."""

from repro.experiments import fig10_industry_fpga


def test_bench_fig10(suite):
    footprints = fig10_industry_fpga.assess_all(suite)
    assert set(footprints) == {"industry_fpga1", "industry_fpga2"}
    for key, fp in footprints.items():
        # Paper ordering: operational > manufacturing > design.
        assert fp.operational > fp.manufacturing > fp.design, key
        # App-dev minimal even after three reconfigurations.
        assert fp.appdev < 0.01 * fp.total, key
        # Design a substantial minority of embodied (paper: ~15%).
        assert 0.05 < fp.design / fp.embodied < 0.50, key
        # EOL a very small contributor.
        assert abs(fp.eol) < 0.05 * fp.total, key
