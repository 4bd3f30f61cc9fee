"""Bench: regenerate Fig. 7 (DNN component breakdown panels)."""

import pytest

from repro.experiments import fig7_breakdown


@pytest.mark.parametrize("axis,values", fig7_breakdown.PANELS,
                         ids=[p[0] for p in fig7_breakdown.PANELS])
def test_bench_fig7(suite, axis, values):
    rows = fig7_breakdown.panel_breakdowns(axis, values, suite)
    fpga, asic = rows["fpga"], rows["asic"]
    assert len(fpga) == len(values) == len(asic)
    if axis == "num_apps":
        # Paper: FPGA EC flat, ASIC EC grows with applications.
        assert fpga[0]["embodied"] == pytest.approx(fpga[-1]["embodied"])
        assert asic[-1]["embodied"] > asic[0]["embodied"] * 1.5
        assert fpga[-1]["operational"] > fpga[0]["operational"]
    if axis == "lifetime":
        # Paper: EC flat in lifetime; FPGA OC grows faster than ASIC OC.
        assert fpga[0]["embodied"] == pytest.approx(fpga[-1]["embodied"])
        fpga_oc_growth = fpga[-1]["operational"] - fpga[0]["operational"]
        asic_oc_growth = asic[-1]["operational"] - asic[0]["operational"]
        assert fpga_oc_growth > asic_oc_growth
    if axis == "volume":
        # Paper: at low volume EC dominates; ASIC EC >> FPGA EC per app.
        assert asic[0]["embodied"] > asic[0]["operational"]
        assert asic[0]["embodied"] > fpga[0]["embodied"]
