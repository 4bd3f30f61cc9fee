"""Bench: regenerate Fig. 9 (horizon beyond the FPGA chip lifetime)."""

import pytest

from repro.experiments import fig9_chip_lifetime


@pytest.mark.parametrize("domain", ["dnn", "imgproc", "crypto"])
def test_bench_fig9(suite, domain):
    rows = fig9_chip_lifetime.domain_series(domain, suite)
    assert len(rows) == fig9_chip_lifetime.MAX_YEARS
    jumps = fig9_chip_lifetime.jump_years(rows)
    # Paper: jumps at the 15- and 30-year marks in the FPGA curve.
    assert jumps == [16, 31]
    # The jump increments are embodied-sized: larger than a typical
    # operational year-over-year increment.
    increments = [
        b["fpga_total_kg"] - a["fpga_total_kg"] for a, b in zip(rows, rows[1:])
    ]
    typical = sorted(increments)[len(increments) // 2]
    jump_increment = increments[14]  # rows[14] is year 15, rows[15] year 16
    assert jump_increment > 1.5 * typical
