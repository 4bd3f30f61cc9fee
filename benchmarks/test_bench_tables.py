"""Bench: regenerate Tables 1-3 and verify them against the paper."""

from repro.experiments import tables


def test_bench_table1():
    rows = tables.table1_rows()
    assert len(rows) == 10  # every Table 1 parameter
    assert all(row["in_range"] for row in rows)


def test_bench_table2():
    rows = tables.table2_rows()
    by_domain = {row["domain"]: row for row in rows}
    assert by_domain["dnn"]["area_ratio"] == 4.0
    assert by_domain["dnn"]["power_ratio"] == 3.0
    assert by_domain["imgproc"]["area_ratio"] == 7.42
    assert by_domain["imgproc"]["power_ratio"] == 1.25
    assert by_domain["crypto"]["area_ratio"] == 1.0
    assert by_domain["crypto"]["power_ratio"] == 1.0


def test_bench_table3():
    rows = tables.table3_rows()
    by_name = {row["testcase"]: row for row in rows}
    assert by_name["IndustryASIC1"]["area_mm2"] == 340.0
    assert by_name["IndustryASIC2"]["power_w"] == 192.0
    assert by_name["IndustryFPGA1"]["node"] == "14nm"
    assert by_name["IndustryFPGA2"]["area_mm2"] == 550.0
