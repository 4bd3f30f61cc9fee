"""Benches for the extension experiments (GPU, fleet, uncertainty)."""

from repro.core.scenario import Scenario
from repro.experiments import ext_fleet, ext_gpu, ext_uncertainty
from repro.experiments.ext_gpu import three_way_totals


def test_bench_ext_gpu(suite):
    totals = three_way_totals("dnn", None, suite)
    # GPU is the least sustainable platform at 1M units.
    assert totals["gpu"] > totals["fpga"]
    assert totals["gpu"] > totals["asic"]


def test_bench_ext_gpu_low_volume(suite):
    scenario = Scenario(num_apps=5, app_lifetime_years=1.0, volume=100)
    totals = three_way_totals("dnn", scenario, suite)
    # At tiny volume the GPU's amortised design beats per-app ASIC projects.
    assert totals["gpu"] < totals["asic"]


def test_bench_ext_fleet(suite):
    plan = ext_fleet.plan_portfolio(suite)
    assert plan.exact
    # The mixed fleet strictly beats both uniform deployments here.
    assert plan.total_kg < plan.all_fpga_kg
    assert plan.total_kg < plan.all_asic_kg
    # The stable, high-volume flagship belongs on a dedicated ASIC.
    assert "flagship-recsys" in plan.asic_apps


def test_bench_ext_uncertainty(suite):
    report = ext_uncertainty.run(suite)
    summary = dict(report.tables["monte_carlo_summary"][0])
    assert 0.0 <= summary["fpga_win_probability"] <= 1.0
    assert summary["n_samples"] == ext_uncertainty.N_SAMPLES
    tornado_rows = report.tables["tornado"]
    assert len(tornado_rows) == 5
    # Use-grid intensity must be a verdict-flipping knob at this baseline.
    by_name = {row["parameter"]: row for row in tornado_rows}
    assert by_name["use_intensity_g_per_kwh"]["flips_winner"]
