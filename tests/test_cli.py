"""Tests for the greenfpga CLI."""

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig4" in out
    assert "dnn" in out
    assert "industry_fpga1" in out


def test_compare_command(capsys):
    assert main(["compare", "--domain", "crypto", "--apps", "3",
                 "--lifetime", "1.0", "--volume", "1e5"]) == 0
    out = capsys.readouterr().out
    assert "FPGA" in out and "ASIC" in out
    assert "winner" in out.lower()


def test_fractional_volume_reaches_the_model(monkeypatch, capsys):
    """``--volume 1500.7`` runs with 1500.7 units, not a truncated 1500,
    in both ``compare`` and ``mc``."""
    import repro.analysis.montecarlo as montecarlo
    from repro.engine import EvaluationEngine

    seen = []
    evaluate = EvaluationEngine.evaluate
    monkeypatch.setattr(
        EvaluationEngine, "evaluate",
        lambda self, c, s: seen.append(s.volume) or evaluate(self, c, s),
    )
    monte_carlo_batch = montecarlo.monte_carlo_batch
    monkeypatch.setattr(
        montecarlo, "monte_carlo_batch",
        lambda c, s, *a, **k: seen.append(s.volume) or monte_carlo_batch(
            c, s, *a, **k
        ),
    )
    assert main(["compare", "--volume", "1500.7"]) == 0
    assert main(["mc", "--draws", "20", "--volume", "1500.7"]) == 0
    assert seen == [1500.7, 1500.7]
    assert "N_vol=1500.7" in capsys.readouterr().out


def test_compare_default_arguments(capsys):
    assert main(["compare"]) == 0
    assert "ratio" in capsys.readouterr().out


def test_run_command(capsys):
    assert main(["run", "fig2"]) == 0
    out = capsys.readouterr().out
    assert "fig2" in out


def test_run_with_csv_export(tmp_path, capsys):
    assert main(["run", "tables", "--csv-dir", str(tmp_path)]) == 0
    assert list(tmp_path.glob("tables_*.csv"))


def test_run_unknown_experiment():
    with pytest.raises(KeyError):
        main(["run", "fig99"])


def test_bad_domain_rejected():
    with pytest.raises(SystemExit):
        main(["compare", "--domain", "gpu"])


def test_no_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_compare_with_cache_stats(capsys):
    from repro.engine import reset_default_engine

    reset_default_engine()
    try:
        assert main(["--cache-stats", "compare", "--domain", "dnn"]) == 0
        out = capsys.readouterr().out
        assert "evaluation-engine cache" in out
        assert "misses" in out
    finally:
        reset_default_engine()


def test_compare_no_vectorize_matches_default(capsys):
    from repro.engine import reset_default_engine

    reset_default_engine()
    try:
        assert main(["compare", "--domain", "crypto"]) == 0
        default_out = capsys.readouterr().out
        assert main(["--no-vectorize", "compare", "--domain", "crypto"]) == 0
        scalar_out = capsys.readouterr().out
        assert scalar_out == default_out  # identical numbers either way
    finally:
        reset_default_engine()


def test_run_with_workers_flag(capsys):
    from repro.engine import default_engine, reset_default_engine

    reset_default_engine()
    try:
        assert main(["--workers", "2", "--cache-stats", "run", "fig2"]) == 0
        assert default_engine().workers == 2
        out = capsys.readouterr().out
        assert "evaluation-engine cache" in out
    finally:
        reset_default_engine()


def test_cache_file_warms_across_cli_runs(tmp_path, capsys):
    from repro.engine import default_engine, reset_default_engine

    cache = tmp_path / "warm.npz"
    reset_default_engine()
    try:
        assert main(["--cache-file", str(cache), "compare"]) == 0
        assert cache.exists()
        first_out = capsys.readouterr().out
        reset_default_engine()  # simulate a fresh process
        assert main(["--cache-file", str(cache), "compare"]) == 0
        second_out = capsys.readouterr().out
        assert second_out == first_out
        stats = default_engine().cache_stats
        assert stats.hits >= 1 and stats.misses == 0  # served from disk
    finally:
        reset_default_engine()


def test_serve_bench_command(capsys):
    assert main([
        "serve-bench", "--clients", "2", "--requests", "8", "--cells", "10",
    ]) == 0
    out = capsys.readouterr().out
    assert "socket serving" in out
    for column in ("p50_ms", "p99_ms", "fault_free", "one_kill"):
        assert column in out
    assert "mismatched responses: 0" in out


def test_serve_bench_rejects_the_removed_window_flag(capsys):
    with pytest.raises(SystemExit):
        main(["serve-bench", "--window-ms", "1"])
    capsys.readouterr()


def test_serve_bench_persists_to_cache_file(tmp_path, capsys):
    """--cache-file with serve-bench writes back the store the file held:
    serving computes array batches and adds no entries, and the
    end-of-run save neither drops nor replaces the earlier ones."""
    from repro.engine import ShardedResultStore, reset_default_engine

    cache = tmp_path / "bench-warm.npz"
    reset_default_engine()
    try:
        assert main([
            "--cache-file", str(cache),
            "compare", "--domain", "dnn", "--apps", "3", "--lifetime", "2",
            "--volume", "1e5",
        ]) == 0
        reset_default_engine()
        assert main([
            "--cache-file", str(cache),
            "serve-bench", "--clients", "2", "--requests", "8",
            "--cells", "10",
        ]) == 0
        capsys.readouterr()
        store = ShardedResultStore(capacity=4096)
        assert store.load(cache) == 1  # the earlier compare's result
    finally:
        reset_default_engine()


def test_mc_stream_command_prints_throughput_and_rss(capsys):
    from repro.engine import reset_default_engine

    reset_default_engine()
    try:
        assert main([
            "mc", "--draws", "2000", "--stream", "--chunk-rows", "1024",
            "--mc-workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "streaming reduction" in out
        assert "draws/s" in out
        assert "peak RSS" in out
        assert "fpga_win_probability" in out
    finally:
        reset_default_engine()


def test_mc_stream_matches_materialized_summary(capsys):
    from repro.engine import reset_default_engine

    reset_default_engine()
    try:
        assert main(["mc", "--draws", "2000"]) == 0
        materialized = capsys.readouterr().out
        assert main(["mc", "--draws", "2000", "--stream",
                     "--mc-workers", "1"]) == 0
        streamed = capsys.readouterr().out

        def metric(out: str, name: str) -> str:
            return next(
                line.split("|")[1].strip()
                for line in out.splitlines() if line.startswith(name)
            )

        # win probability is an exact counter in both modes
        assert metric(streamed, "fpga_win_probability") == metric(
            materialized, "fpga_win_probability"
        )
    finally:
        reset_default_engine()


def test_mc_stream_knobs_require_stream_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["mc", "--draws", "100", "--mc-workers", "2"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):
        main(["mc", "--draws", "100", "--chunk-rows", "64"])
    with pytest.raises(SystemExit):
        main(["mc", "--draws", "100", "--checkpoint", "ck.bin"])


def test_mc_checkpoint_every_requires_checkpoint():
    with pytest.raises(SystemExit) as excinfo:
        main(["mc", "--stream", "--draws", "100", "--checkpoint-every", "64"])
    assert excinfo.value.code == 2


def test_mc_stream_checkpoint_resumes_from_file(tmp_path, capsys):
    """The CLI wires --checkpoint/--checkpoint-every through to the
    streaming path: a finished checkpoint is picked up on the rerun and
    the reported summary is identical."""
    ckpt = tmp_path / "mc.ckpt"
    args = [
        "mc", "--stream", "--draws", "512", "--seed", "9",
        "--chunk-rows", "128", "--mc-workers", "1",
        "--checkpoint", str(ckpt), "--checkpoint-every", "128",
    ]
    from repro.engine import reset_default_engine

    def metrics(out: str) -> list[str]:
        # Drop the run header (wall time / RSS vary); keep the table.
        return [line for line in out.splitlines() if "|" in line]

    try:
        main(args)
        first = capsys.readouterr().out
        assert ckpt.exists()
        main(args)  # resumes (here: fully short-circuits) from the file
        second = capsys.readouterr().out
        assert metrics(first) == metrics(second)
        assert metrics(first)
    finally:
        reset_default_engine()


def test_audit_parity_values_default_ignores_bench_quick(monkeypatch, capsys):
    """The sweep size is a CLI default, not a benchmark-scale setting."""
    from repro.audit import parity

    seen = []

    def fake_run_parity(values_per_column):
        seen.append(values_per_column)
        return parity.ParityReport(columns=())

    monkeypatch.setenv("BENCH_QUICK", "1")
    monkeypatch.setattr(parity, "run_parity", fake_run_parity)
    assert main(["audit", "--parity-only"]) == 0
    assert seen == [4]


def test_setup_py_declares_package_metadata():
    """``pip install -e .`` needs a real name and version to install
    the ``greenfpga`` command."""
    import subprocess
    import sys
    from pathlib import Path

    import repro

    root = Path(__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=root, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert out == ["greenfpga", repro.__version__]
