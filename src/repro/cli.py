"""Command-line interface: ``greenfpga``.

Subcommands:

* ``greenfpga list`` — list experiments, domains and industry devices.
* ``greenfpga run <experiment> [--csv-dir DIR]`` — run a paper experiment
  and print its report (optionally exporting CSVs).
* ``greenfpga compare --domain dnn --apps 5 --lifetime 2 --volume 1e6`` —
  one-off FPGA-vs-ASIC comparison.
* ``greenfpga mc --draws 1000000`` — columnar Monte-Carlo over the
  Table 1 uncertainty ranges (the parameter-space pipeline: draws are
  sampled straight into NumPy columns, no per-draw objects).
* ``greenfpga mc --draws 100000000 --stream`` — the same study through
  the streaming reduction pipeline: draws are generated, evaluated and
  reduced chunk-by-chunk (``--chunk-rows``) on ``--mc-workers`` spawn
  processes, so any draw count runs in bounded memory; prints draws/s
  and the peak process-tree RSS.
* ``greenfpga serve-bench [--clients N ...]`` — measure serving latency
  (p50/p99) through the socket ``BatchServer``, fault-free and with one
  injected worker kill; exits non-zero if any response mismatches.

Engine options (shared by every subcommand):

* ``--workers N`` — threads for chunked parameter batches and the
  default worker count of streamed reductions (``mc --stream`` without
  ``--mc-workers``).
* ``--no-vectorize`` — disable the NumPy vector kernel (pure scalar
  path; mainly for debugging and perf comparisons).
* ``--cache-stats`` — print the shared engine's cache counters after
  the command, showing how much of the run was served from warmth.
* ``--cache-file PATH`` — load the object-result store from PATH (if it
  exists) before the command and save it back afterwards, so cache
  warmth survives across CLI runs.  Only object-path results are
  stored; array batches (heatmap panels, vector sweeps, serving) are
  always computed.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.devices.catalog import DOMAIN_NAMES, list_industry_devices
from repro.engine import configure_default_engine, default_engine
from repro.reporting.table import format_table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenfpga",
        description="GreenFPGA: FPGA vs ASIC lifecycle carbon-footprint analysis",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="threads for chunked parameter batches and default "
        "streaming worker count (default: every core)",
    )
    parser.add_argument(
        "--no-vectorize",
        action="store_true",
        help="disable the NumPy vector kernel (scalar path only)",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print evaluation-engine cache statistics after the command",
    )
    parser.add_argument(
        "--cache-file",
        default=None,
        metavar="PATH",
        help="persist the object-result store to a snapshot file at PATH "
        "across CLI runs (array batches are always computed, never cached)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments, domains and devices")

    run = sub.add_parser("run", help="run a paper experiment by id (e.g. fig4)")
    run.add_argument("experiment", help="experiment id, e.g. fig4, table2")
    run.add_argument("--csv-dir", default=None, help="directory for CSV export")

    compare = sub.add_parser("compare", help="compare FPGA vs ASIC for a domain")
    compare.add_argument("--domain", default="dnn", choices=list(DOMAIN_NAMES))
    compare.add_argument("--apps", type=int, default=5, help="number of applications")
    compare.add_argument("--lifetime", type=float, default=2.0, help="app lifetime, years")
    compare.add_argument("--volume", type=float, default=1.0e6, help="units per app")

    mc = sub.add_parser(
        "mc",
        help="columnar Monte-Carlo over the Table 1 uncertainty ranges",
    )
    mc.add_argument("--domain", default="dnn", choices=list(DOMAIN_NAMES))
    mc.add_argument("--draws", type=int, default=100_000,
                    help="Monte-Carlo draws (columns, not objects)")
    mc.add_argument("--seed", type=int, default=2024, help="RNG seed")
    mc.add_argument("--apps", type=int, default=5, help="number of applications")
    mc.add_argument("--lifetime", type=float, default=2.0,
                    help="app lifetime, years")
    mc.add_argument("--volume", type=float, default=1.0e6, help="units per app")
    mc.add_argument(
        "--stream",
        action="store_true",
        help=(
            "streaming reduction: draws are generated, evaluated and "
            "reduced chunk-by-chunk in bounded memory (multi-core by "
            "default), summarising any draw count without materializing it"
        ),
    )
    mc.add_argument(
        "--chunk-rows", type=int, default=None, metavar="N",
        help=(
            "rows per streamed chunk (bounds peak memory; rounded up to "
            "the reducer block, 16384 for the default bundle)"
        ),
    )
    mc.add_argument("--mc-workers", type=int, default=None, metavar="N",
                    help="streaming worker processes (default: all cores)")
    mc.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help=(
            "durable execution: atomically journal merged reducer "
            "partials to PATH and resume a killed run from it "
            "(bit-identical to an uninterrupted run; requires --stream)"
        ),
    )
    mc.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help=(
            "rows per durable checkpoint unit (default: ~1/64th of the "
            "draws, flushed on a 5 s cadence; requires --checkpoint)"
        ),
    )

    serve = sub.add_parser(
        "serve-bench",
        help="latency percentiles of the socket batch server",
    )
    serve.add_argument("--clients", type=int, nargs="+", default=None,
                       metavar="N", help="concurrent client count(s)")
    serve.add_argument("--requests", type=int, default=None,
                       help="requests per client")
    serve.add_argument("--cells", type=int, default=None,
                       help="scenario cells per request")

    audit = sub.add_parser(
        "audit",
        help="static invariant lint + registry parity audit",
    )
    layer = audit.add_mutually_exclusive_group()
    layer.add_argument("--lint-only", action="store_true",
                       help="run only the AST lint layer")
    layer.add_argument("--parity-only", action="store_true",
                       help="run only the registry parity layer")
    audit.add_argument(
        "--parity-values", type=int, default=4, metavar="N",
        help="perturbation values per registry column (default: 4)",
    )
    audit.add_argument("--root", default=None, metavar="DIR",
                       help="lint a tree other than the installed repro package")
    audit.add_argument(
        "--checks", default=None, metavar="IDS",
        help="comma-separated checker ids to run (e.g. GF-RNG,GF-EXC)",
    )
    audit.add_argument("--baseline", default=None, metavar="PATH",
                       help="suppression baseline (default: the committed one)")
    audit.add_argument(
        "--update-baseline", action="store_true",
        help=(
            "rewrite the baseline from the current findings (new entries "
            "get TODO justifications that must be hand-edited)"
        ),
    )
    audit.add_argument("--json", default=None, metavar="PATH",
                       help="also write the machine-readable report to PATH")
    return parser


def _configure_engine(args: argparse.Namespace) -> None:
    """Apply the engine options to the shared default engine."""
    options: dict[str, object] = {}
    if args.workers is not None:
        options["workers"] = args.workers
    if args.no_vectorize:
        options["vectorize"] = False
    if args.cache_file is not None:
        options["cache_file"] = args.cache_file
    if options:
        configure_default_engine(**options)


def _print_cache_stats() -> None:
    stats = default_engine().cache_stats
    rows = [
        {
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_rate": f"{stats.hit_rate:.1%}",
            "size": stats.size,
            "maxsize": stats.maxsize,
        }
    ]
    print()
    print(format_table(rows, title="evaluation-engine cache"))


def _cmd_list() -> int:
    from repro.experiments.registry import list_experiments

    print("experiments:")
    for exp_id, description in list_experiments():
        print(f"  {exp_id:<8} {description}")
    print("domains:", ", ".join(DOMAIN_NAMES))
    print("industry devices:", ", ".join(list_industry_devices()))
    return 0


def _cmd_run(experiment: str, csv_dir: str | None) -> int:
    from repro.experiments.registry import run_experiment

    report = run_experiment(experiment, csv_dir=csv_dir)
    print(report.render())
    return 0


def _cmd_compare(domain: str, apps: int, lifetime: float, volume: float) -> int:
    scenario = Scenario(
        num_apps=apps, app_lifetime_years=lifetime, volume=volume
    )
    comparator = PlatformComparator.for_domain(domain)
    result = default_engine().evaluate(comparator, scenario)
    rows = [
        {"platform": "FPGA", **result.fpga.footprint.as_dict()},
        {"platform": "ASIC", **result.asic.footprint.as_dict()},
    ]
    print(format_table(rows, title=f"{domain}: N_app={apps}, T_i={lifetime}y, N_vol={volume:g}"))
    print(f"\nFPGA:ASIC ratio = {result.ratio:.3f}  ->  winner: {result.winner.upper()}")
    return 0


def _cmd_mc(
    domain: str,
    draws: int,
    seed: int,
    apps: int,
    lifetime: float,
    volume: float,
    stream: bool,
    chunk_rows: int | None,
    mc_workers: int | None,
    checkpoint: str | None = None,
    checkpoint_every: int | None = None,
) -> int:
    import time

    from repro.analysis.montecarlo import monte_carlo_batch
    from repro.engine.resources import PeakRssSampler
    from repro.engine.vector import Checkpoint
    from repro.experiments.ext_uncertainty import distributions

    scenario = Scenario(
        num_apps=apps, app_lifetime_years=lifetime, volume=volume
    )
    comparator = PlatformComparator.for_domain(domain)
    engine = default_engine()
    ckpt = (
        Checkpoint(checkpoint, every_rows=checkpoint_every)
        if checkpoint is not None else None
    )
    start = time.perf_counter()
    with PeakRssSampler() as rss:
        result = monte_carlo_batch(
            comparator, scenario, distributions(), n_samples=draws, seed=seed,
            engine=engine, reduce=True if stream else None,
            chunk_rows=chunk_rows, workers=mc_workers, checkpoint=ckpt,
        )
    elapsed = time.perf_counter() - start
    rows = [
        {"metric": name, "value": f"{value:.6g}"}
        for name, value in result.summary().items()
    ]
    mode = "streaming reduction" if stream else "materialized"
    print(format_table(
        rows,
        title=(
            f"{domain}: {draws} Monte-Carlo draws over Table 1 ranges "
            f"(seed {seed}, {mode})"
        ),
    ))
    if stream:
        # Reduce-only streaming serves through the fused kernel tier
        # (REPRO_KERNEL-selectable); materialized runs keep the chain.
        pipeline = (
            f"streaming reduction, {engine.stream_workers(mc_workers)} "
            f"worker(s), {engine.kernel_tier_name} kernel"
        )
    else:
        pipeline = "columnar parameter-space pipeline, numpy-chain kernel"
    print(
        f"\n{draws} draws in {elapsed:.3f} s "
        f"({draws / elapsed:,.0f} draws/s, {pipeline}); "
        f"peak RSS {rss.peak_mb:,.0f} MB"
    )
    return 0


def _cmd_serve_bench(
    clients: "list[int] | None",
    requests: "int | None",
    cells: "int | None",
) -> int:
    from repro.engine.serve.bench import latency_benchmark

    sizes: dict[str, object] = {}
    if clients is not None:
        sizes["client_counts"] = tuple(clients)
    if requests is not None:
        sizes["requests_per_client"] = requests
    if cells is not None:
        sizes["cells_per_request"] = cells
    report = latency_benchmark(**sizes)
    rows = [
        {
            "clients": name.removeprefix("clients_"),
            "phase": phase,
            **{key: metrics[key] for key in (
                "requests", "p50_ms", "p99_ms", "worker_deaths",
                "replays", "mismatches",
            )},
        }
        for name, modes in report["phases"].items()
        for phase, metrics in modes.items()
    ]
    print(format_table(
        rows,
        title=(
            f"socket serving: {report['workers']} workers, "
            f"{report['requests_per_client']} requests/client x "
            f"{report['cells_per_request']} cells, "
            f"{report['repeats']} repeats per phase"
        ),
    ))
    print(f"\nmismatched responses: {report['mismatches']}")
    return 0 if report["mismatches"] == 0 else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.audit.baseline import (
        DEFAULT_BASELINE_PATH,
        Baseline,
        write_baseline,
    )
    from repro.audit.checks import all_checkers
    from repro.audit.linter import run_lint
    from repro.audit.parity import run_parity
    from repro.audit.report import AuditReport

    lint_report = None
    if not args.parity_only:
        checks = all_checkers()
        if args.checks is not None:
            wanted = {c.strip() for c in args.checks.split(",") if c.strip()}
            unknown = wanted - {c.id for c in checks}
            if unknown:
                print(f"unknown checker id(s): {', '.join(sorted(unknown))}",
                      file=sys.stderr)
                return 2
            checks = tuple(c for c in checks if c.id in wanted)
        baseline_path = (
            Path(args.baseline) if args.baseline is not None
            else DEFAULT_BASELINE_PATH
        )
        baseline = (
            Baseline.load(baseline_path) if baseline_path.exists()
            else Baseline(())
        )
        lint_kwargs: dict[str, object] = {"checks": checks, "baseline": baseline}
        if args.root is not None:
            lint_kwargs["root"] = Path(args.root)
        lint_report = run_lint(**lint_kwargs)
        if args.update_baseline:
            write_baseline(
                [*lint_report.findings, *lint_report.suppressed], baseline_path
            )
            print(f"baseline rewritten: {baseline_path}")

    parity_report = None
    if not args.lint_only:
        parity_report = run_parity(values_per_column=args.parity_values)

    report = AuditReport(lint=lint_report, parity=parity_report)
    print(report.render())
    if args.json is not None:
        report.write_json(Path(args.json))
        print(f"json report: {args.json}")
    if args.update_baseline:
        return 0
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "mc" and not args.stream and (
        args.chunk_rows is not None or args.mc_workers is not None
        or args.checkpoint is not None
    ):
        # Without --stream these knobs would be silently ignored and
        # the run would materialize the full batch single-pipeline.
        parser.error("--chunk-rows/--mc-workers/--checkpoint require --stream")
    if args.command == "mc" and (
        args.checkpoint_every is not None and args.checkpoint is None
    ):
        parser.error("--checkpoint-every requires --checkpoint")
    _configure_engine(args)
    if args.command == "list":
        code = _cmd_list()
    elif args.command == "run":
        code = _cmd_run(args.experiment, args.csv_dir)
    elif args.command == "compare":
        code = _cmd_compare(args.domain, args.apps, args.lifetime, args.volume)
    elif args.command == "mc":
        code = _cmd_mc(
            args.domain, args.draws, args.seed, args.apps, args.lifetime,
            args.volume, args.stream, args.chunk_rows, args.mc_workers,
            args.checkpoint, args.checkpoint_every,
        )
    elif args.command == "serve-bench":
        code = _cmd_serve_bench(args.clients, args.requests, args.cells)
    elif args.command == "audit":
        code = _cmd_audit(args)
    else:
        raise AssertionError(f"unhandled command {args.command!r}")
    if args.cache_stats:
        _print_cache_stats()
    if args.cache_file is not None:
        default_engine().save_cache(args.cache_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
