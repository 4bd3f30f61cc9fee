"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload mc_stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``repro`` is imported from that
checkout's ``src``; without it the run fails before printing a result.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer split.  A run writes only under ``.perfbench/`` in the
checkout.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness.common import END_TO_END, OUT, PER_LAYER, SRC, WORKLOADS  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}",
              file=sys.stderr)
        return 2
    from harness.common import machine_shape

    if args.workload == "serve_open":
        from harness import serve as workload
    else:
        from harness import batch as workload
    OUT.mkdir(parents=True, exist_ok=True)
    outcome = workload.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": float(outcome["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_shape(),
        **outcome["info"],
        "metrics": metrics,
    }
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("perfbench: " + ", ".join(
        f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items()
    ))
    failed = int(outcome["failed"])
    for problem in outcome["info"]["problems"]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    # The result is the last line of standard output.
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(outcome["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
