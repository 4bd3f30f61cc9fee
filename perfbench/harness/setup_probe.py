"""Set-up time: from a fresh interpreter to the first correct result.

The parent launches ``python -m harness.setup_probe <workload> <seed>``
and notes the launch time.  The child imports ``repro`` (through the
workload module), constructs the workload's objects, spawns the server
and its worker for ``serve_open``, produces the workload's first
result, and prints the system-wide monotonic time of each step plus a
digest of that result.  The parent checks the digest against its own
first result, so a set-up only counts when its result is right.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from harness.common import ROOT, child_env, median

PHASES = ("import_s", "construct_s", "spawn_s", "first_result_s")


def measure(name: str, seed: int, samples: int, calibration) -> list[dict]:
    """Run ``samples`` fresh-process set-ups one after another.

    The host-speed ``calibration`` is sampled before each one.
    """
    results = []
    for _ in range(samples):
        calibration.sample(2)
        launched = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-m", "harness.setup_probe", name, str(seed)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=120, check=True,
        )
        stamps = json.loads(done.stdout.strip().splitlines()[-1])
        results.append({
            "import_s": stamps["imported"] - launched,
            "construct_s": stamps["constructed"] - stamps["imported"],
            "spawn_s": stamps["spawned"] - stamps["constructed"],
            "first_result_s": stamps["first"] - stamps["spawned"],
            "total_s": stamps["first"] - launched,
            "digest": stamps["digest"],
        })
    return results


def phase_medians(samples: list[dict]) -> dict[str, float]:
    return {f"setup.{phase}": median([s[phase] for s in samples])
            for phase in PHASES}


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    if name == "serve_open":
        from harness import serve as workloads
    else:
        from harness import batch as workloads

    imported = time.monotonic()
    stamps = workloads.probe(name, seed)
    stamps["imported"] = imported
    print(json.dumps(stamps), flush=True)


if __name__ == "__main__":
    main()
