"""Host-speed calibration: a fixed reference kernel timed during each run.

The measurement host's speed drifts by tens of percent over minutes
(see ``perfbench/README.md``), far more than any bound a regression
gate could use.  Each run therefore times a small pure-Python kernel
between its operations, and reports every end-to-end timing scaled to
a host on which that kernel takes :data:`NOMINAL_MS`.  The kernel is
the benchmark's own code and never calls ``repro``, so a change to the
program cannot move it; only the host's speed can.  The unscaled
figures are kept in the run record.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's median time on the host the bounds were set on.
NOMINAL_MS = 1.6


def _kernel() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


class Calibration:
    """Timings of the reference kernel taken over one run."""

    def __init__(self) -> None:
        self.samples_s: list[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            _kernel()
            self.samples_s.append(time.perf_counter() - start)

    def scale(self) -> float:
        """How many times slower than nominal the host ran."""
        return float(np.median(self.samples_s)) * 1e3 / NOMINAL_MS

    def at_nominal_speed(self, metrics: dict,
                         rates=("rows_per_s",)) -> dict:
        """End-to-end timings, and the given rates, as on the nominal host.

        ``serve_open`` passes no rates: its ``rows_per_s`` is set by
        the load generator's schedule, not by the host's speed.
        """
        scale = self.scale()
        out = dict(metrics)
        for name in ("p50_ms", "p75_ms", "setup_s"):
            out[name] = metrics[name] / scale
        for name in rates:
            out[name] = metrics[name] * scale
        return out

    def summary(self) -> dict:
        return {
            "samples": len(self.samples_s),
            "kernel_ms": float(np.median(self.samples_s)) * 1e3,
            "nominal_ms": NOMINAL_MS,
            "scale": self.scale(),
        }
