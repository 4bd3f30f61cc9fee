"""Process-tree memory measurement for streaming workloads.

The streaming reduction pipeline promises *bounded* peak memory —
``O(chunk_rows)`` per worker, not ``O(n)`` — so the benchmark tests, the
CLI and ``perfbench`` need a number to hold it to: the peak resident
set of the whole process tree (the parent plus its spawn
workers) over a measured phase.  Linux exposes everything required in
``/proc``; this module reads it directly so the measurement works in
the bare test container (no ``psutil``).

:class:`PeakRssSampler` polls ``VmRSS`` of the current process and
every live descendant on a background thread and keeps the maximum of
the sums.  Sampling is approximate by nature (a spike between polls is
missed), which is exactly the fidelity an RSS budget with wide headroom
needs — and the only kind available without instrumenting every
allocation.  On platforms without ``/proc`` the sampler degrades to
reporting ``0.0`` rather than failing the workload it observes.
"""

from __future__ import annotations

import os
import threading

_PROC = "/proc"


def _vm_rss_kb(pid: int) -> int:
    """``VmRSS`` of one process in kB (0 if gone or unreadable).

    A process may exit between discovery and this read, leaving the
    ``/proc/<pid>`` entry missing, unreadable, or garbled mid-write —
    all of those count as "gone" (0), never an exception: a sampler
    must not crash the workload it observes.
    """
    try:
        with open(f"{_PROC}/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1])
    except (OSError, IndexError, ValueError):
        pass
    return 0


def _parent_map() -> dict[int, int]:
    """``pid -> ppid`` for every live process (empty without /proc)."""
    parents: dict[int, int] = {}
    try:
        entries = os.listdir(_PROC)
    except OSError:
        return parents
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"{_PROC}/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised comm, which may
        # itself contain spaces/parens — split after the last ')'.
        try:
            parents[int(entry)] = int(stat.rpartition(b")")[2].split()[1])
        except (IndexError, ValueError):
            continue
    return parents


def process_tree_pids(root: "int | None" = None) -> list[int]:
    """The root pid plus every live descendant (workers included)."""
    root = os.getpid() if root is None else root
    parents = _parent_map()
    children: dict[int, list[int]] = {}
    for pid, ppid in parents.items():
        children.setdefault(ppid, []).append(pid)
    pids = [root]
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            pids.append(child)
            frontier.append(child)
    return pids


def process_tree_rss_mb(root: "int | None" = None) -> float:
    """Current summed RSS of the process tree, in MiB."""
    return sum(_vm_rss_kb(pid) for pid in process_tree_pids(root)) / 1024.0


class PeakRssSampler:
    """Track the peak process-tree RSS over a ``with`` block.

    Descendants are re-discovered every sample, so workers spawned
    mid-phase are counted from their next poll onwards.

    >>> with PeakRssSampler() as rss:
    ...     run_workload()
    >>> rss.peak_mb
    812.4
    """

    def __init__(self, interval_s: float = 0.05) -> None:
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        while True:
            self.peak_mb = max(self.peak_mb, process_tree_rss_mb())
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "PeakRssSampler":
        self.peak_mb = process_tree_rss_mb()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-rss-sampler", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.peak_mb = max(self.peak_mb, process_tree_rss_mb())
