"""Repo-specific lint checkers.

Each checker encodes one of the repo's correctness conventions; see the
module docstrings for the precise rules.  :func:`all_checkers` is the
registry the CLI and :func:`repro.audit.linter.run_lint` use.
"""

from __future__ import annotations

from repro.audit.checks.checkpoint import CheckpointContractChecker
from repro.audit.checks.coverage import CoverageChecker
from repro.audit.checks.exceptions import ExceptionHygieneChecker
from repro.audit.checks.floatsum import FloatAccumulationChecker
from repro.audit.checks.rng import RngDisciplineChecker
from repro.audit.checks.sharedmem import SharedMemoryChecker
from repro.audit.checks.spawn import SpawnSafetyChecker

__all__ = [
    "CheckpointContractChecker",
    "CoverageChecker",
    "ExceptionHygieneChecker",
    "FloatAccumulationChecker",
    "RngDisciplineChecker",
    "SharedMemoryChecker",
    "SpawnSafetyChecker",
    "all_checkers",
]


def all_checkers():
    """One fresh instance of every shipped checker, in report order."""
    return (
        CoverageChecker(),
        RngDisciplineChecker(),
        SpawnSafetyChecker(),
        SharedMemoryChecker(),
        FloatAccumulationChecker(),
        ExceptionHygieneChecker(),
        CheckpointContractChecker(),
    )
