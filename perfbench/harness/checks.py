"""Output checks, run outside the timed phases.

Each check returns a list of problems; an empty list means the output
is correct.  A workload counts every checked operation with a problem
as failed.
"""

from __future__ import annotations

import numpy as np

#: Tolerance between the fused tier and the NumPy chain tier (the
#: repo's parity contract).
RTOL = 1e-12

_EXACT_FIELDS = ("n_samples", "n_finite", "fpga_wins", "quantile_exact",
                 "quantile_k")
_CLOSE_FIELDS = ("ratio_mean", "ratio_var", "ratio_min", "ratio_max")


def identical(a, b) -> bool:
    """Same dtype, shape and bytes: bit-identity, NaNs included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


def study_close(got, ref, rtol: float = RTOL) -> list[str]:
    """A streamed study against the chain tier: exact counts, close values."""
    problems = [
        f"{name}: {getattr(got, name)!r} != {getattr(ref, name)!r}"
        for name in _EXACT_FIELDS
        if getattr(got, name) != getattr(ref, name)
    ]
    for name in _CLOSE_FIELDS:
        if not np.allclose(getattr(got, name), getattr(ref, name),
                           rtol=rtol, atol=0.0):
            problems.append(f"{name} differs beyond rtol={rtol}")
    a, b = got.quantile_sample, ref.quantile_sample
    if a.shape != b.shape or not np.allclose(a, b, rtol=rtol, atol=0.0):
        problems.append(f"quantile sample differs beyond rtol={rtol}")
    return problems


def study_identical(got, ref) -> list[str]:
    """A streamed study against another run of it: every bit equal."""
    return [
        f"{name} is not bit-identical"
        for name in _EXACT_FIELDS + _CLOSE_FIELDS + ("quantile_sample",)
        if not identical(getattr(got, name), getattr(ref, name))
    ]


def panel_identical(got, ref) -> list[str]:
    """A heatmap panel against a store-less engine's panel."""
    return [] if identical(got.ratios, ref.ratios) else [
        "panel ratios are not bit-identical"
    ]


def reply_identical(got, ref) -> list[str]:
    """A served reply against locally computed ``(ratios, winners,
    fpga_totals, asic_totals)`` columns."""
    names = ("ratios", "winners", "fpga_totals", "asic_totals")
    return [
        f"{name} is not bit-identical"
        for name, column in zip(names, ref)
        if not identical(getattr(got, name), column)
    ]
