"""One-at-a-time (tornado) sensitivity analysis.

For each Table 1 knob, evaluate the FPGA:ASIC ratio at the knob's low and
high bound with everything else at baseline.  The resulting spans, sorted
by width, form the classic tornado chart and rank which assumptions drive
the sustainability verdict.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.analysis.montecarlo import ParameterDistribution
from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.engine import EvaluationEngine, resolve_engine


@dataclass(frozen=True)
class SensitivityEntry:
    """Ratio span induced by one knob."""

    name: str
    low_value: float
    high_value: float
    ratio_at_low: float
    ratio_at_high: float

    @property
    def span(self) -> float:
        """Absolute ratio span (tornado bar width)."""
        return abs(self.ratio_at_high - self.ratio_at_low)

    @property
    def flips_winner(self) -> bool:
        """True when the knob alone can change which platform wins."""
        return (self.ratio_at_low - 1.0) * (self.ratio_at_high - 1.0) < 0.0


@dataclass(frozen=True)
class SensitivityResult:
    """All knobs' spans, plus the baseline ratio."""

    baseline_ratio: float
    entries: tuple[SensitivityEntry, ...]

    def sorted_by_span(self) -> list[SensitivityEntry]:
        """Entries from widest to narrowest span (tornado order)."""
        return sorted(self.entries, key=lambda e: e.span, reverse=True)

    def rows(self) -> list[dict[str, float | str | bool]]:
        """Flat rows for reporting."""
        return [
            {
                "parameter": e.name,
                "low": e.low_value,
                "high": e.high_value,
                "ratio_at_low": e.ratio_at_low,
                "ratio_at_high": e.ratio_at_high,
                "span": e.span,
                "flips_winner": e.flips_winner,
            }
            for e in self.sorted_by_span()
        ]


def tornado(
    comparator: PlatformComparator,
    scenario: Scenario,
    distributions: Sequence[ParameterDistribution],
    engine: EvaluationEngine | None = None,
) -> SensitivityResult:
    """One-at-a-time sensitivity of the ratio to each knob's range.

    The baseline and every knob's low/high endpoint are assessed as one
    array-land batch through ``engine``
    (:meth:`~repro.engine.EvaluationEngine.evaluate_pairs_batch`):
    endpoints become parameter-space rows evaluated by the vector
    kernels — no per-endpoint ``ComparisonResult`` objects — and cached
    in the result store under extraction-mode row digests, so a
    repeated tornado over the same knobs and scenario is served from
    warmth.  Ratios agree with the scalar object path to
    ``rtol <= 1e-12``.
    """
    pairs: list[tuple[PlatformComparator, Scenario]] = [(comparator, scenario)]
    for dist in distributions:
        pairs.append((dist.apply(comparator, dist.low), scenario))
        pairs.append((dist.apply(comparator, dist.high), scenario))
    batch = resolve_engine(engine).evaluate_pairs_batch(pairs)
    ratios = batch.ratios
    baseline = float(ratios[0])
    entries = []
    for index, dist in enumerate(distributions):
        entries.append(
            SensitivityEntry(
                name=dist.name,
                low_value=dist.low,
                high_value=dist.high,
                ratio_at_low=float(ratios[1 + 2 * index]),
                ratio_at_high=float(ratios[2 + 2 * index]),
            )
        )
    return SensitivityResult(baseline_ratio=baseline, entries=tuple(entries))
