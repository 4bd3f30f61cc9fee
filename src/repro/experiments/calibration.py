"""Calibration harness: paper-vs-measured for every headline claim.

Collects the quantitative claims of the paper's Section 4 into one table
(printed by ``greenfpga run calibration``) and checks each against the
calibrated model.  A claim "holds" when the measured value matches the published
one in kind (same winner / crossover exists) and lies within a factor-3
band — the paper itself stresses relative, not absolute, accuracy
(Section 5), and its own Fig. 5/Fig. 6 DNN claims are mutually
inconsistent at the shared baseline (5 apps, 2 years, 1e6 units: Fig. 5's
F2A near 1.6 years says the ASIC wins there, Fig. 6's F2A at 2e6 units
says the FPGA does).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.core.suite import ModelSuite
from repro.experiments import (
    fig2_motivation,
    fig4_num_apps,
    fig5_lifetime,
    fig6_volume,
    fig10_industry_fpga,
    fig11_industry_asic,
)
from repro.experiments.base import ExperimentReport

#: Acceptance band for quantitative crossovers (multiplicative).
TOLERANCE_FACTOR = 3.0


@dataclass(frozen=True)
class Claim:
    """One checked paper claim."""

    artifact: str
    claim: str
    paper_value: str
    measured_value: str
    holds: bool

    def as_row(self) -> dict[str, object]:
        """Row form for reporting."""
        return {
            "artifact": self.artifact,
            "claim": self.claim,
            "paper": self.paper_value,
            "measured": self.measured_value,
            "holds": self.holds,
        }


def _within(measured: float, paper: float, factor: float = TOLERANCE_FACTOR) -> bool:
    return paper / factor <= measured <= paper * factor


def evaluate_claims(suite: ModelSuite | None = None) -> list[Claim]:
    """Evaluate every headline claim; returns one :class:`Claim` each."""
    claims: list[Claim] = []

    # Fig. 2: FPGA ~25% lower over ten applications.
    one, ten = fig2_motivation.ratios(suite)
    claims.append(
        Claim(
            "fig2",
            "FPGA beats ASIC by ~25% over 10 DNN applications",
            "ratio 0.75",
            f"ratio {ten:.2f}",
            ten < 1.0 and _within(1.0 - ten, 0.25),
        )
    )
    claims.append(
        Claim(
            "fig2",
            "FPGA initially worse for a single application",
            "ratio > 1",
            f"ratio {one:.2f}",
            one > 1.0,
        )
    )

    # Fig. 4 crossovers.
    for domain, paper_apps in fig4_num_apps.PAPER_A2F.items():
        _, crossings = fig4_num_apps.domain_sweep(domain, suite)
        a2f = next((c for c in crossings if c.kind == "A2F"), None)
        if domain == "crypto":
            holds = a2f is not None and a2f.x <= 2.0
        else:
            holds = a2f is not None and _within(a2f.x, paper_apps)
        claims.append(
            Claim(
                "fig4",
                f"{domain}: A2F crossover in applications",
                f"{paper_apps:g} apps",
                f"{a2f.x:.2f} apps" if a2f else "none",
                holds,
            )
        )

    # Fig. 5 outcomes.
    for domain, paper_outcome in fig5_lifetime.PAPER_OUTCOME.items():
        result, crossings = fig5_lifetime.domain_sweep(domain, suite)
        f2a = next((c for c in crossings if c.kind == "F2A"), None)
        if domain == "dnn":
            holds = f2a is not None and _within(f2a.x, 1.6)
            measured = f"F2A at {f2a.x:.2f} y" if f2a else "none"
        elif domain == "crypto":
            holds = all(r < 1.0 for r in result.ratios)
            measured = "FPGA always" if holds else "not always"
        else:
            holds = all(r > 1.0 for r in result.ratios)
            measured = "ASIC always" if holds else "not always"
        claims.append(
            Claim("fig5", f"{domain}: lifetime-sweep outcome", paper_outcome,
                  measured, holds)
        )

    # Fig. 6 volume crossovers.
    for domain, paper_units in fig6_volume.PAPER_F2A.items():
        result, crossings = fig6_volume.domain_sweep(domain, suite)
        f2a = next((c for c in crossings if c.kind == "F2A"), None)
        if paper_units is None:
            holds = all(r < 1.0 for r in result.ratios)
            claims.append(
                Claim("fig6", f"{domain}: FPGA sustainable at any volume",
                      "no F2A", "no F2A" if holds else "F2A found", holds)
            )
        else:
            holds = f2a is not None and _within(f2a.x, paper_units)
            claims.append(
                Claim(
                    "fig6",
                    f"{domain}: F2A crossover in units",
                    f"{paper_units:.3g}",
                    f"{f2a.x:.3g}" if f2a else "none",
                    holds,
                )
            )

    # Figs. 10/11 industry breakdown structure.
    for artifact, footprints in (
        ("fig10", fig10_industry_fpga.assess_all(suite)),
        ("fig11", fig11_industry_asic.assess_all(suite)),
    ):
        for key, fp in footprints.items():
            structure_ok = (
                fp.operational > fp.manufacturing > fp.design
                and abs(fp.eol) < 0.05 * fp.total
                and fp.appdev < 0.02 * fp.total
            )
            claims.append(
                Claim(
                    artifact,
                    f"{key}: op > mfg > design; EOL and app-dev tiny",
                    "ordering holds",
                    "ordering holds" if structure_ok else "ordering differs",
                    structure_ok,
                )
            )

    # Abstract scenario (iii): key headline thresholds.
    comparator = PlatformComparator.for_domain("dnn", suite)
    short_life = comparator.ratio(
        Scenario(num_apps=5, app_lifetime_years=1.0, volume=1_000_000)
    )
    claims.append(
        Claim(
            "abstract",
            "DNN FPGA greener for short application lifetimes (1 y)",
            "ratio < 1",
            f"ratio {short_life:.2f}",
            short_life < 1.0,
        )
    )
    many_apps = comparator.ratio(
        Scenario(num_apps=8, app_lifetime_years=2.0, volume=1_000_000)
    )
    claims.append(
        Claim(
            "abstract",
            "DNN FPGA greener when used in over ~6 applications",
            "ratio < 1",
            f"ratio {many_apps:.2f}",
            many_apps < 1.0,
        )
    )
    return claims


def run(suite: ModelSuite | None = None) -> ExperimentReport:
    """Evaluate and render the full claim table."""
    claims = evaluate_claims(suite)
    report = ExperimentReport(
        experiment_id="calibration",
        title="Paper-vs-measured claim verification",
        description=(
            "Every quantitative claim of Section 4 evaluated against the "
            f"calibrated model (acceptance band: factor {TOLERANCE_FACTOR:g} "
            "on crossover locations, exact on winners/orderings)."
        ),
    )
    report.add_table("claims", [c.as_row() for c in claims])
    n_hold = sum(c.holds for c in claims)
    report.add_note(f"{n_hold}/{len(claims)} claims hold")
    return report
