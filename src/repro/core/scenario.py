"""Deployment scenario definition.

A scenario fixes the three experiment axes of the paper's Section 4:
number of applications ``N_app``, per-application lifetime ``T_i``, and
per-application deployment volume ``N_vol`` — plus the optional
evaluation-horizon override used by Fig. 9 and an optional application
size (gates) for ``N_FPGA`` sizing.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from repro.errors import ParameterError, require_positive


@dataclass(frozen=True)
class Scenario:
    """One FPGA-vs-ASIC deployment scenario.

    Attributes:
        num_apps: ``N_app`` — applications run over the study.
        app_lifetime_years: ``T_i`` — either one lifetime shared by all
            applications or a per-application sequence of length
            ``num_apps``.
        volume: ``N_vol`` — deployed units per application.
        evaluation_years: Study horizon.  Defaults to the sum of
            application lifetimes; Fig. 9 sets it explicitly to extend
            the study past the chip lifetime.
        app_size_mgates: Application logic size for ``N_FPGA`` sizing;
            ``None`` sizes the application to the device (N_FPGA = 1).
        enforce_chip_lifetime: When True, FPGAs worn out before the study
            horizon are repurchased (embodied CFP repeats per chip
            generation — the paper's experiment E / Fig. 9).  The paper's
            baseline experiments (Figs. 4-8) assume the chip survives the
            whole study, so this defaults to False.
    """

    num_apps: int = 1
    app_lifetime_years: float | Sequence[float] = 2.0
    volume: int = 1_000_000
    evaluation_years: float | None = None
    app_size_mgates: float | None = None
    enforce_chip_lifetime: bool = False
    _lifetimes: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_apps < 1:
            raise ParameterError(f"num_apps must be >= 1, got {self.num_apps}")
        if not 1 <= self.volume < math.inf:  # also rejects NaN
            raise ParameterError(
                f"volume must be finite and >= 1, got {self.volume}"
            )
        if isinstance(self.app_lifetime_years, (int, float)):
            lifetimes = (float(self.app_lifetime_years),) * self.num_apps
        else:
            lifetimes = tuple(float(t) for t in self.app_lifetime_years)
            if len(lifetimes) != self.num_apps:
                raise ParameterError(
                    f"got {len(lifetimes)} lifetimes for {self.num_apps} applications"
                )
        for lifetime in lifetimes:
            require_positive(lifetime, "application lifetime")
        if self.evaluation_years is not None:
            require_positive(self.evaluation_years, "evaluation_years")
        if self.app_size_mgates is not None:
            require_positive(self.app_size_mgates, "app_size_mgates")
        object.__setattr__(self, "_lifetimes", lifetimes)

    @property
    def lifetimes(self) -> tuple[float, ...]:
        """Per-application lifetimes, length ``num_apps``."""
        return self._lifetimes

    @property
    def total_application_years(self) -> float:
        """Sum of application lifetimes (applications run sequentially)."""
        return sum(self._lifetimes)

    @property
    def horizon_years(self) -> float:
        """Study horizon: explicit override or total application years."""
        if self.evaluation_years is not None:
            return self.evaluation_years
        return self.total_application_years

    def with_num_apps(self, num_apps: int) -> "Scenario":
        """Copy with a different ``N_app`` (scalar lifetime re-expanded)."""
        scalar = self._lifetimes[0]
        if any(t != scalar for t in self._lifetimes):
            raise ParameterError(
                "with_num_apps requires a uniform app lifetime; rebuild the "
                "scenario explicitly for heterogeneous lifetimes"
            )
        return replace(self, num_apps=num_apps, app_lifetime_years=scalar)

    def with_lifetime(self, app_lifetime_years: float) -> "Scenario":
        """Copy with a different uniform application lifetime."""
        return replace(self, app_lifetime_years=app_lifetime_years)

    def with_volume(self, volume: int) -> "Scenario":
        """Copy with a different per-application volume."""
        return replace(self, volume=volume)
