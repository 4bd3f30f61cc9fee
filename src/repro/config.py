"""Table 1 parameter set: validation, JSON round-trip, suite building.

Every knob of the paper's Table 1 (plus the calibrated extensions this
reproduction adds where the paper gives no value) is gathered in
:class:`Parameters`, with the published ranges attached so that values
can be validated against the table, perturbed for sensitivity studies,
and saved/loaded as JSON experiment configs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from repro.appdev.model import AppDevModel, DevelopmentEffort
from repro.core.suite import ModelSuite
from repro.design.model import DesignModel, DesignTeam
from repro.eol.model import EolModel
from repro.errors import ConfigError, ParameterError
from repro.manufacturing.act import FabProfile, ManufacturingModel
from repro.operation.energy import OperatingProfile
from repro.operation.model import OperationModel
from repro.packaging.monolithic import MonolithicPackagingModel


@dataclass(frozen=True)
class ParameterRange:
    """Published range of one Table 1 parameter."""

    low: float
    high: float
    unit: str
    source: str

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the published range."""
        return self.low <= value <= self.high


#: The paper's Table 1, parameter name -> published range and source.
TABLE1_RANGES: dict[str, ParameterRange] = {
    "recycled_material_fraction": ParameterRange(0.0, 1.0, "fraction", "[27]/user-defined"),
    "eol_recycled_fraction": ParameterRange(0.0, 1.0, "fraction", "[29]"),
    "recycle_credit_mtco2e_per_ton": ParameterRange(7.65, 29.83, "MTCO2E/ton", "[29]"),
    "discard_mtco2e_per_ton": ParameterRange(0.03, 2.08, "MTCO2E/ton", "[29]"),
    "frontend_months": ParameterRange(1.5, 2.5, "months", "user-defined"),
    "backend_months": ParameterRange(0.5, 1.5, "months", "user-defined"),
    "design_energy_gwh": ParameterRange(2.0, 7.3, "GWh", "[23-25]"),
    "design_carbon_intensity_g_per_kwh": ParameterRange(30.0, 700.0, "g CO2/kWh", "[4, 22]"),
    "design_house_employees": ParameterRange(20_000.0, 160_000.0, "employees", "[23-25]"),
    "project_years": ParameterRange(1.0, 3.0, "years", "[31]"),
}


@dataclass(frozen=True)
class Parameters:
    """All scenario-independent model knobs, JSON-serialisable.

    Field defaults are the calibrated values behind every experiment;
    ``greenfpga run calibration`` checks them against the paper's
    claims.  Fields covered by the paper's Table 1 are validated
    against :data:`TABLE1_RANGES` by :meth:`validate`.
    """

    # Manufacturing (Section 3.2(2), Eq. 5).
    fab_energy_source: str = "taiwan"
    recycled_material_fraction: float = 0.0
    yield_model: str = "murphy"
    fab_gas_abatement: float = 0.0

    # End of life (Section 3.2(4), Eq. 6).
    eol_recycled_fraction: float = 0.30
    eol_material: str = "mixed_electronics"

    # Design (Section 3.2(1), Eq. 4).
    design_report: str = "design_house_b"
    design_energy_source: str | float | None = None
    design_gate_scaling_beta: float = 0.35
    design_overhead_factor: float = 1.35
    project_years: float = 3.0
    design_engineers: float = 250.0

    # Operation (Section 3.3(1)).
    use_energy_source: str | float = "green_datacenter"
    duty_cycle: float = 0.30
    idle_fraction_of_peak: float = 0.10
    pue: float = 1.2

    # Application development (Section 3.3(2), Eq. 7).
    frontend_months: float = 2.0
    backend_months: float = 1.0
    config_hours_per_unit: float = 0.05
    asic_software_months: float = 0.0
    devfarm_power_w: float = 12_000.0

    def validate(self) -> None:
        """Check every Table 1-covered field against its published range.

        Raises:
            ParameterError: naming the first out-of-range field.
        """
        for name in ("recycled_material_fraction", "eol_recycled_fraction",
                     "frontend_months", "backend_months", "project_years"):
            value = float(getattr(self, name))
            rng = TABLE1_RANGES[name]
            if not rng.contains(value):
                raise ParameterError(
                    f"{name}={value} outside Table 1 range "
                    f"[{rng.low}, {rng.high}] {rng.unit} ({rng.source})"
                )

    def build_suite(self) -> ModelSuite:
        """Materialise a :class:`ModelSuite` from these parameters."""
        manufacturing = ManufacturingModel(
            fab=FabProfile(
                energy_source=self.fab_energy_source,
                gas_abatement=self.fab_gas_abatement,
            ),
            yield_model=self.yield_model,
            recycled_fraction=self.recycled_material_fraction,
        )
        design = DesignModel(
            report=self.design_report,
            energy_source=self.design_energy_source,
            gate_scaling_beta=self.design_gate_scaling_beta,
            overhead_factor=self.design_overhead_factor,
        )
        eol = EolModel(
            recycled_fraction=self.eol_recycled_fraction,
            material=self.eol_material,
        )
        operation = OperationModel(
            energy_source=self.use_energy_source,
            profile=OperatingProfile(
                duty_cycle=self.duty_cycle,
                idle_fraction_of_peak=self.idle_fraction_of_peak,
                pue=self.pue,
            ),
        )
        appdev = AppDevModel(farm_power_w=self.devfarm_power_w)
        team = DesignTeam(
            engineers=self.design_engineers, project_years=self.project_years
        )
        return ModelSuite(
            manufacturing=manufacturing,
            packaging=MonolithicPackagingModel(),
            design=design,
            eol=eol,
            operation=operation,
            appdev=appdev,
            fpga_team=team,
            asic_team=team,
            fpga_effort=DevelopmentEffort(
                frontend_months=self.frontend_months,
                backend_months=self.backend_months,
                config_hours_per_unit=self.config_hours_per_unit,
            ),
            asic_effort=DevelopmentEffort.for_asic(self.asic_software_months),
        )

    def with_overrides(self, **kwargs: object) -> "Parameters":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)

    def to_json(self, path: "str | Path | None" = None) -> str:
        """Serialise to a JSON string (and optionally write ``path``)."""
        text = json.dumps(asdict(self), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, source: "str | Path") -> "Parameters":
        """Load from a JSON string or file path.

        Raises:
            ConfigError: on malformed JSON or unknown fields.
        """
        text = source
        try:
            path = Path(str(source))
            is_file = path.exists()
        except OSError:
            is_file = False
        if is_file:
            text = path.read_text()
        try:
            raw = json.loads(str(text))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed parameters JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("parameters JSON must be an object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown parameter(s): {', '.join(sorted(unknown))}")
        return cls(**raw)


def default_parameters() -> Parameters:
    """The calibrated defaults used throughout the experiments."""
    return Parameters()
