"""Testcase catalog: the paper's Table 2 domains and Table 3 industry parts.

Table 2 (from Tan [12]) gives iso-performance FPGA:ASIC ratios per domain:

=========  =====  ========  ======
metric     DNN    ImgProc   Crypto
=========  =====  ========  ======
area       4.00   7.42      1.00
power      3.00   1.25      1.00
=========  =====  ========  ======

Tan's report normalises away absolute sizes, so each domain here also
carries a calibrated absolute ASIC baseline (area, power, node) that sets
the scale of the experiments; the ratios above are applied to derive the
iso-performance FPGA.  The baselines are edge/embedded accelerator class
parts at 10 nm (the paper's stated node), chosen so the reproduced
crossovers land near the published ones (``greenfpga run calibration``
prints each crossover next to the paper's).

Table 3 industry parts are encoded verbatim (area, TDP, node).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.asic import AsicDevice
from repro.devices.fpga import FpgaDevice
from repro.errors import UnknownEntityError, require_positive


@dataclass(frozen=True)
class DomainSpec:
    """One application domain with iso-performance FPGA:ASIC ratios.

    Attributes:
        name: Domain key (``"dnn"``, ``"imgproc"``, ``"crypto"``).
        area_ratio: FPGA area / ASIC area at iso-performance (Table 2).
        power_ratio: FPGA power / ASIC power at iso-performance (Table 2).
        asic_area_mm2: Calibrated absolute ASIC die area.
        asic_power_w: Calibrated absolute ASIC active power.
        node_name: Technology node for both implementations.
        description: Human-readable label.
    """

    name: str
    area_ratio: float
    power_ratio: float
    asic_area_mm2: float
    asic_power_w: float
    node_name: str = "10nm"
    description: str = ""

    def __post_init__(self) -> None:
        require_positive(self.area_ratio, "area_ratio")
        require_positive(self.power_ratio, "power_ratio")
        require_positive(self.asic_area_mm2, "asic_area_mm2")
        require_positive(self.asic_power_w, "asic_power_w")

    def asic_device(self) -> AsicDevice:
        """The domain's ASIC implementation."""
        return AsicDevice(
            name=f"{self.name}-asic",
            area_mm2=self.asic_area_mm2,
            node_name=self.node_name,
            peak_power_w=self.asic_power_w,
        )

    def fpga_device(self) -> FpgaDevice:
        """The iso-performance FPGA implementation (Table 2 ratios)."""
        return FpgaDevice(
            name=f"{self.name}-fpga",
            area_mm2=self.asic_area_mm2 * self.area_ratio,
            node_name=self.node_name,
            peak_power_w=self.asic_power_w * self.power_ratio,
        )


_DOMAINS: tuple[DomainSpec, ...] = (
    DomainSpec(
        name="dnn",
        area_ratio=4.0,
        power_ratio=3.0,
        asic_area_mm2=120.0,
        asic_power_w=3.0,
        description="deep neural network inference",
    ),
    DomainSpec(
        name="imgproc",
        area_ratio=7.42,
        power_ratio=1.25,
        asic_area_mm2=100.0,
        asic_power_w=25.0,
        description="image processing pipeline",
    ),
    DomainSpec(
        name="crypto",
        area_ratio=1.0,
        power_ratio=1.0,
        asic_area_mm2=100.0,
        asic_power_w=3.0,
        description="cryptographic engine",
    ),
)

_DOMAIN_INDEX: dict[str, DomainSpec] = {domain.name: domain for domain in _DOMAINS}

#: Domain names in paper order.
DOMAIN_NAMES: tuple[str, ...] = tuple(domain.name for domain in _DOMAINS)


def get_domain(name: str) -> DomainSpec:
    """Look up a Table 2 domain by name."""
    domain = _DOMAIN_INDEX.get(name.strip().lower())
    if domain is None:
        raise UnknownEntityError("domain", name, list(DOMAIN_NAMES))
    return domain


#: Table 3 industry ASICs (Moffett Antoum-like, Google TPU-like).
INDUSTRY_ASICS: dict[str, AsicDevice] = {
    "industry_asic1": AsicDevice(
        name="IndustryASIC1",
        area_mm2=340.0,
        node_name="12nm",
        peak_power_w=70.0,
    ),
    "industry_asic2": AsicDevice(
        name="IndustryASIC2",
        area_mm2=600.0,
        node_name="7nm",
        peak_power_w=192.0,
    ),
}

#: Table 3 industry FPGAs (Intel Agilex 7-like, Stratix 10-like).
INDUSTRY_FPGAS: dict[str, FpgaDevice] = {
    "industry_fpga1": FpgaDevice(
        name="IndustryFPGA1",
        area_mm2=380.0,
        node_name="14nm",
        peak_power_w=160.0,
    ),
    "industry_fpga2": FpgaDevice(
        name="IndustryFPGA2",
        area_mm2=550.0,
        node_name="10nm",
        peak_power_w=220.0,
    ),
}


def list_industry_devices() -> list[str]:
    """Names of all Table 3 industry testcases."""
    return sorted(INDUSTRY_ASICS) + sorted(INDUSTRY_FPGAS)


def get_industry_device(name: str) -> "AsicDevice | FpgaDevice":
    """Look up a Table 3 industry testcase by key."""
    key = name.strip().lower()
    if key in INDUSTRY_ASICS:
        return INDUSTRY_ASICS[key]
    if key in INDUSTRY_FPGAS:
        return INDUSTRY_FPGAS[key]
    raise UnknownEntityError("industry device", name, list_industry_devices())


#: Extension: iso-performance GPU:ASIC ratios per domain.  GPUs are
#: software-programmable but burn the most power of the three platforms
#: (the paper's stated reason for excluding them from its comparison);
#: crypto bit-twiddling maps to them especially poorly.
GPU_RATIOS: dict[str, tuple[float, float]] = {
    "dnn": (6.0, 4.0),       # (area ratio, power ratio) vs the domain ASIC
    "imgproc": (8.0, 3.0),
    "crypto": (8.0, 6.0),
}


def gpu_device_for(domain: "DomainSpec | str") -> "GpuDevice":
    """Iso-performance commodity GPU for a Table 2 domain (extension)."""
    from repro.devices.gpu import GpuDevice

    spec = domain if isinstance(domain, DomainSpec) else get_domain(domain)
    area_ratio, power_ratio = GPU_RATIOS[spec.name]
    return GpuDevice(
        name=f"{spec.name}-gpu",
        area_mm2=spec.asic_area_mm2 * area_ratio,
        node_name=spec.node_name,
        peak_power_w=spec.asic_power_w * power_ratio,
    )
