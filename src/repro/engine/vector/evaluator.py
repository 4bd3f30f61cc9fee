"""Vectorized batch evaluation of FPGA-vs-ASIC comparisons.

The scalar path rebuilds dataclass pyramids per scenario; this module
evaluates whole batches by running the one vector lifecycle model
(:mod:`repro.engine.vector.model`) on its eager NumPy interpreter, in
two regimes:

* **same-comparator batches** (heatmap grids, sweeps): the per-chip
  constants depend only on the device pair and suite, so they are
  computed *once* through the scalar sub-models
  (:func:`comparator_constants`, guaranteeing bit-parity) and only the
  scenario composition runs on the model;
* **multi-comparator batches** (Monte-Carlo draws, DSE grids): each row
  carries its own suite, so the model's side-constant extraction
  computes the per-chip constants from the parameter columns too.
  Parity with the scalar path is within ``rtol=1e-12`` (NumPy
  transcendentals may differ from libm by an ulp); everything else is
  exact.

The composition mirrors the scalar models' operation order — including
the per-application left-folds via :class:`FoldPlan` — so the
same-comparator path reproduces the scalar results bit-for-bit, which is
what lets the engine's object path pack kernel results into its result
store for scalar callers.  :meth:`VectorizedEvaluator.reduce_batch`
runs the same model on the fused tier's deferred interpreter instead.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.asic_model import AsicAssessment, AsicLifecycleModel
from repro.core.comparison import ComparisonResult, PlatformComparator
from repro.core.fpga_model import FpgaAssessment, FpgaLifecycleModel
from repro.core.lifecycle import CarbonFootprint
from repro.core.scenario import Scenario
from repro.data.grid import carbon_intensity_kg_per_kwh
from repro.engine.vector import model
from repro.engine.vector.columns import ScenarioBatch
from repro.engine.vector.kernels import NumpyOps, ratio_kernel, winner_kernel
from repro.engine.vector.model import EAGER, SideConstants, chip_generations
from repro.engine.vector.params import ParameterBatch
from repro.errors import ParameterError
from repro.units import watts_to_kw


@functools.lru_cache(maxsize=256)
def comparator_constants(
    comparator: PlatformComparator,
) -> tuple[SideConstants, SideConstants]:
    """Exact per-chip constants for one comparator, via the scalar models.

    Every number here is produced by the same code the scalar path runs
    (`per_chip_embodied`, `project_kg`, `per_chip_year_kg`, ...), so the
    vectorized composition built on top is bit-identical to
    :meth:`PlatformComparator.compare`.
    """
    suite = comparator.suite
    fpga_device = comparator.fpga_device
    asic_device = comparator.asic_device

    appdev_intensity = carbon_intensity_kg_per_kwh(suite.appdev.energy_source)
    farm_kw = watts_to_kw(suite.appdev.farm_power_w)
    config_kw = watts_to_kw(suite.appdev.config_power_w)

    fpga_per_chip = FpgaLifecycleModel(device=fpga_device, suite=suite).per_chip_embodied()
    silicon_gates = (
        fpga_device.area_mm2 * fpga_device.node.gate_density_mgates_per_mm2
    )
    fpga_dev_hours = suite.fpga_effort.per_application_hours()
    fpga_side = SideConstants(
        design_kg=suite.design.project_kg(silicon_gates, suite.fpga_team),
        mfg_per_chip_kg=fpga_per_chip.manufacturing,
        pkg_per_chip_kg=fpga_per_chip.packaging,
        eol_per_chip_kg=fpga_per_chip.eol,
        per_chip_embodied_kg=fpga_per_chip.total,
        op_per_chip_year_kg=suite.operation.per_chip_year_kg(fpga_device.peak_power_w),
        appdev_dev_kg=farm_kw * fpga_dev_hours * appdev_intensity,
        appdev_config_kw=config_kw,
        appdev_config_hours_per_unit=suite.fpga_effort.config_hours_per_unit,
        appdev_intensity=appdev_intensity,
        chip_lifetime_years=fpga_device.chip_lifetime_years,
        capacity_mgates=fpga_device.logic_capacity_mgates,
    )

    asic_per_chip = AsicLifecycleModel(device=asic_device, suite=suite).per_chip_embodied()
    asic_dev_hours = suite.asic_effort.per_application_hours()
    asic_side = SideConstants(
        design_kg=suite.design.project_kg(
            asic_device.logic_gates_mgates, suite.asic_team
        ),
        mfg_per_chip_kg=asic_per_chip.manufacturing,
        pkg_per_chip_kg=asic_per_chip.packaging,
        eol_per_chip_kg=asic_per_chip.eol,
        per_chip_embodied_kg=asic_per_chip.total,
        op_per_chip_year_kg=suite.operation.per_chip_year_kg(asic_device.peak_power_w),
        appdev_dev_kg=farm_kw * asic_dev_hours * appdev_intensity,
        appdev_config_kw=config_kw,
        appdev_config_hours_per_unit=suite.asic_effort.config_hours_per_unit,
        appdev_intensity=appdev_intensity,
        chip_lifetime_years=asic_device.chip_lifetime_years,
        capacity_mgates=None,
    )
    return fpga_side, asic_side


# ----------------------------------------------------------------------
# Batch results
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BatchResult:
    """Array-valued outcome of one evaluation batch.

    Mirrors a tuple of :class:`ComparisonResult` as struct-of-arrays:
    ``ratios[i]``, ``winners[i]``, totals and per-component breakdowns
    all refer to row ``i`` of the input batch.  Component dicts are keyed
    by :attr:`CarbonFootprint.COMPONENTS`.
    """

    ratios: np.ndarray
    winners: np.ndarray
    fpga_totals: np.ndarray
    asic_totals: np.ndarray
    fpga_components: dict[str, np.ndarray]
    asic_components: dict[str, np.ndarray]
    fpga_per_chip_embodied_kg: np.ndarray
    asic_per_chip_embodied_kg: np.ndarray
    n_fpga: np.ndarray
    fpga_generations: np.ndarray
    #: Per-application ASIC chip generations, shaped like the batch's
    #: ``lifetime`` column: ``(n,)``, or ``(n, w)`` with application
    #: ``j`` in column ``min(j, w - 1)``.
    asic_generations: np.ndarray
    num_apps: np.ndarray
    #: Per-application ASIC component arrays, shaped like
    #: :attr:`asic_generations`, for materialising
    #: ``AsicAssessment.per_application``.
    asic_app_components: dict[str, np.ndarray] = field(repr=False, default_factory=dict)

    @property
    def size(self) -> int:
        """Number of rows in the batch."""
        return int(self.ratios.shape[0])

    def __len__(self) -> int:
        return self.size

    def fpga_footprint(self, index: int) -> CarbonFootprint:
        """Materialise the FPGA footprint of one row."""
        return CarbonFootprint(
            **{k: float(v[index]) for k, v in self.fpga_components.items()}
        )

    def asic_footprint(self, index: int) -> CarbonFootprint:
        """Materialise the ASIC footprint of one row."""
        return CarbonFootprint(
            **{k: float(v[index]) for k, v in self.asic_components.items()}
        )

    def comparison(self, index: int, scenario: Scenario) -> ComparisonResult:
        """Materialise one row as a full :class:`ComparisonResult`.

        Used by the engine fast path to answer object callers; the
        result is indistinguishable from the scalar path's.
        """
        fpga = FpgaAssessment(
            footprint=self.fpga_footprint(index),
            per_chip_embodied_kg=float(self.fpga_per_chip_embodied_kg[index]),
            n_fpga_per_unit=int(self.n_fpga[index]),
            generations=int(self.fpga_generations[index]),
        )
        app_columns = {
            k: np.atleast_1d(v[index])
            for k, v in self.asic_app_components.items()
        }
        width = max((v.shape[0] for v in app_columns.values()), default=1)
        footprints = [
            CarbonFootprint(**{k: float(v[j]) for k, v in app_columns.items()})
            for j in range(width)
        ]
        last = width - 1
        asic = AsicAssessment(
            footprint=self.asic_footprint(index),
            per_chip_embodied_kg=float(self.asic_per_chip_embodied_kg[index]),
            per_application=tuple(
                footprints[min(j, last)] for j in range(int(self.num_apps[index]))
            ),
        )
        return ComparisonResult(scenario=scenario, fpga=fpga, asic=asic)

    def slice_rows(self, start: int, stop: int) -> "BatchResult":
        """Row-range view ``[start, stop)`` of this result (no copy)."""
        rows = slice(start, stop)
        return BatchResult(
            ratios=self.ratios[rows],
            winners=self.winners[rows],
            fpga_totals=self.fpga_totals[rows],
            asic_totals=self.asic_totals[rows],
            fpga_components={k: v[rows] for k, v in self.fpga_components.items()},
            asic_components={k: v[rows] for k, v in self.asic_components.items()},
            fpga_per_chip_embodied_kg=self.fpga_per_chip_embodied_kg[rows],
            asic_per_chip_embodied_kg=self.asic_per_chip_embodied_kg[rows],
            n_fpga=self.n_fpga[rows],
            fpga_generations=self.fpga_generations[rows],
            asic_generations=self.asic_generations[rows],
            num_apps=self.num_apps[rows],
            asic_app_components={
                k: v[rows] for k, v in self.asic_app_components.items()
            },
        )

    @classmethod
    def concat(cls, parts: "Sequence[BatchResult]") -> "BatchResult":
        """Fuse per-chunk results into one (row order = input order).

        The row-wise inverse of :meth:`slice_rows`, used by the engine's
        chunked parameter-batch dispatch (chunks of one batch share its
        lifetime width).
        """
        if not parts:
            raise ParameterError("concat requires at least one BatchResult")
        if len(parts) == 1:
            return parts[0]

        def cat(field_name: str) -> np.ndarray:
            return np.concatenate([getattr(r, field_name) for r in parts])

        def cat_components(field_name: str) -> dict[str, np.ndarray]:
            keys = getattr(parts[0], field_name).keys()
            return {
                k: np.concatenate([getattr(r, field_name)[k] for r in parts])
                for k in keys
            }

        return cls(
            ratios=cat("ratios"),
            winners=cat("winners"),
            fpga_totals=cat("fpga_totals"),
            asic_totals=cat("asic_totals"),
            fpga_components=cat_components("fpga_components"),
            asic_components=cat_components("asic_components"),
            fpga_per_chip_embodied_kg=cat("fpga_per_chip_embodied_kg"),
            asic_per_chip_embodied_kg=cat("asic_per_chip_embodied_kg"),
            n_fpga=cat("n_fpga"),
            fpga_generations=cat("fpga_generations"),
            asic_generations=cat("asic_generations"),
            num_apps=cat("num_apps"),
            asic_app_components=cat_components("asic_app_components"),
        )

    @classmethod
    def from_results(
        cls,
        comparisons: Sequence[ComparisonResult],
        comparators: "Sequence[PlatformComparator] | PlatformComparator",
    ) -> "BatchResult":
        """Columnise scalar results (the ``vectorize=False`` spelling).

        ``comparators`` (one shared or one per row) supplies the ASIC
        chip lifetimes needed to reconstruct :attr:`asic_generations`,
        which :class:`ComparisonResult` does not carry.  The
        per-application columns take the shape
        :meth:`ScenarioBatch.from_scenarios` gives the lifetimes.
        """
        n = len(comparisons)
        components = CarbonFootprint.COMPONENTS
        fpga_components = {k: np.empty(n) for k in components}
        asic_components = {k: np.empty(n) for k in components}
        fpga_totals = np.empty(n)
        asic_totals = np.empty(n)
        ratios = np.empty(n)
        n_fpga = np.empty(n, dtype=np.int64)
        fpga_gen = np.empty(n, dtype=np.int64)
        num_apps = np.empty(n, dtype=np.int64)
        fpga_pc = np.empty(n)
        asic_pc = np.empty(n)
        lifetime = ScenarioBatch.from_scenarios(
            [c.scenario for c in comparisons]
        ).lifetime
        block = lifetime.reshape(n, -1)
        asic_gen = np.empty(block.shape, dtype=np.int64)
        app_components = {k: np.empty(block.shape) for k in components}
        for i, c in enumerate(comparisons):
            for k in components:
                fpga_components[k][i] = getattr(c.fpga.footprint, k)
                asic_components[k][i] = getattr(c.asic.footprint, k)
            fpga_totals[i] = c.fpga.footprint.total
            asic_totals[i] = c.asic.footprint.total
            ratios[i] = c.ratio
            n_fpga[i] = c.fpga.n_fpga_per_unit
            fpga_gen[i] = c.fpga.generations
            num_apps[i] = c.scenario.num_apps
            fpga_pc[i] = c.fpga.per_chip_embodied_kg
            asic_pc[i] = c.asic.per_chip_embodied_kg
            comparator = (
                comparators
                if isinstance(comparators, PlatformComparator)
                else comparators[i]
            )
            chip_life = comparator.asic_device.chip_lifetime_years
            apps = c.asic.per_application
            for j, years in enumerate(block[i].tolist()):
                asic_gen[i, j] = chip_generations(years, chip_life)
                app = apps[min(j, len(apps) - 1)]
                for k in components:
                    app_components[k][i, j] = getattr(app, k)
        shape = lifetime.shape
        return cls(
            ratios=ratios,
            winners=winner_kernel(fpga_totals, asic_totals),
            fpga_totals=fpga_totals,
            asic_totals=asic_totals,
            fpga_components=fpga_components,
            asic_components=asic_components,
            fpga_per_chip_embodied_kg=fpga_pc,
            asic_per_chip_embodied_kg=asic_pc,
            n_fpga=n_fpga,
            fpga_generations=fpga_gen,
            asic_generations=asic_gen.reshape(shape),
            num_apps=num_apps,
            asic_app_components={
                k: v.reshape(shape) for k, v in app_components.items()
            },
        )


def _compose(
    fpga: SideConstants, asic: SideConstants, batch: ScenarioBatch
) -> BatchResult:
    """The model's composition on the eager interpreter, as a BatchResult."""
    n = batch.size
    zeros = np.zeros(n)
    ops = NumpyOps(batch.num_apps, batch.lifetime.ndim)
    life = model.compose(
        ops, fpga, asic, batch.volume, batch.lifetime,
        batch.evaluation_years, batch.app_size_mgates,
        batch.enforce_chip_lifetime, zeros,
    )
    asic_gen = life.asic_generations.astype(np.int64)
    per_app = dict(life.asic_per_app)
    for k in ("design", "appdev"):  # row columns: one value per application
        per_app[k] = np.broadcast_to(ops.app(per_app[k]), asic_gen.shape)
    return BatchResult(
        ratios=ratio_kernel(life.fpga_total, life.asic_total),
        winners=winner_kernel(life.fpga_total, life.asic_total),
        fpga_totals=life.fpga_total,
        asic_totals=life.asic_total,
        fpga_components=life.fpga,
        asic_components=life.asic,
        fpga_per_chip_embodied_kg=zeros + fpga.per_chip_embodied_kg,
        asic_per_chip_embodied_kg=zeros + asic.per_chip_embodied_kg,
        n_fpga=np.broadcast_to(life.n_fpga, (n,)).astype(np.int64),
        fpga_generations=np.broadcast_to(
            life.fpga_generations, (n,)
        ).astype(np.int64),
        asic_generations=asic_gen,
        num_apps=batch.num_apps.copy(),
        asic_app_components=per_app,
    )


class VectorizedEvaluator:
    """Batch evaluation through the NumPy kernels.

    Stateless apart from the memoised per-comparator constants and the
    optional fused kernel's scratch pool; safe to share from one thread
    (the engine owns one and the analysis batch entry points reach it
    through the engine).  Every valid scenario row is in-kernel: horizon
    overrides, chip-lifetime enforcement, application sizing, fractional
    volumes and per-application lifetimes.

    ``kernel_tier`` selects the tier for :meth:`reduce_batch`: ``fused``
    (the single-pass :class:`~repro.engine.vector.fused.FusedKernel`) or
    ``numpy`` (the kernel chain); the default honours the
    ``REPRO_KERNEL`` environment variable, fused when unset.
    """

    def __init__(self, kernel_tier: "str | None" = None) -> None:
        from repro.engine.vector.fused import make_kernel

        self._fused = make_kernel(kernel_tier)

    @property
    def kernel_tier_name(self) -> str:
        """Resolved tier label (``fused-numpy``/``numpy-chain``)."""
        return self._fused.name if self._fused is not None else "numpy-chain"

    def reduce_batch(
        self, params: ParameterBatch, batch: ScenarioBatch
    ) -> "BatchResult | FusedResult":
        """Reduce-only evaluation: fused tier when armed, chain otherwise.

        The streaming chunk workers feed reducers through this method.
        With a fused kernel the return value is the slimmer
        :class:`~repro.engine.vector.fused.FusedResult` (ratios, totals,
        winners, exact win count — everything a
        :class:`~repro.engine.vector.reducers.StreamingReducer`
        consumes); batches the fused tier yields (per-application
        lifetimes, very large application counts) run on the chain.
        """
        if self._fused is not None:
            result = self._fused.evaluate(params, batch)
            if result is not None:
                return result
        return self.evaluate_param_batch(params, batch)

    def evaluate_batch(
        self,
        comparator: PlatformComparator,
        scenarios: "ScenarioBatch | Iterable[Scenario]",
    ) -> BatchResult:
        """Assess one comparator over a scenario batch, vectorised.

        Per-chip constants come from the scalar sub-models (computed once
        per comparator, memoised), so results are bit-identical to
        :meth:`PlatformComparator.compare`.
        """
        batch = (
            scenarios
            if isinstance(scenarios, ScenarioBatch)
            else ScenarioBatch.from_scenarios(tuple(scenarios))
        )
        fpga_side, asic_side = comparator_constants(comparator)
        return _compose(fpga_side, asic_side, batch)

    def evaluate_param_batch(
        self, params: ParameterBatch, batch: ScenarioBatch
    ) -> BatchResult:
        """Assess parameter-space rows against scenario rows, columnar.

        The per-chip constants are computed through the array kernels
        straight from the parameter columns — no comparator objects, no
        per-row extraction.  Broadcast (length-1) parameter columns keep
        unperturbed sub-models scalar; per-row columns vectorise them.
        Parity with the scalar object path is ``rtol <= 1e-12``.
        """
        if params.size != batch.size:
            raise ParameterError(
                f"parameter batch has {params.size} rows, "
                f"scenario batch has {batch.size}"
            )
        fpga_side = model.side_constants(EAGER, params, fpga_side=True)
        asic_side = model.side_constants(EAGER, params, fpga_side=False)
        return _compose(fpga_side, asic_side, batch)
