"""Column-oriented (struct-of-arrays) scenario batches.

The scalar evaluation path walks one :class:`~repro.core.scenario.Scenario`
at a time through dataclass-built lifecycle models.  The vector kernel
instead consumes whole batches of scenarios as NumPy columns — one array
per scenario field — so a 10k-cell heatmap or a 10k-draw Monte-Carlo run
becomes a handful of array expressions instead of 10k object walks.

A :class:`ScenarioBatch` can be built two ways:

* :meth:`ScenarioBatch.from_scenarios` — from existing ``Scenario``
  objects (the engine fast path).  Rows whose per-application lifetimes
  are heterogeneous are marked uncovered; the engine falls back to the
  scalar path for those pairs.
* :meth:`ScenarioBatch.from_arrays` — directly from axis arrays (the
  analysis batch entry points), never materialising ``Scenario`` objects
  at all.  Validation is vectorised and mirrors ``Scenario.__post_init__``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.scenario import Scenario
from repro.errors import ParameterError


@dataclass(frozen=True)
class ScenarioBatch:
    """N scenarios as columns, ready for the vector kernel.

    Attributes:
        num_apps: ``N_app`` per row (int64).
        volume: ``N_vol`` per row (int64).
        lifetime: Uniform per-application lifetime per row (float64).
            Only meaningful where :attr:`covered` is True.
        evaluation_years: Horizon override per row; ``nan`` means "derive
            from the application lifetimes" (the ``None`` spelling).
        app_size_mgates: Application size per row; ``nan`` means "sized
            to the device" (``N_FPGA`` = 1).
        enforce_chip_lifetime: Fig. 9 repurchase semantics per row.
        covered: True where the kernel can evaluate the row (uniform
            per-application lifetimes and an integral volume — the
            int64 volume column cannot represent the fractional volumes
            ``Scenario`` tolerates).  Everything else is scalar-path
            territory.
        scenarios: The originating ``Scenario`` objects when built via
            :meth:`from_scenarios` (needed for the scalar fallback);
            ``None`` for pure-array batches, which are covered by
            construction.
    """

    num_apps: np.ndarray
    volume: np.ndarray
    lifetime: np.ndarray
    evaluation_years: np.ndarray
    app_size_mgates: np.ndarray
    enforce_chip_lifetime: np.ndarray
    covered: np.ndarray
    scenarios: tuple[Scenario, ...] | None = None

    @property
    def size(self) -> int:
        """Number of rows (scenarios) in the batch."""
        return int(self.num_apps.shape[0])

    def __len__(self) -> int:
        return self.size

    @property
    def all_covered(self) -> bool:
        """True when every row is kernel-evaluable."""
        return bool(self.covered.all())

    def scenario_at(self, index: int) -> Scenario:
        """The ``Scenario`` object behind row ``index``.

        Returns the originating object when one exists, otherwise
        rebuilds an equivalent scenario from the columns (pure-array
        batches are always uniform, so this is lossless).
        """
        if self.scenarios is not None:
            return self.scenarios[index]
        evaluation = float(self.evaluation_years[index])
        app_size = float(self.app_size_mgates[index])
        return Scenario(
            num_apps=int(self.num_apps[index]),
            app_lifetime_years=float(self.lifetime[index]),
            volume=int(self.volume[index]),
            evaluation_years=None if np.isnan(evaluation) else evaluation,
            app_size_mgates=None if np.isnan(app_size) else app_size,
            enforce_chip_lifetime=bool(self.enforce_chip_lifetime[index]),
        )

    @classmethod
    def tile(cls, scenario: Scenario, n: int) -> "ScenarioBatch":
        """Columnise one scenario ``n`` times (no per-row object work).

        The scenario axis of parameter-space batches: a Monte-Carlo run
        perturbs model parameters under one fixed deployment, so its
        scenario columns are constant.  Covered (uniform-lifetime,
        integral-volume) scenarios tile without keeping any ``Scenario``
        objects; uncovered ones keep the originating object per row so
        the scalar fallback still works.
        """
        if n < 1:
            raise ParameterError(f"tile needs n >= 1, got {n}")
        lifetimes = scenario.lifetimes
        uniform = (
            all(t == lifetimes[0] for t in lifetimes)
            and scenario.volume == int(scenario.volume)
        )

        # Stride-0 broadcast views instead of materialised np.full
        # columns: a tiled batch is constant by construction, so the
        # streaming hot path should not pay n-element allocation and
        # page-fault cost per chunk for seven constant columns.  The
        # views are read-only, which every consumer (kernels, the shm
        # packer, concat/take — both of which copy) already respects,
        # and rank-aware evaluators can detect the uniformity in O(1)
        # from ``strides[0] == 0``.
        def const(value, dtype) -> np.ndarray:
            return np.broadcast_to(np.asarray(value).astype(dtype), (n,))

        return cls(
            num_apps=const(scenario.num_apps, np.int64),
            volume=const(scenario.volume, np.int64),
            lifetime=const(lifetimes[0], np.float64),
            evaluation_years=const(
                np.nan if scenario.evaluation_years is None
                else scenario.evaluation_years,
                np.float64,
            ),
            app_size_mgates=const(
                np.nan if scenario.app_size_mgates is None
                else scenario.app_size_mgates,
                np.float64,
            ),
            enforce_chip_lifetime=const(scenario.enforce_chip_lifetime, bool),
            covered=const(uniform, bool),
            scenarios=None if uniform else (scenario,) * n,
        )

    @classmethod
    def from_scenarios(cls, scenarios: Sequence[Scenario]) -> "ScenarioBatch":
        """Columnise existing ``Scenario`` objects.

        Rows with heterogeneous per-application lifetimes keep their
        first lifetime in the column but are flagged uncovered.
        """
        scenarios = tuple(scenarios)
        n = len(scenarios)
        first = scenarios[0] if scenarios else None
        if n > 1 and all(s is first for s in scenarios):
            # Multi-comparator batches (Monte-Carlo, DSE) reuse one
            # scenario object across every row — columnise it once and
            # keep the originating objects for the scalar fallback.
            batch = cls.tile(first, n)
            return dataclasses.replace(batch, scenarios=scenarios)
        num_apps = np.empty(n, dtype=np.int64)
        volume = np.empty(n, dtype=np.int64)
        lifetime = np.empty(n, dtype=np.float64)
        evaluation = np.empty(n, dtype=np.float64)
        app_size = np.empty(n, dtype=np.float64)
        enforce = np.empty(n, dtype=bool)
        covered = np.empty(n, dtype=bool)
        for i, s in enumerate(scenarios):
            lifetimes = s.lifetimes
            first = lifetimes[0]
            num_apps[i] = s.num_apps
            volume[i] = s.volume
            lifetime[i] = first
            evaluation[i] = np.nan if s.evaluation_years is None else s.evaluation_years
            app_size[i] = np.nan if s.app_size_mgates is None else s.app_size_mgates
            enforce[i] = s.enforce_chip_lifetime
            covered[i] = (
                all(t == first for t in lifetimes)
                and s.volume == int(s.volume)
            )
        return cls(
            num_apps=num_apps,
            volume=volume,
            lifetime=lifetime,
            evaluation_years=evaluation,
            app_size_mgates=app_size,
            enforce_chip_lifetime=enforce,
            covered=covered,
            scenarios=scenarios,
        )

    @classmethod
    def from_arrays(
        cls,
        num_apps: "np.ndarray | Sequence[int] | int",
        lifetime: "np.ndarray | Sequence[float] | float",
        volume: "np.ndarray | Sequence[int] | int",
        evaluation_years: "np.ndarray | float | None" = None,
        app_size_mgates: "np.ndarray | float | None" = None,
        enforce_chip_lifetime: "np.ndarray | bool" = False,
    ) -> "ScenarioBatch":
        """Build a batch straight from axis arrays (no ``Scenario`` objects).

        Scalars broadcast against array inputs.  Validation mirrors
        ``Scenario.__post_init__`` but runs vectorised, once per batch.
        """
        num_apps_a = np.atleast_1d(np.asarray(num_apps, dtype=np.int64))
        lifetime_a = np.atleast_1d(np.asarray(lifetime, dtype=np.float64))
        volume_a = np.atleast_1d(np.asarray(volume, dtype=np.int64))
        evaluation_a = np.atleast_1d(
            np.asarray(
                np.nan if evaluation_years is None else evaluation_years,
                dtype=np.float64,
            )
        )
        app_size_a = np.atleast_1d(
            np.asarray(
                np.nan if app_size_mgates is None else app_size_mgates,
                dtype=np.float64,
            )
        )
        enforce_a = np.atleast_1d(np.asarray(enforce_chip_lifetime, dtype=bool))
        num_apps_a, lifetime_a, volume_a, evaluation_a, app_size_a, enforce_a = (
            np.broadcast_arrays(
                num_apps_a, lifetime_a, volume_a, evaluation_a, app_size_a, enforce_a
            )
        )
        if np.any(num_apps_a < 1):
            raise ParameterError(
                f"num_apps must be >= 1, got {int(num_apps_a.min())}"
            )
        if np.any(volume_a < 1):
            raise ParameterError(f"volume must be >= 1, got {int(volume_a.min())}")
        if np.any(~(lifetime_a > 0.0)):
            raise ParameterError("application lifetime must be > 0")
        finite_eval = evaluation_a[~np.isnan(evaluation_a)]
        if np.any(~(finite_eval > 0.0)):
            raise ParameterError("evaluation_years must be > 0")
        finite_size = app_size_a[~np.isnan(app_size_a)]
        if np.any(~(finite_size > 0.0)):
            raise ParameterError("app_size_mgates must be > 0")
        return cls(
            num_apps=np.ascontiguousarray(num_apps_a),
            volume=np.ascontiguousarray(volume_a),
            lifetime=np.ascontiguousarray(lifetime_a),
            evaluation_years=np.ascontiguousarray(evaluation_a),
            app_size_mgates=np.ascontiguousarray(app_size_a),
            enforce_chip_lifetime=np.ascontiguousarray(enforce_a),
            covered=np.ones(num_apps_a.shape, dtype=bool),
            scenarios=None,
        )

    def slice_rows(self, start: int, stop: int) -> "ScenarioBatch":
        """Row-range view ``[start, stop)`` (NumPy views, no copy).

        Used by the engine's chunked parameter-batch dispatch to hand
        each worker its own column slices of one huge batch.
        """
        rows = slice(start, stop)
        return ScenarioBatch(
            num_apps=self.num_apps[rows],
            volume=self.volume[rows],
            lifetime=self.lifetime[rows],
            evaluation_years=self.evaluation_years[rows],
            app_size_mgates=self.app_size_mgates[rows],
            enforce_chip_lifetime=self.enforce_chip_lifetime[rows],
            covered=self.covered[rows],
            scenarios=(
                None if self.scenarios is None else self.scenarios[start:stop]
            ),
        )

    def take(self, indices: np.ndarray) -> "ScenarioBatch":
        """Row subset (used to split covered / fallback rows)."""
        scenarios = (
            None
            if self.scenarios is None
            else tuple(self.scenarios[int(i)] for i in indices)
        )
        return ScenarioBatch(
            num_apps=self.num_apps[indices],
            volume=self.volume[indices],
            lifetime=self.lifetime[indices],
            evaluation_years=self.evaluation_years[indices],
            app_size_mgates=self.app_size_mgates[indices],
            enforce_chip_lifetime=self.enforce_chip_lifetime[indices],
            covered=self.covered[indices],
            scenarios=scenarios,
        )
