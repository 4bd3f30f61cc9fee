"""Column-oriented (struct-of-arrays) scenario batches.

The scalar evaluation path walks one :class:`~repro.core.scenario.Scenario`
at a time through dataclass-built lifecycle models.  The vector kernel
instead consumes whole batches of scenarios as NumPy columns — one array
per scenario field — so a 10k-cell heatmap or a 10k-draw Monte-Carlo run
becomes a handful of array expressions instead of 10k object walks.

Every valid ``Scenario`` has a row: volumes are a float64 column (the
scalar models accept fractional volumes), and per-application lifetimes
are one ``(n,)`` column when every row's lifetimes are equal or an
``(n, w)`` block when some row's differ.  In the block, application
``j`` of a row reads column ``min(j, w - 1)``; a row's trailing
columns repeat its last lifetime.

A :class:`ScenarioBatch` can be built three ways:

* :meth:`ScenarioBatch.from_scenarios` — from existing ``Scenario``
  objects (the engine fast path);
* :meth:`ScenarioBatch.tile` — one scenario repeated as stride-0
  columns (the parameter-space workloads);
* :meth:`ScenarioBatch.from_arrays` — directly from axis arrays (the
  analysis batch entry points), never materialising ``Scenario`` objects
  at all.

:attr:`ScenarioBatch.COLUMNS` declares the columns once, as name and
dtype; the byte formats (wire requests, the shared-memory packer) and
the row operations read that list, and :meth:`ScenarioBatch.from_columns`
is the one validator, vectorised and mirroring ``Scenario.__post_init__``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.core.scenario import Scenario
from repro.errors import ParameterError


def _width(lifetimes: tuple[float, ...]) -> int:
    """Lifetime columns one row needs: its last change plus one."""
    k = len(lifetimes)
    if lifetimes.count(lifetimes[-1]) == k:
        return 1
    while lifetimes[k - 2] == lifetimes[k - 1]:
        k -= 1
    return k


def _lifetime_row(lifetimes: tuple[float, ...], width: int) -> list[float]:
    """``lifetimes`` padded or cut to ``width`` columns."""
    last = len(lifetimes) - 1
    return [lifetimes[min(j, last)] for j in range(width)]


@dataclass(frozen=True)
class ScenarioBatch:
    """N scenarios as columns, ready for the vector kernel.

    Attributes:
        num_apps: ``N_app`` per row (int64).
        volume: ``N_vol`` per row (float64; fractional volumes are
            valid scenarios).
        lifetime: Per-application lifetimes (float64): ``(n,)`` when
            each row's applications share one lifetime, else ``(n, w)``
            with application ``j`` reading column ``min(j, w - 1)``.
        evaluation_years: Horizon override per row; ``nan`` means "derive
            from the application lifetimes" (the ``None`` spelling).
        app_size_mgates: Application size per row; ``nan`` means "sized
            to the device" (``N_FPGA`` = 1).
        enforce_chip_lifetime: Fig. 9 repurchase semantics per row.
    """

    #: Every column, name and dtype, in declaration order: the one list
    #: the codecs, the shared-memory packer and the row operations read.
    COLUMNS: ClassVar[tuple[tuple[str, np.dtype], ...]] = (
        ("num_apps", np.dtype("<i8")),
        ("volume", np.dtype("<f8")),
        ("lifetime", np.dtype("<f8")),
        ("evaluation_years", np.dtype("<f8")),
        ("app_size_mgates", np.dtype("<f8")),
        ("enforce_chip_lifetime", np.dtype("|b1")),
    )

    num_apps: np.ndarray
    volume: np.ndarray
    lifetime: np.ndarray
    evaluation_years: np.ndarray
    app_size_mgates: np.ndarray
    enforce_chip_lifetime: np.ndarray

    @property
    def size(self) -> int:
        """Number of rows (scenarios) in the batch."""
        return int(self.num_apps.shape[0])

    def __len__(self) -> int:
        return self.size

    def scenario_at(self, index: int) -> Scenario:
        """An equivalent ``Scenario`` rebuilt from row ``index``."""
        row = np.atleast_1d(self.lifetime[index]).tolist()
        lifetimes = tuple(
            row[min(j, len(row) - 1)] for j in range(int(self.num_apps[index]))
        )
        volume = float(self.volume[index])
        evaluation = float(self.evaluation_years[index])
        app_size = float(self.app_size_mgates[index])
        return Scenario(
            num_apps=len(lifetimes),
            app_lifetime_years=(
                lifetimes[0] if _width(lifetimes) == 1 else lifetimes
            ),
            volume=int(volume) if volume.is_integer() else volume,
            evaluation_years=None if np.isnan(evaluation) else evaluation,
            app_size_mgates=None if np.isnan(app_size) else app_size,
            enforce_chip_lifetime=bool(self.enforce_chip_lifetime[index]),
        )

    @classmethod
    def tile(cls, scenario: Scenario, n: int) -> "ScenarioBatch":
        """Columnise one scenario ``n`` times (no per-row object work).

        The scenario axis of parameter-space batches: a Monte-Carlo run
        perturbs model parameters under one fixed deployment, so its
        scenario columns are constant.
        """
        if n < 1:
            raise ParameterError(f"tile needs n >= 1, got {n}")
        lifetimes = scenario.lifetimes
        width = _width(lifetimes)

        # Stride-0 broadcast views instead of materialised np.full
        # columns: a tiled batch is constant by construction, so the
        # streaming hot path should not pay n-element allocation and
        # page-fault cost per chunk for seven constant columns.  The
        # views are read-only, which every consumer (kernels, the shm
        # packer and concat, which copy) already respects,
        # and rank-aware evaluators can detect the uniformity in O(1)
        # from ``strides[0] == 0``.
        def const(value, dtype) -> np.ndarray:
            value = np.asarray(value).astype(dtype)
            return np.broadcast_to(value, (n, *value.shape))

        return cls(
            num_apps=const(scenario.num_apps, np.int64),
            volume=const(scenario.volume, np.float64),
            lifetime=const(
                lifetimes[0] if width == 1
                else _lifetime_row(lifetimes, width),
                np.float64,
            ),
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
        )

    @classmethod
    def from_scenarios(cls, scenarios: Sequence[Scenario]) -> "ScenarioBatch":
        """Columnise existing ``Scenario`` objects."""
        scenarios = tuple(scenarios)
        n = len(scenarios)
        first = scenarios[0] if scenarios else None
        if n > 1 and all(s is first for s in scenarios):
            # Multi-comparator batches (Monte-Carlo, DSE) reuse one
            # scenario object across every row — columnise it once.
            return cls.tile(first, n)
        num_apps = np.empty(n, dtype=np.int64)
        volume = np.empty(n, dtype=np.float64)
        evaluation = np.empty(n, dtype=np.float64)
        app_size = np.empty(n, dtype=np.float64)
        enforce = np.empty(n, dtype=bool)
        for i, s in enumerate(scenarios):
            num_apps[i] = s.num_apps
            volume[i] = s.volume
            evaluation[i] = np.nan if s.evaluation_years is None else s.evaluation_years
            app_size[i] = np.nan if s.app_size_mgates is None else s.app_size_mgates
            enforce[i] = s.enforce_chip_lifetime
        width = max((_width(s.lifetimes) for s in scenarios), default=1)
        if width == 1:
            lifetime = np.array(
                [s.lifetimes[0] for s in scenarios], dtype=np.float64
            )
        else:
            lifetime = np.array(
                [_lifetime_row(s.lifetimes, width) for s in scenarios],
                dtype=np.float64,
            )
        return cls(
            num_apps=num_apps,
            volume=volume,
            lifetime=lifetime,
            evaluation_years=evaluation,
            app_size_mgates=app_size,
            enforce_chip_lifetime=enforce,
        )

    @classmethod
    def from_arrays(
        cls,
        num_apps: "np.ndarray | Sequence[int] | int",
        lifetime: "np.ndarray | Sequence[float] | float",
        volume: "np.ndarray | Sequence[float] | float",
        evaluation_years: "np.ndarray | float | None" = None,
        app_size_mgates: "np.ndarray | float | None" = None,
        enforce_chip_lifetime: "np.ndarray | bool" = False,
    ) -> "ScenarioBatch":
        """Build a batch straight from axis arrays (no ``Scenario`` objects).

        Scalars broadcast against array inputs along the row axis; a 2-D
        ``lifetime`` is an ``(n, w)`` per-application block.  Validated
        by :meth:`from_columns`.
        """
        values = {
            "num_apps": num_apps,
            "volume": volume,
            "lifetime": lifetime,
            "evaluation_years": (
                np.nan if evaluation_years is None else evaluation_years
            ),
            "app_size_mgates": (
                np.nan if app_size_mgates is None else app_size_mgates
            ),
            "enforce_chip_lifetime": enforce_chip_lifetime,
        }
        columns = {
            name: np.atleast_1d(np.asarray(values[name], dtype=dtype))
            for name, dtype in cls.COLUMNS
        }
        (n,) = np.broadcast_shapes(*(c.shape[:1] for c in columns.values()))
        return cls.from_columns({
            name: np.ascontiguousarray(
                np.broadcast_to(column, (n, *column.shape[1:]))
            )
            for name, column in columns.items()
        })

    @classmethod
    def from_columns(
        cls, columns: "Mapping[str, np.ndarray]"
    ) -> "ScenarioBatch":
        """A validated batch from one array per declared column.

        Each column must have its declared dtype and one entry per row;
        ``lifetime`` may be ``(n,)`` or an ``(n, w)`` block.  Row values
        are checked like ``Scenario.__post_init__``, vectorised.  Raises
        :class:`~repro.errors.ParameterError`.
        """
        names = [name for name, _ in cls.COLUMNS]
        if sorted(columns) != sorted(names):
            raise ParameterError(
                f"scenario columns {sorted(columns)} != {sorted(names)}"
            )
        batch = cls(**{name: np.asarray(columns[name]) for name in names})
        rows = batch.num_apps.shape[:1]
        for name, dtype in cls.COLUMNS:
            column = getattr(batch, name)
            shape_ok = column.shape[:1] == rows and (
                column.ndim == 1
                or (name == "lifetime" and column.ndim == 2
                    and column.shape[1] >= 1)
            )
            if column.dtype != dtype or not shape_ok:
                raise ParameterError(
                    f"column {name!r} is {column.dtype.str} {column.shape}, "
                    f"expected {dtype.str} with one row per scenario"
                )
        if np.any(batch.num_apps < 1):
            raise ParameterError(
                f"num_apps must be >= 1, got {int(batch.num_apps.min())}"
            )
        volume = batch.volume
        bad_volume = ~((volume >= 1.0) & (volume < np.inf))
        if np.any(bad_volume):
            raise ParameterError(
                f"volume must be finite and >= 1, got {volume[bad_volume][0]}"
            )
        if np.any(~(batch.lifetime > 0.0)):
            raise ParameterError("application lifetime must be > 0")
        for name in ("evaluation_years", "app_size_mgates"):
            column = getattr(batch, name)
            if np.any(~(column[~np.isnan(column)] > 0.0)):
                raise ParameterError(f"{name} must be > 0")
        return batch

    def columns(self) -> "dict[str, np.ndarray]":
        """The columns by name in their declared dtypes (the batch's own
        arrays wherever they already have them)."""
        return {
            name: np.asarray(getattr(self, name), dtype=dtype)
            for name, dtype in self.COLUMNS
        }

    def slice_rows(self, start: int, stop: int) -> "ScenarioBatch":
        """Row-range view ``[start, stop)`` (NumPy views, no copy).

        Used by the engine's chunked parameter-batch dispatch to hand
        each worker its own column slices of one huge batch.
        """
        return ScenarioBatch(**{
            name: getattr(self, name)[start:stop] for name, _ in self.COLUMNS
        })
