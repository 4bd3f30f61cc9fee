"""Array-backed, set-associative result store for the evaluation engine.

The PR-1 LRU cached one :class:`~repro.core.comparison.ComparisonResult`
dataclass graph per (device pair, suite, scenario) key.  After the PR-2
vector kernel, that design inverted the hot path: a *warm* 10k-cell
heatmap spent 35x longer materialising and looking up dataclasses than a
*cold* kernel run spent computing the answers.  This module stores
results the way the kernel produces them — packed NumPy column blocks —
in one capacity-bounded table:

* **Digest keys.**  Every assessment is keyed by a 128-bit digest of
  ``(device pair, suite, scenario)``.  The comparator part is a BLAKE2b
  hash of the pickled identity (stable across processes — unlike
  ``hash()``, which is salted per run), memoised per comparator; the
  scenario part is a splitmix-style fold over the scenario columns that
  is computed *vectorised* for whole :class:`ScenarioBatch` rows and
  reproduced bit-for-bit by the scalar fold for single scenarios.
* **Set-associative column blocks.**  A key may live in two sets of
  :data:`WAYS` slots, picked by its ``lo`` and ``hi`` digest words.
  Parallel arrays hold each slot's digest words, float and int payload
  rows and a recency ``tick``.  A batch lookup is one ``(n, 2, WAYS)``
  gather and compare; a batch insert upserts in place and fills empty
  or least recently used ways in a few vectorised rounds.  No per-row
  Python runs on either path, and there is no index or free list to
  keep in sync.
* **Lazy materialisation.**  The column layout carries everything a
  :class:`ComparisonResult` needs (totals, per-component breakdowns,
  per-application ASIC columns, chip counts/generations), so object
  callers get bit-identical dataclasses rebuilt on demand while batch
  callers never leave array-land.
* **Persistence.**  :meth:`ShardedResultStore.save` /
  :meth:`ShardedResultStore.load` round-trip the packed entries through
  one snapshot file (an array container with a digest, see
  :mod:`repro.engine.container`), so cache warmth survives across
  processes and CLI runs, and a store of any capacity can load it.

The packed layout holds one per-application column set, so only rows
whose per-application lifetimes are all equal are stored
(:func:`uniform_lifetime_rows`); rows with heterogeneous lifetimes are
evaluated on every request and never cached.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
import struct
import threading
from pathlib import Path
from typing import Hashable

import numpy as np

from repro.core.asic_model import AsicAssessment
from repro.core.comparison import ComparisonResult, PlatformComparator
from repro.core.fpga_model import FpgaAssessment
from repro.core.lifecycle import CarbonFootprint
from repro.core.scenario import Scenario
from repro.engine import container
from repro.engine.atomicio import atomic_write_bytes
from repro.engine.cache import CacheStats
from repro.engine.vector import BatchResult, ParameterBatch, ScenarioBatch
from repro.engine.vector.model import chip_generations
from repro.errors import ContainerError, ParameterError, StoreCorruptError

# ----------------------------------------------------------------------
# Canonical keys
# ----------------------------------------------------------------------


def comparator_key(comparator: PlatformComparator) -> Hashable:
    """Canonical hashable identity of a device pair + suite."""
    return (comparator.fpga_device, comparator.asic_device, comparator.suite)


# ----------------------------------------------------------------------
# 128-bit digests: stable across processes, vectorised over batches
# ----------------------------------------------------------------------

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MIX_M1 = 0xFF51AFD7ED558CCD
_MIX_M2 = 0xC4CEB9FE1A85EC53
#: Bit pattern standing in for ``None`` in optional float columns (the
#: canonical quiet-NaN payload both column and scalar paths normalise to).
_NONE_BITS = 0x7FF8000000000000
#: Fold marker preceding a fractional (non-integral) volume's float
#: bits, so it can never alias an integral volume's int fold.
_FRACTIONAL_VOLUME_TAG = 0x466C6F6174566F6C  # b"FloatVol"

_U_M1 = np.uint64(_MIX_M1)
_U_M2 = np.uint64(_MIX_M2)
_U33 = np.uint64(33)
_U29 = np.uint64(29)


def _mix_scalar(h: int, v: int) -> int:
    """One fold step of the scenario digest (64-bit Python-int twin)."""
    v = (v * _MIX_M1) & _MASK64
    v ^= v >> 33
    v = (v * _MIX_M2) & _MASK64
    h = (h ^ v) & _MASK64
    h = (h * _MIX_M1) & _MASK64
    return h ^ (h >> 29)


def _mix_columns(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_mix_scalar` over uint64 columns (wrapping)."""
    v = v * _U_M1
    v = v ^ (v >> _U33)
    v = v * _U_M2
    h = h ^ v
    h = h * _U_M1
    return h ^ (h >> _U29)


def _float_bits(value: float) -> int:
    """Native-order IEEE-754 bits of ``value`` (matches ndarray views)."""
    return struct.unpack("=Q", struct.pack("=d", value))[0]


def _optional_bits(value: float | None) -> int:
    return _NONE_BITS if value is None else _float_bits(value)


def _bits(column: np.ndarray) -> np.ndarray:
    """Native-order IEEE-754 bits of a float column (uint64 view)."""
    return np.ascontiguousarray(column, dtype=np.float64).view(np.uint64)


def _optional_column_bits(column: np.ndarray) -> np.ndarray:
    bits = _bits(column).copy()
    bits[np.isnan(column)] = np.uint64(_NONE_BITS)
    return bits


@functools.lru_cache(maxsize=1024)
def comparator_digest(comparator: PlatformComparator) -> tuple[int, int]:
    """Stable ``(lo, hi)`` seed pair for one device pair + suite.

    BLAKE2b over the pickled :func:`comparator_key`, so the digest is
    identical across processes (``hash()`` is salted per run and cannot
    key a persisted cache).  Memoised — heatmap/sweep batches pay this
    once per comparator, not per cell.
    """
    payload = pickle.dumps(comparator_key(comparator), protocol=4)
    raw = hashlib.blake2b(payload, digest_size=16).digest()
    return (
        int.from_bytes(raw[:8], "little"),
        int.from_bytes(raw[8:], "little"),
    )


def _scenario_values(scenario: Scenario) -> list[int]:
    """The 64-bit words one scenario folds into its digest, in order."""
    lifetimes = scenario.lifetimes
    values = [int(scenario.num_apps)]
    if lifetimes.count(lifetimes[0]) == len(lifetimes):
        values.append(_float_bits(lifetimes[0]))
    else:
        values.extend(_float_bits(t) for t in lifetimes)
    # Scenario declares volume: int but only validates >= 1, and the
    # scalar models evaluate a fractional volume exactly.  An integral
    # volume folds as an int; a fractional one folds as tagged float
    # bits, so volume=1000.2 and volume=1000.8 can never share a digest.
    volume = scenario.volume
    if volume == int(volume):
        values.append(int(volume))
    else:
        values.append(_FRACTIONAL_VOLUME_TAG)
        values.append(_float_bits(float(volume)))
    values.append(_optional_bits(scenario.evaluation_years))
    values.append(_optional_bits(scenario.app_size_mgates))
    values.append(int(scenario.enforce_chip_lifetime))
    return values


def _fold_values(lo: int, hi: int, values: list[int]) -> tuple[int, int]:
    for value in values:
        lo = _mix_scalar(lo, value)
        hi = _mix_scalar(hi, value)
    return lo, hi


def pair_digest(comparator: PlatformComparator, scenario: Scenario) -> tuple[int, int]:
    """128-bit digest of one assessment, as ``(lo, hi)`` Python ints.

    Folds the normalised scenario fields over the comparator seeds in
    the same order :func:`batch_digests` folds the batch columns, so a
    scenario digests identically either way (and scalar vs
    per-application lifetime spellings collide on purpose).
    """
    lo, hi = comparator_digest(comparator)
    return _fold_values(lo, hi, _scenario_values(scenario))


def uniform_lifetime_rows(lifetime: np.ndarray) -> np.ndarray:
    """Rows whose per-application lifetimes are all equal (bool mask).

    The rows the packed layout can hold: it keeps one per-application
    column set per entry.
    """
    if lifetime.ndim == 1:
        return np.ones(lifetime.shape[0], dtype=bool)
    return (lifetime == lifetime[:, :1]).all(axis=1)


def _fold_scenario_columns(
    lo: np.ndarray, hi: np.ndarray, batch: ScenarioBatch
) -> tuple[np.ndarray, np.ndarray]:
    """Fold the scenario columns into ``(lo, hi)``, vectorised.

    The column twin of :func:`pair_digest`, shared by the scenario-space
    and parameter-space batch digests so the fold order can never drift
    between them.  Rows with heterogeneous lifetimes or a fractional
    volume fold a different number of words; those rows are refolded
    from their own seeds, column-wise, in groups that share one word
    layout (a tiled batch is one group).
    """
    n = batch.size
    block = batch.lifetime.reshape(n, -1)
    apps = batch.num_apps
    tail = (
        _optional_column_bits(batch.evaluation_years),
        _optional_column_bits(batch.app_size_mgates),
        batch.enforce_chip_lifetime.astype(np.uint64),
    )
    seed_lo, seed_hi = lo, hi
    for column in (
        apps.astype(np.uint64), _bits(block[:, 0]),
        batch.volume.astype(np.uint64), *tail,
    ):
        lo = _mix_columns(lo, column)
        hi = _mix_columns(hi, column)
    fractional = batch.volume != np.floor(batch.volume)
    heterogeneous = np.zeros(n, dtype=bool)
    if block.shape[1] > 1:
        # A row's lifetimes are its first num_apps applications' columns.
        heterogeneous = (
            (block != block[:, :1]) & (np.arange(block.shape[1]) < apps[:, None])
        ).any(axis=1)
    irregular = np.flatnonzero(fractional | heterogeneous)
    if irregular.size == 0:
        return lo, hi
    # Word layout: per-application lifetime words (0: one shared
    # lifetime word) and the fractional-volume tag.
    layout = np.where(heterogeneous, apps, 0)[irregular] * 2 + fractional[irregular]
    for key in np.unique(layout).tolist():
        rows = irregular[layout == key]
        width, tagged = divmod(key, 2)
        words = [apps[rows].astype(np.uint64)]
        words += [
            _bits(block[rows, min(j, block.shape[1] - 1)])
            for j in range(max(width, 1))
        ]
        if tagged:
            words += [
                np.full(rows.size, _FRACTIONAL_VOLUME_TAG, dtype=np.uint64),
                _bits(batch.volume[rows]),
            ]
        else:
            words.append(batch.volume[rows].astype(np.uint64))
        words += [column[rows] for column in tail]
        group_lo, group_hi = seed_lo[rows], seed_hi[rows]
        for word in words:
            group_lo = _mix_columns(group_lo, word)
            group_hi = _mix_columns(group_hi, word)
        lo[rows] = group_lo
        hi[rows] = group_hi
    return lo, hi


def batch_digests(
    comparator: PlatformComparator, batch: ScenarioBatch
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`pair_digest` over a whole scenario batch.

    Every row's digest agrees with the object path bit-for-bit, so
    in-batch deduplication and store keys are exact for any row.
    """
    n = batch.size
    seed_lo, seed_hi = comparator_digest(comparator)
    lo = np.full(n, seed_lo, dtype=np.uint64)
    hi = np.full(n, seed_hi, dtype=np.uint64)
    return _fold_scenario_columns(lo, hi, batch)


# ----------------------------------------------------------------------
# Parameter-space digests (the ParameterBatch key contract)
# ----------------------------------------------------------------------

#: Namespace seed of extraction-mode parameter rows (no base comparator
#: to seed from); BLAKE2b of a fixed tag, stable across processes.
_PARAM_SEED_RAW = hashlib.blake2b(
    b"repro-param-space-v1", digest_size=16
).digest()
PARAM_SPACE_SEED = (
    int.from_bytes(_PARAM_SEED_RAW[:8], "little"),
    int.from_bytes(_PARAM_SEED_RAW[8:], "little"),
)


def param_digest(
    base: PlatformComparator,
    scenario: Scenario,
    overrides: "dict[int, float]",
) -> tuple[int, int]:
    """Scalar digest of one base-mode parameter row.

    Seeds from :func:`pair_digest` of the *base* comparator and folds
    each overridden column as ``(column index, value bits)`` in index
    order — so a row with *no* overrides digests identically to the
    plain scenario-space key of ``(base, scenario)`` and shares its
    cached result on purpose.  The vectorised twin is
    :func:`param_batch_digests`; this scalar fold bit-reproduces it.
    """
    lo, hi = pair_digest(base, scenario)
    for index in sorted(overrides):
        for value in (int(index), _float_bits(float(overrides[index]))):
            lo = _mix_scalar(lo, value)
            hi = _mix_scalar(hi, value)
    return lo, hi


def param_row_digest(
    row: "tuple[float, ...] | np.ndarray", scenario: Scenario
) -> tuple[int, int]:
    """Scalar digest of one extraction-mode parameter row.

    Folds the scenario fields then every model-parameter column in
    registry order over the fixed :data:`PARAM_SPACE_SEED`; the
    vectorised twin is :func:`param_batch_digests`.
    """
    lo, hi = _fold_values(*PARAM_SPACE_SEED, _scenario_values(scenario))
    return _fold_values(lo, hi, [_float_bits(float(v)) for v in row])


def param_batch_digests(
    params: "ParameterBatch", batch: ScenarioBatch
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised 128-bit digests of parameter-space rows.

    One splitmix-style fold per *column* — zero per-row hashing work —
    bit-reproduced by the scalar folds:

    * base-mode batches (:meth:`ParameterBatch.from_comparator`) seed
      from the base comparator's digest, fold the scenario columns,
      then fold each override column as ``(index, bits)`` in index
      order — the twin of :func:`param_digest`;
    * extraction-mode batches (:meth:`ParameterBatch.from_comparators`)
      seed from :data:`PARAM_SPACE_SEED` and fold every parameter
      column in registry order — the twin of :func:`param_row_digest`.
    """
    from repro.engine.vector.params import N_PARAM_COLS

    if params.size != batch.size:
        raise ParameterError(
            f"parameter batch has {params.size} rows, "
            f"scenario batch has {batch.size}"
        )
    n = batch.size
    if params.base is not None:
        seed_lo, seed_hi = comparator_digest(params.base)
        folds: list[np.ndarray] = []
        for index in sorted(params.overrides):
            folds.append(np.full(1, index, dtype=np.uint64))
            folds.append(_bits(params.overrides[index]))
    elif len(params.columns) == N_PARAM_COLS:
        seed_lo, seed_hi = PARAM_SPACE_SEED
        folds = [_bits(params.col(i)) for i in range(N_PARAM_COLS)]
    else:
        raise ParameterError(
            "parameter batch is not digestable: needs a base comparator "
            "or a full column set"
        )
    lo = np.full(n, seed_lo, dtype=np.uint64)
    hi = np.full(n, seed_hi, dtype=np.uint64)
    lo, hi = _fold_scenario_columns(lo, hi, batch)
    for bits in folds:
        lo = _mix_columns(lo, bits)
        hi = _mix_columns(hi, bits)
    return lo, hi


# ----------------------------------------------------------------------
# Packed column layout
# ----------------------------------------------------------------------

_COMPONENTS = CarbonFootprint.COMPONENTS  # 6 names, canonical order

#: Float columns per entry: totals, both component breakdowns, the
#: per-application ASIC components, and the per-chip embodied figures.
FLOAT_COLS = 22
_FT_FPGA_TOTAL = 0
_FT_ASIC_TOTAL = 1
_FT_FPGA_COMP = 2  # .. 7
_FT_ASIC_COMP = 8  # .. 13
_FT_APP_COMP = 14  # .. 19
_FT_FPGA_PC = 20
_FT_ASIC_PC = 21

#: Int columns per entry.
INT_COLS = 4
_IT_N_FPGA = 0
_IT_FPGA_GEN = 1
_IT_ASIC_GEN = 2
_IT_NUM_APPS = 3

#: Bump when the column layout changes; persisted files carry it.
STORE_FORMAT_VERSION = 2
#: ``magic | u16 format``: the container prefix of a snapshot file.
_SNAPSHOT_PREFIX = b"GFSTORE" + STORE_FORMAT_VERSION.to_bytes(2, "little")
#: The arrays of a snapshot, ``{name: (dtype, trailing shape)}``.
_SNAPSHOT_SCHEMA = {
    "lo": ("<u8", ()),
    "hi": ("<u8", ()),
    "floats": ("<f8", (FLOAT_COLS,)),
    "ints": ("<i8", (INT_COLS,)),
}


def _first_app(column: np.ndarray) -> np.ndarray:
    """The first application's values of a per-application column."""
    return column if column.ndim == 1 else column[:, 0]


def pack_batch_rows(
    result: BatchResult, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Column blocks for ``rows`` of a kernel-produced :class:`BatchResult`.

    The per-application columns are the first application's, which
    describe the whole row only where :func:`uniform_lifetime_rows`
    holds — the engine stores only those rows.
    """
    floats = np.empty((rows.size, FLOAT_COLS), dtype=np.float64)
    ints = np.empty((rows.size, INT_COLS), dtype=np.int64)
    floats[:, _FT_FPGA_TOTAL] = result.fpga_totals[rows]
    floats[:, _FT_ASIC_TOTAL] = result.asic_totals[rows]
    for j, name in enumerate(_COMPONENTS):
        floats[:, _FT_FPGA_COMP + j] = result.fpga_components[name][rows]
        floats[:, _FT_ASIC_COMP + j] = result.asic_components[name][rows]
        floats[:, _FT_APP_COMP + j] = _first_app(
            result.asic_app_components[name]
        )[rows]
    floats[:, _FT_FPGA_PC] = result.fpga_per_chip_embodied_kg[rows]
    floats[:, _FT_ASIC_PC] = result.asic_per_chip_embodied_kg[rows]
    ints[:, _IT_N_FPGA] = result.n_fpga[rows]
    ints[:, _IT_FPGA_GEN] = result.fpga_generations[rows]
    ints[:, _IT_ASIC_GEN] = _first_app(result.asic_generations)[rows]
    ints[:, _IT_NUM_APPS] = result.num_apps[rows]
    return floats, ints


def pack_comparison(
    result: ComparisonResult, comparator: PlatformComparator
) -> tuple[np.ndarray, np.ndarray] | None:
    """One packed row for a scalar-path result, or ``None`` if unpackable.

    A scenario with heterogeneous per-application lifetimes is
    unpackable (see :func:`uniform_lifetime_rows`).
    """
    lifetimes = result.scenario.lifetimes
    if lifetimes.count(lifetimes[0]) != len(lifetimes):
        return None
    first = result.asic.per_application[0]
    floats = np.empty(FLOAT_COLS, dtype=np.float64)
    ints = np.empty(INT_COLS, dtype=np.int64)
    floats[_FT_FPGA_TOTAL] = result.fpga.footprint.total
    floats[_FT_ASIC_TOTAL] = result.asic.footprint.total
    for j, name in enumerate(_COMPONENTS):
        floats[_FT_FPGA_COMP + j] = getattr(result.fpga.footprint, name)
        floats[_FT_ASIC_COMP + j] = getattr(result.asic.footprint, name)
        floats[_FT_APP_COMP + j] = getattr(first, name)
    floats[_FT_FPGA_PC] = result.fpga.per_chip_embodied_kg
    floats[_FT_ASIC_PC] = result.asic.per_chip_embodied_kg
    ints[_IT_N_FPGA] = result.fpga.n_fpga_per_unit
    ints[_IT_FPGA_GEN] = result.fpga.generations
    ints[_IT_ASIC_GEN] = chip_generations(
        result.scenario.lifetimes[0],
        comparator.asic_device.chip_lifetime_years,
    )
    ints[_IT_NUM_APPS] = result.scenario.num_apps
    return floats, ints


def materialise_comparison(
    floats: np.ndarray, ints: np.ndarray, scenario: Scenario
) -> ComparisonResult:
    """Rebuild a full :class:`ComparisonResult` from one packed row.

    The lazy half of the store contract: batch callers never pay for
    this, object callers get dataclasses indistinguishable from the
    scalar path's (the components are stored exactly, and ``total`` /
    ``ratio`` are derived properties).
    """
    fpga = FpgaAssessment(
        footprint=CarbonFootprint(
            **{
                name: float(floats[_FT_FPGA_COMP + j])
                for j, name in enumerate(_COMPONENTS)
            }
        ),
        per_chip_embodied_kg=float(floats[_FT_FPGA_PC]),
        n_fpga_per_unit=int(ints[_IT_N_FPGA]),
        generations=int(ints[_IT_FPGA_GEN]),
    )
    app_footprint = CarbonFootprint(
        **{
            name: float(floats[_FT_APP_COMP + j])
            for j, name in enumerate(_COMPONENTS)
        }
    )
    asic = AsicAssessment(
        footprint=CarbonFootprint(
            **{
                name: float(floats[_FT_ASIC_COMP + j])
                for j, name in enumerate(_COMPONENTS)
            }
        ),
        per_chip_embodied_kg=float(floats[_FT_ASIC_PC]),
        per_application=(app_footprint,) * int(ints[_IT_NUM_APPS]),
    )
    return ComparisonResult(scenario=scenario, fpga=fpga, asic=asic)


# ----------------------------------------------------------------------
# The set-associative result table
# ----------------------------------------------------------------------

#: Ways per set.  With two candidate sets per key, a table below 80%
#: of its capacity keeps every entry (measured on random keys at 4096
#: and 65,536 entries).
WAYS = 16
#: ``tick`` of the slots past ``capacity`` in the last set: never
#: matched and never chosen for eviction, so the table holds at most
#: ``capacity`` entries.
_UNUSABLE = np.iinfo(np.int64).max


class ShardedResultStore:
    """Set-associative, array-backed result table behind one lock.

    Args:
        capacity: Entry bound of the packed table (``0`` disables
            storage entirely while keeping the API and miss counters).

    A key may live in two sets of :data:`WAYS` slots, ``lo mod sets``
    and ``hi mod sets``.  A slot holds the ``lo``/``hi`` digest words,
    one float and one int payload row, and a ``tick``: the store clock
    at its last get or put.  Probe, insert and eviction are whole-batch
    array operations.  Two candidate sets keep a table that is below
    capacity from evicting: one set per key would overflow some sets
    long before the table fills.

    Sets fill from way 0 and never free a way, so the empty ways of a
    set are a suffix.  An empty way's ``tick`` is minus the number of
    empty ways from it to the end of its set.  Every live ``tick`` is
    ``>= 0``, so the smallest ``tick`` of a key's ``2 * WAYS`` ways is
    the first empty way of its emptier set, or else its least recently
    used way.

    The class name predates the single table.

    Thread-safe: one lock serialises all table access, and batch
    lookups gather copies of their rows before releasing it, so
    concurrent eviction can never corrupt a caller's view.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 0:
            raise ParameterError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._sets = -(-capacity // WAYS)
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        slots = self._sets * WAYS
        self._lo = np.zeros(slots, dtype=np.uint64)
        self._hi = np.zeros(slots, dtype=np.uint64)
        index = np.arange(slots, dtype=np.int64)
        set_end = np.minimum(self.capacity, (index // WAYS + 1) * WAYS)
        self._tick = index - set_end
        self._tick[self.capacity:] = _UNUSABLE
        # Payload pages stay untouched until a row lands in them.
        self._floats = np.empty((slots, FLOAT_COLS), dtype=np.float64)
        self._ints = np.empty((slots, INT_COLS), dtype=np.int64)
        self._size = 0
        self._hits = 0
        self._misses = 0
        self._clock = 0

    # -- batch (array) interface ---------------------------------------

    def _sets_of(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The two candidate sets of each key, ``(n, 2)``."""
        sets = np.uint64(self._sets)
        return np.stack((lo % sets, hi % sets), axis=1).astype(np.intp)

    def _probe(self, lo: np.ndarray, hi: np.ndarray, sets: np.ndarray) -> np.ndarray:
        """Slot holding each row's full 128-bit key, ``-1`` where absent.

        One ``(n, 2, WAYS)`` gather compares ``lo``; only the matching
        candidates are checked against ``hi`` and liveness, so a
        low-word collision is a miss, never a wrong row.
        """
        candidates = np.take(self._lo.reshape(-1, WAYS), sets, axis=0)
        match = np.flatnonzero(candidates == lo[:, None, None])
        row = match // (2 * WAYS)
        slot = sets.reshape(-1)[match // WAYS] * WAYS + match % WAYS
        tick = self._tick[slot]
        live = (self._hi[slot] == hi[row]) & (tick >= 0) & (tick != _UNUSABLE)
        found = np.full(lo.size, -1, dtype=np.intp)
        found[row[live]] = slot[live]
        return found

    def _place(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        sets: np.ndarray,
        slot: np.ndarray,
        clock: int,
    ) -> None:
        """Claim slots for the rows of ``slot`` that are ``-1``.

        Only ``slot`` and the claimed ways' ``tick`` are written; the
        caller stores the keys and payloads.  Each pending key picks
        the way with the smallest ``tick`` of its two sets (see the
        class docstring).  A round places, per picked set, the last
        pending row that picked it; the other rows pick again in the
        next round.  Earlier rows with a placed row's key are
        superseded by it and get no slot.  A key whose ways all hold
        this batch's keys is not stored.
        """
        pending = np.nonzero(slot < 0)[0]
        head_of = np.empty(self._sets, dtype=np.intp)
        # A row loses a round only to a placement into one of its own
        # 2 * WAYS ways, so every row is settled within these rounds.
        for _ in range(2 * WAYS + 1):
            if pending.size == 0:
                break
            k = pending.size
            ticks = np.take(
                self._tick.reshape(-1, WAYS), sets[pending], axis=0
            ).reshape(k, 2 * WAYS)
            pick = ticks.argmin(axis=1)
            victim = ticks.reshape(-1)[np.arange(k) * (2 * WAYS) + pick]
            target = sets.reshape(-1)[pending * 2 + pick // WAYS]
            head_of[target] = pending  # in-order writes: the last row wins
            head = head_of[target]
            place = (head == pending) & (victim < clock)
            placed = target[place] * WAYS + pick[place] % WAYS
            self._size += int(np.count_nonzero(victim[place] < 0))
            self._tick[placed] = clock
            slot[pending[place]] = placed
            # A head without room means every row that picked its set
            # has no room either.
            pending = pending[
                (slot[head] >= 0)
                & ((lo[head] != lo[pending]) | (hi[head] != hi[pending]))
            ]

    def get_batch(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised lookup: ``(hit_mask, float_block, int_block)``.

        Rows where ``hit_mask`` is False hold unspecified values in the
        returned blocks.  Every row counts once toward hits/misses.
        """
        n = int(lo.size)
        if self.capacity == 0 or n == 0:
            with self._lock:
                self._misses += n
            return (
                np.zeros(n, dtype=bool),
                np.empty((n, FLOAT_COLS), dtype=np.float64),
                np.empty((n, INT_COLS), dtype=np.int64),
            )
        sets = self._sets_of(lo, hi)
        with self._lock:
            self._clock += 1
            slot = self._probe(lo, hi, sets)
            hits = slot >= 0
            self._tick[slot[hits]] = self._clock
            gather = np.where(hits, slot, 0)
            floats = np.take(self._floats, gather, axis=0)
            ints = np.take(self._ints, gather, axis=0)
            n_hit = int(np.count_nonzero(hits))
            self._hits += n_hit
            self._misses += n - n_hit
        return hits, floats, ints

    def put_batch(
        self, lo: np.ndarray, hi: np.ndarray, floats: np.ndarray, ints: np.ndarray
    ) -> None:
        """Upsert a batch of packed rows (no effect when disabled).

        Keys already stored are overwritten in place; duplicate keys
        within one batch resolve to the last row.  A new key takes an
        empty way of its two sets, else evicts the least recently used
        one (see :meth:`_place`).
        """
        if self.capacity == 0 or lo.size == 0:
            return
        sets = self._sets_of(lo, hi)
        with self._lock:
            self._clock += 1
            slot = self._probe(lo, hi, sets)
            # Refresh upserted slots first so placement cannot evict them.
            self._tick[slot[slot >= 0]] = self._clock
            self._place(lo, hi, sets, slot, self._clock)
            stored = slot >= 0
            if not stored.all():
                slot, lo, hi = slot[stored], lo[stored], hi[stored]
                floats, ints = floats[stored], ints[stored]
            self._lo[slot] = lo
            self._hi[slot] = hi
            self._floats[slot] = floats
            self._ints[slot] = ints

    # -- bookkeeping ----------------------------------------------------

    def stats(self) -> CacheStats:
        """Hit/miss counters and entry count of the table."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                size=self._size,
                maxsize=self.capacity,
            )

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._reset()

    # -- persistence -----------------------------------------------------

    def save(self, path: "str | Path") -> Path:
        """Write every packed entry to one snapshot file.

        Entries are written oldest-first so a capacity-constrained
        :meth:`load` keeps the most recently used ones.  The snapshot
        is an array container (:mod:`repro.engine.container`) with the
        ``GFSTORE`` + u16 format prefix and a SHA-256 digest; it is
        uncompressed (a full 65,536-entry store is about 14.7 MB).

        The write is crash-safe (:func:`repro.engine.atomicio.atomic_write_bytes`),
        so a crash mid-save leaves the previous snapshot intact instead
        of a torn file that :meth:`load` would reject.
        """
        with self._lock:
            slots = np.nonzero((self._tick >= 0) & (self._tick != _UNUSABLE))[0]
            slots = slots[np.argsort(self._tick[slots], kind="stable")]
            arrays = {
                "lo": self._lo[slots],
                "hi": self._hi[slots],
                "floats": self._floats[slots],
                "ints": self._ints[slots],
            }
        return atomic_write_bytes(
            Path(path),
            container.encode({}, arrays, prefix=_SNAPSHOT_PREFIX, digest=True),
        )

    def load(self, path: "str | Path") -> int:
        """Merge a persisted snapshot into this store.

        The rows go in as one batch, so a store smaller than the dump
        keeps the most recently used entries of each set (the dump is
        oldest-first).  Returns the number of entries read; counters
        are untouched (loading is not a lookup).

        Raises :class:`~repro.errors.StoreCorruptError` when the file is
        truncated, corrupted, unreadable or written in another format
        (a version-1 ``.npz`` dump included) — anything short of a
        clean, version-matched snapshot.  A missing file still raises
        :class:`FileNotFoundError` (absence is a different condition
        from damage, and callers branch on it).
        """
        try:
            _, arrays = container.decode(
                Path(path).read_bytes(), prefix=_SNAPSHOT_PREFIX, digest=True
            )
            n = container.expect(arrays, _SNAPSHOT_SCHEMA)
        except FileNotFoundError:
            raise
        except (OSError, ContainerError) as exc:
            raise StoreCorruptError(
                f"cannot read cache file {path}: {exc}"
            ) from exc
        self.put_batch(
            arrays["lo"], arrays["hi"], arrays["floats"], arrays["ints"]
        )
        return n
