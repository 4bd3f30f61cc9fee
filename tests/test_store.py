"""Tests for the array-backed, set-associative result store.

Covers digest stability (the scalar fold must agree with the vectorised
column fold bit-for-bit, and with itself across processes), get/put
sequences and eviction against a dict reference model, hit/miss
accounting, snapshot persistence round-trips, and the engine-level
guarantee that store-served batches are bit-identical to freshly
computed ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scenario import Scenario
from repro.engine import container
from repro.engine import (
    EvaluationEngine,
    ScenarioBatch,
    ShardedResultStore,
    batch_digests,
    comparator_digest,
    pair_digest,
)
from repro.engine.store import (
    FLOAT_COLS,
    INT_COLS,
    STORE_FORMAT_VERSION,
    WAYS,
    materialise_comparison,
    pack_comparison,
)
from repro.errors import ParameterError, StoreCorruptError


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------


def test_scalar_and_column_digests_agree(dnn_comparator):
    scenarios = tuple(
        Scenario(
            num_apps=n,
            app_lifetime_years=0.5 * n,
            volume=1_000 * n,
            evaluation_years=None if n % 2 else 10.0,
            app_size_mgates=None if n % 3 else 5.0,
            enforce_chip_lifetime=bool(n % 2),
        )
        for n in range(1, 9)
    )
    batch = ScenarioBatch.from_scenarios(scenarios)
    lo, hi = batch_digests(dnn_comparator, batch)
    for i, scenario in enumerate(scenarios):
        assert pair_digest(dnn_comparator, scenario) == (int(lo[i]), int(hi[i]))


def test_ragged_rows_digest_via_scalar_fold(dnn_comparator):
    ragged = Scenario(num_apps=2, app_lifetime_years=[1.0, 2.0], volume=10)
    uniform = Scenario(num_apps=2, app_lifetime_years=1.0, volume=10)
    batch = ScenarioBatch.from_scenarios((ragged, uniform))
    lo, hi = batch_digests(dnn_comparator, batch)
    assert (int(lo[0]), int(hi[0])) == pair_digest(dnn_comparator, ragged)
    assert (int(lo[1]), int(hi[1])) == pair_digest(dnn_comparator, uniform)
    assert (int(lo[0]), int(hi[0])) != (int(lo[1]), int(hi[1]))


def test_digest_accepts_float_volumes_like_the_scalar_models(dnn_comparator):
    """``Scenario`` tolerates float volumes (only ``>= 1`` is checked,
    and the CLI parses ``--volume`` as float); the digest must fold them
    without raising, treat integral floats as their int spelling, and
    keep *fractional* volumes distinct, so they never collide in the
    store."""
    import dataclasses

    base = Scenario(num_apps=5, app_lifetime_years=2.0, volume=1_000_000)
    integral_float = dataclasses.replace(base, volume=1.0e6)
    assert pair_digest(dnn_comparator, integral_float) == pair_digest(
        dnn_comparator, base
    )

    low = dataclasses.replace(base, volume=1000.2)
    high = dataclasses.replace(base, volume=1000.8)
    assert pair_digest(dnn_comparator, low) != pair_digest(dnn_comparator, high)
    assert pair_digest(dnn_comparator, low) != pair_digest(
        dnn_comparator, dataclasses.replace(base, volume=1000)
    )

    engine = EvaluationEngine()
    first = engine.evaluate(dnn_comparator, low)
    second = engine.evaluate(dnn_comparator, high)
    assert first == dnn_comparator.compare(low)
    assert second == dnn_comparator.compare(high)
    assert first.ratio != second.ratio  # the old collision served one result


def test_fractional_volume_is_exact_on_the_kernel(dnn_comparator):
    """The float64 volume column keeps 1000.7 (an int column would
    truncate it to 1000): batch rows equal the scalar model bit for bit,
    cold and warm."""
    import dataclasses

    fractional = dataclasses.replace(
        Scenario(num_apps=2, app_lifetime_years=1.0, volume=1000), volume=1000.7
    )
    batch = ScenarioBatch.from_scenarios((fractional,) * 2)
    np.testing.assert_array_equal(batch.volume, [1000.7, 1000.7])
    engine = EvaluationEngine()
    direct = dnn_comparator.compare(fractional)
    for _ in range(2):
        result = engine.evaluate_batch(dnn_comparator, batch)
        assert result.comparison(0, fractional) == direct
        assert float(result.ratios[0]) == direct.ratio
    assert engine.cache_stats.hits == 2  # uniform rows are cached


def test_row_digests_are_pinned(dnn_comparator):
    """Persisted stores key rows by these digests: the constants were
    produced before the volume column became float64 and lifetimes could
    form an (n, w) block, so a stored uniform row stays a hit."""
    batch = ScenarioBatch.from_scenarios([
        Scenario(num_apps=5, app_lifetime_years=2.0, volume=1_000_000),
        Scenario(num_apps=2, app_lifetime_years=0.5, volume=7,
                 evaluation_years=9.0, app_size_mgates=60.0,
                 enforce_chip_lifetime=True),
        Scenario(num_apps=3, app_lifetime_years=[1.0, 2.0, 2.0], volume=10),
        Scenario(num_apps=3, app_lifetime_years=2.0, volume=10.5),
    ])
    lo, hi = batch_digests(dnn_comparator, batch)
    assert [(int(a), int(b)) for a, b in zip(lo, hi)] == [
        (0x5676937F852A7F23, 0x474954D50067DA74),
        (0x5239073343BF7748, 0x2354DD0A1A271CAC),
        (8237797599769520117, 910428276349878130),
        (13538796134984334950, 5082259247362771973),
    ]


def test_digest_normalises_lifetime_spellings(dnn_comparator):
    scalar = Scenario(num_apps=3, app_lifetime_years=2.0, volume=10)
    expanded = Scenario(num_apps=3, app_lifetime_years=[2.0, 2.0, 2.0], volume=10)
    assert pair_digest(dnn_comparator, scalar) == pair_digest(
        dnn_comparator, expanded
    )


def test_digest_distinguishes_fields(dnn_comparator, small_scenario):
    import dataclasses

    base = pair_digest(dnn_comparator, small_scenario)
    for changed in (
        small_scenario.with_num_apps(small_scenario.num_apps + 1),
        small_scenario.with_volume(small_scenario.volume + 1),
        small_scenario.with_lifetime(small_scenario.lifetimes[0] + 0.25),
        dataclasses.replace(small_scenario, evaluation_years=9.0),
        dataclasses.replace(small_scenario, app_size_mgates=2.0),
        dataclasses.replace(small_scenario, enforce_chip_lifetime=True),
    ):
        assert pair_digest(dnn_comparator, changed) != base


def test_comparator_digest_is_stable_and_distinct(dnn_comparator):
    """The comparator seed must survive interpreter restarts.

    ``hash()`` is salted per process; the BLAKE2b-over-pickle digest is
    not.  The constant below was produced by an independent Python
    process — a digest change means persisted caches silently go cold.
    """
    import dataclasses

    from repro.operation.model import OperationModel

    a = comparator_digest(dnn_comparator)
    assert a == comparator_digest(dnn_comparator)
    perturbed = dataclasses.replace(
        dnn_comparator,
        suite=dnn_comparator.suite.with_overrides(
            operation=OperationModel(energy_source="coal")
        ),
    )
    assert comparator_digest(perturbed) != a


# ----------------------------------------------------------------------
# Store semantics
# ----------------------------------------------------------------------


def _rows(keys):
    """Synthetic packed rows whose values encode their key."""
    lo = np.array(keys, dtype=np.uint64)
    hi = lo ^ np.uint64(0xDEADBEEF)
    floats = np.arange(len(keys) * FLOAT_COLS, dtype=np.float64).reshape(
        len(keys), FLOAT_COLS
    ) + lo[:, None].astype(np.float64)
    ints = np.arange(len(keys) * INT_COLS, dtype=np.int64).reshape(
        len(keys), INT_COLS
    ) + lo[:, None].astype(np.int64)
    return lo, hi, floats, ints


def test_store_put_get_roundtrip_bit_identical():
    store = ShardedResultStore(capacity=32)
    lo, hi, floats, ints = _rows(range(10))
    store.put_batch(lo, hi, floats, ints)
    hits, got_f, got_i = store.get_batch(lo, hi)
    assert hits.all()
    np.testing.assert_array_equal(got_f, floats)
    np.testing.assert_array_equal(got_i, ints)
    stats = store.stats()
    assert stats.hits == 10 and stats.misses == 0 and stats.size == 10


def test_store_counts_misses_then_hits():
    store = ShardedResultStore(capacity=16)
    lo, hi, floats, ints = _rows(range(4))
    hits, _, _ = store.get_batch(lo, hi)
    assert not hits.any()
    store.put_batch(lo, hi, floats, ints)
    hits, _, _ = store.get_batch(lo, hi)
    assert hits.all()
    stats = store.stats()
    assert stats.misses == 4 and stats.hits == 4
    assert stats.hit_rate == pytest.approx(0.5)
    assert stats.maxsize == 16


def test_store_high_word_mismatch_is_a_miss():
    """A low-word collision must degrade to a miss, never a wrong row."""
    store = ShardedResultStore(capacity=8)
    lo, hi, floats, ints = _rows([7])
    store.put_batch(lo, hi, floats, ints)
    wrong_hi = hi ^ np.uint64(1)
    hits, _, _ = store.get_batch(lo, wrong_hi)
    assert not hits.any()
    hits, _, _ = store.get_batch(lo, hi)
    assert hits.all()


def test_store_eviction_keeps_size_bounded_and_recency():
    store = ShardedResultStore(capacity=8)
    for start in range(0, 32, 4):
        lo, hi, floats, ints = _rows(range(start, start + 4))
        store.put_batch(lo, hi, floats, ints)
    assert store.stats().size <= 8
    # The most recent batch must have survived every eviction round.
    lo, hi, floats, ints = _rows(range(28, 32))
    hits, got_f, _ = store.get_batch(lo, hi)
    assert hits.all()
    np.testing.assert_array_equal(got_f, floats)
    # The oldest batch was evicted.
    lo, hi, _, _ = _rows(range(0, 4))
    hits, _, _ = store.get_batch(lo, hi)
    assert not hits.any()


def test_store_in_batch_duplicates_resolve_last_row_wins():
    store = ShardedResultStore(capacity=16)
    lo, hi, floats, ints = _rows([5, 9, 5, 5, 9])
    floats[:, 0] = np.arange(5.0)
    ints[:, 0] = np.arange(5)
    store.put_batch(lo, hi, floats, ints)
    assert store.stats().size == 2
    hits, got_f, got_i = store.get_batch(lo[:2], hi[:2])
    assert hits.all()
    np.testing.assert_array_equal(got_f, floats[[3, 4]])
    np.testing.assert_array_equal(got_i, ints[[3, 4]])
    # Duplicates of a stored key overwrite it in place, last row winning.
    floats[:, 1] = -1.0
    store.put_batch(lo[::-1], hi[::-1], floats, ints)
    hits, got_f, _ = store.get_batch(lo[:2], hi[:2])
    assert hits.all() and store.stats().size == 2
    np.testing.assert_array_equal(got_f, floats[[4, 3]])


def test_store_overfull_put_keeps_its_upserts_and_latest_rows():
    store = ShardedResultStore(capacity=8)  # one set of eight ways
    store.put_batch(*_rows(range(8)))
    # Key 7, the last row, took way 0: the way a tie between equally
    # recent ways falls to once the set holds only this put's keys.
    lo, hi, floats, ints = _rows([7] + list(range(100, 120)))
    store.put_batch(lo, hi, floats, ints)
    assert store.stats().size == 8
    hits, got_f, _ = store.get_batch(lo, hi)
    # The upserted key and the last seven new rows fill the set.
    assert hits.tolist() == [True] + [False] * 13 + [True] * 7
    np.testing.assert_array_equal(got_f[hits], floats[hits])


def _must_survive(capacity: int, keys: np.ndarray) -> np.ndarray:
    """Keys of one put that the put cannot have dropped.

    A key lives in one of two sets (``lo`` and ``hi`` mod the set
    count) and is dropped only when every usable way of both holds
    another key of the same put.  Each set has ``WAYS`` usable ways,
    fewer in the last set when the capacity is not a multiple of
    ``WAYS``.
    """
    n_sets = -(-capacity // WAYS)
    pair = (keys % np.uint64(n_sets)).astype(np.int64)
    same = pair[:, 0] == pair[:, 1]
    touching = np.bincount(pair[:, 0], minlength=n_sets) + np.bincount(
        pair[~same, 1], minlength=n_sets
    )
    usable = np.minimum(WAYS, capacity - np.arange(n_sets) * WAYS)
    others = touching[pair[:, 0]] + np.where(same, 0, touching[pair[:, 1]]) - 1
    room = usable[pair[:, 0]] + np.where(same, 0, usable[pair[:, 1]])
    return others < room


@pytest.mark.parametrize("capacity", [0, 1, 7, 48, 4096, 65_536])
def test_store_matches_a_dict_model(capacity):
    """Seeded random get/put sequences against a dict reference model.

    A hit must return the last-put payload bit for bit; keys never put,
    including ones that only differ in the ``hi`` word or in the low
    bits of ``lo``, must miss; the
    size never exceeds the capacity; and every key of the latest put
    survives whenever its two sets had room for all of that put's keys.
    """
    rng = np.random.default_rng(1000 + capacity)
    pool_size = 3 * capacity + 16
    pool_lo = rng.integers(0, 2**64, pool_size, dtype=np.uint64)
    pool_hi = rng.integers(0, 2**64, pool_size, dtype=np.uint64)
    pool_lo[1::5] = pool_lo[::5][: pool_lo[1::5].size]  # lo-sharing pairs
    pool_hi[1::5] ^= np.uint64(1)
    # hi-sharing pairs whose lo differs only below the probe tag bits
    pool_hi[2::5] = pool_hi[::5][: pool_hi[2::5].size]
    pool_lo[2::5] = pool_lo[::5][: pool_lo[2::5].size] ^ np.uint64(1)
    max_batch = min(4 * capacity + 4, 3000)
    store = ShardedResultStore(capacity=capacity)
    model: dict[tuple[int, int], tuple[bytes, bytes]] = {}
    lookups = 0

    def check_get(lo, hi, ghosts=None):
        nonlocal lookups
        hits, got_f, got_i = store.get_batch(lo, hi)
        lookups += lo.size
        for r in np.nonzero(hits)[0]:
            key = (int(lo[r]), int(hi[r]))
            assert key in model
            assert (got_f[r].tobytes(), got_i[r].tobytes()) == model[key]
        if ghosts is not None:
            assert not hits[ghosts].any()
        return hits

    for _ in range(40):
        n = int(rng.integers(1, max_batch + 1))
        pick = rng.integers(0, pool_size, n)
        lo, hi = pool_lo[pick], pool_hi[pick]
        if rng.random() < 0.5:
            floats = rng.integers(
                0, 2**63, (n, FLOAT_COLS), dtype=np.uint64
            ).view(np.float64)
            ints = rng.integers(-(2**62), 2**62, (n, INT_COLS), dtype=np.int64)
            store.put_batch(lo, hi, floats, ints)
            for r in range(n):
                model[(int(lo[r]), int(hi[r]))] = (
                    floats[r].tobytes(), ints[r].tobytes()
                )
            if capacity:
                keys = np.unique(np.stack([lo, hi], axis=1), axis=0)
                kept = keys[_must_survive(capacity, keys)]
                assert check_get(kept[:, 0].copy(), kept[:, 1].copy()).all()
        else:
            ghost_hi = hi ^ np.uint64(2)  # pool hi words differ only in bit 0
            ghosts = rng.random(n) < 0.3
            check_get(lo, np.where(ghosts, ghost_hi, hi), ghosts)
        stats = store.stats()
        assert stats.size <= capacity
        assert stats.hits + stats.misses == lookups
    if capacity == 0:
        assert stats.hits == 0 and stats.misses == lookups and stats.size == 0


def test_store_below_capacity_keeps_every_entry():
    """Set conflicts must not evict while the table has room: 73% of
    the capacity in random keys, put 100 at a time, all stay."""
    rng = np.random.default_rng(3)
    n = 3000
    lo = rng.integers(0, 2**64, n, dtype=np.uint64)
    hi = rng.integers(0, 2**64, n, dtype=np.uint64)
    floats = np.zeros((100, FLOAT_COLS))
    ints = np.zeros((100, INT_COLS), dtype=np.int64)
    store = ShardedResultStore(capacity=4096)
    for start in range(0, n, 100):
        store.put_batch(lo[start:start + 100], hi[start:start + 100],
                        floats, ints)
    assert store.stats().size == n
    assert store.get_batch(lo, hi)[0].all()


def test_store_capacity_zero_disables_storage():
    store = ShardedResultStore(capacity=0)
    lo, hi, floats, ints = _rows(range(3))
    store.put_batch(lo, hi, floats, ints)
    hits, _, _ = store.get_batch(lo, hi)
    assert not hits.any()
    stats = store.stats()
    assert stats.size == 0 and stats.misses == 3  # disabled still counts


def test_store_validates_arguments():
    with pytest.raises(ParameterError):
        ShardedResultStore(capacity=-1)


def test_store_clear_resets_everything():
    store = ShardedResultStore(capacity=8)
    lo, hi, floats, ints = _rows(range(4))
    store.put_batch(lo, hi, floats, ints)
    store.get_batch(lo, hi)
    store.clear()
    stats = store.stats()
    assert stats.size == 0 and stats.hits == 0 and stats.misses == 0
    hits, _, _ = store.get_batch(lo, hi)
    assert not hits.any()


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------


def test_store_save_load_roundtrip_bit_identical(tmp_path):
    store = ShardedResultStore(capacity=64)
    lo, hi, floats, ints = _rows(range(20))
    # Non-trivial float payloads: negative, subnormal-ish, huge.
    floats[:, 0] = np.linspace(-1.0e300, 1.0e-300, 20)
    store.put_batch(lo, hi, floats, ints)
    path = store.save(tmp_path / "warmth.npz")

    loaded = ShardedResultStore(capacity=64)
    assert loaded.load(path) == 20
    hits, got_f, got_i = loaded.get_batch(lo, hi)
    assert hits.all()
    np.testing.assert_array_equal(got_f, floats)
    np.testing.assert_array_equal(got_i, ints)
    stats = loaded.stats()
    # Loading is not a lookup: only the verification pass counts.
    assert stats.hits == 20 and stats.misses == 0 and stats.size == 20


def test_store_save_crash_mid_write_keeps_previous_snapshot(
    tmp_path, monkeypatch
):
    """A save that dies mid-write must not tear the previous snapshot.

    ``save`` goes through the atomic writer (tmp + fsync + os.replace),
    so a crash while the new bytes are being written leaves the old
    file byte-identical and loadable — and no temp litter behind.
    """
    store = ShardedResultStore(capacity=64)
    lo, hi, floats, ints = _rows(range(12))
    store.put_batch(lo, hi, floats, ints)
    path = store.save(tmp_path / "warmth.npz")
    before = path.read_bytes()

    lo2, hi2, floats2, ints2 = _rows(range(12, 24))
    store.put_batch(lo2, hi2, floats2, ints2)

    import repro.engine.atomicio as atomicio

    real_replace = atomicio.os.replace

    def _dies(src_path, dst_path):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(atomicio.os, "replace", _dies)
    with pytest.raises(OSError, match="simulated crash"):
        store.save(path)
    monkeypatch.setattr(atomicio.os, "replace", real_replace)

    assert path.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp.*"))
    loaded = ShardedResultStore(capacity=64)
    assert loaded.load(path) == 12
    hits, got_f, _ = loaded.get_batch(lo, hi)
    assert hits.all()
    np.testing.assert_array_equal(got_f, floats)

    # And a healthy save afterwards picks up the full store again.
    store.save(path)
    fresh = ShardedResultStore(capacity=64)
    assert fresh.load(path) == 24


def test_store_overflow_save_load_keeps_most_recent(tmp_path):
    """Fill past capacity, round-trip, and verify eviction + counters."""
    store = ShardedResultStore(capacity=8)
    for start in range(0, 24, 4):
        lo, hi, floats, ints = _rows(range(start, start + 4))
        store.put_batch(lo, hi, floats, ints)
    assert store.stats().size <= 8
    path = store.save(tmp_path / "overflow.npz")

    loaded = ShardedResultStore(capacity=8)
    n = loaded.load(path)
    assert n == store.stats().size
    lo, hi, floats, ints = _rows(range(20, 24))
    hits, got_f, got_i = loaded.get_batch(lo, hi)
    assert hits.all()
    np.testing.assert_array_equal(got_f, floats)
    np.testing.assert_array_equal(got_i, ints)
    stats = loaded.stats()
    assert stats.hits == 4 and stats.misses == 0


def test_store_v1_npz_snapshot_is_a_typed_error_and_starts_cold(
    tmp_path, dnn_comparator, caplog
):
    """A version-1 dump (``np.savez_compressed`` with the v1 keys, as
    earlier releases wrote it) is another format: the store raises the
    typed corruption error, and an engine warming from it starts cold
    with a warning."""
    import logging

    lo, hi, floats, ints = _rows(range(100, 140))
    path = tmp_path / "v1.npz"
    with path.open("wb") as handle:
        np.savez_compressed(
            handle,
            meta=np.array([1, FLOAT_COLS, INT_COLS], dtype=np.int64),
            lo=lo, hi=hi, floats=floats, ints=ints,
        )
    with pytest.raises(StoreCorruptError, match="bad prefix"):
        ShardedResultStore().load(path)
    with caplog.at_level(logging.WARNING, logger="repro.engine.engine"):
        engine = EvaluationEngine(cache_file=path)
    assert any("starting cold" in rec.message for rec in caplog.records)
    assert engine.cache_stats.size == 0
    scenario = Scenario(num_apps=3, app_lifetime_years=1.5, volume=10_000)
    assert engine.evaluate(dnn_comparator, scenario) == (
        dnn_comparator.compare(scenario)
    )


def test_store_snapshot_keeps_nan_and_negative_zero_bits(tmp_path):
    lo, hi, floats, ints = _rows(range(100, 140))
    floats[:, 3] = np.nan
    floats[:, 4] = -0.0
    store = ShardedResultStore(capacity=4096)
    store.put_batch(lo, hi, floats, ints)
    loaded = ShardedResultStore(capacity=4096)
    assert loaded.load(store.save(tmp_path / "warmth.snap")) == 40
    hits, got_f, got_i = loaded.get_batch(lo, hi)
    assert hits.all()
    np.testing.assert_array_equal(got_f.view(np.uint64), floats.view(np.uint64))
    np.testing.assert_array_equal(got_i, ints)


def test_store_load_into_smaller_store_keeps_most_recent(tmp_path):
    store = ShardedResultStore(capacity=64)
    for start in range(0, 40, 4):
        store.put_batch(*_rows(range(start, start + 4)))
    lo, hi, _, _ = _rows(range(0, 4))
    assert store.get_batch(lo, hi)[0].all()  # keys 0-3 become most recent
    path = store.save(tmp_path / "warmth.npz")

    small = ShardedResultStore(capacity=8)
    assert small.load(path) == 40
    assert small.stats().size == 8
    for keys in (range(0, 4), range(36, 40)):
        lo, hi, floats, ints = _rows(keys)
        hits, got_f, got_i = small.get_batch(lo, hi)
        assert hits.all()
        np.testing.assert_array_equal(got_f, floats)
        np.testing.assert_array_equal(got_i, ints)
    lo, hi, _, _ = _rows(range(4, 36))
    assert not small.get_batch(lo, hi)[0].any()


def _snapshot(path, arrays, version=STORE_FORMAT_VERSION) -> None:
    """Write ``arrays`` as a snapshot container of format ``version``."""
    prefix = b"GFSTORE" + version.to_bytes(2, "little")
    path.write_bytes(
        container.encode({}, arrays, prefix=prefix, digest=True)
    )


def _snapshot_arrays(n=4, float_rows=None):
    return {
        "lo": np.arange(n, dtype=np.uint64),
        "hi": np.arange(n, dtype=np.uint64),
        "floats": np.zeros((n if float_rows is None else float_rows,
                            FLOAT_COLS)),
        "ints": np.zeros((n, INT_COLS), np.int64),
    }


def test_store_load_rejects_incompatible_format(tmp_path):
    path = tmp_path / "bad.snap"
    _snapshot(path, _snapshot_arrays(), version=999)
    # Typed as StoreCorruptError, which subclasses ParameterError so
    # pre-existing callers catching the base keep working.
    with pytest.raises(StoreCorruptError, match="bad prefix"):
        ShardedResultStore().load(path)
    with pytest.raises(ParameterError):
        ShardedResultStore().load(path)


def _saved_store_path(tmp_path, n_rows: int = 16):
    store = ShardedResultStore(capacity=64)
    lo, hi, floats, ints = _rows(range(n_rows))
    store.put_batch(lo, hi, floats, ints)
    return store.save(tmp_path / "warmth.npz")


def test_store_load_byte_truncated_file_raises_typed_error(tmp_path):
    """A partially written dump (killed mid-save, full disk) must raise
    the typed corruption error at every truncation point, never a bare
    OSError/ValueError and never silently load garbage rows."""
    path = _saved_store_path(tmp_path)
    blob = path.read_bytes()
    for keep in (len(blob) // 2, len(blob) - 7, 3):
        truncated = tmp_path / f"truncated-{keep}.npz"
        truncated.write_bytes(blob[:keep])
        with pytest.raises(StoreCorruptError):
            ShardedResultStore().load(truncated)


def test_store_load_flipped_bytes_raise_or_load_consistently(tmp_path):
    """Random byte corruption must either raise the typed error (the
    snapshot digest catches it) or load *consistent* columns.  It must
    never escape as an untyped crash."""
    from repro.engine.serve.faults import FaultPlan

    path = _saved_store_path(tmp_path)
    FaultPlan(seed=11).corrupt_file(path, flips=64)
    store = ShardedResultStore()
    try:
        loaded = store.load(path)
    except StoreCorruptError:
        return
    assert 0 <= loaded <= store.stats().size


def test_store_load_missing_file_stays_file_not_found(tmp_path):
    """ENOENT is not corruption — callers distinguish 'no warmth yet'
    (fine, first run) from 'warmth damaged' (log loudly)."""
    with pytest.raises(FileNotFoundError):
        ShardedResultStore().load(tmp_path / "never-saved.npz")


def test_store_load_row_length_mismatch_raises(tmp_path):
    path = tmp_path / "ragged.snap"
    _snapshot(path, _snapshot_arrays(4, float_rows=3))  # 3 rows vs 4 keys
    with pytest.raises(StoreCorruptError, match="inconsistent"):
        ShardedResultStore().load(path)
    arrays = _snapshot_arrays(4)
    arrays["ints"] = arrays["ints"].astype(np.uint64)
    _snapshot(path, arrays)
    with pytest.raises(StoreCorruptError, match="inconsistent"):
        ShardedResultStore().load(path)
    _snapshot(path, _snapshot_arrays(4))
    assert ShardedResultStore().load(path) == 4


def test_engine_load_cache_corrupt_file_starts_cold(
    tmp_path, dnn_comparator, caplog
):
    """Engine-level contract: a damaged ``.npz`` warms nothing, logs a
    warning, and the engine still evaluates correctly from cold."""
    import logging

    path = _saved_store_path(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])

    with caplog.at_level(logging.WARNING, logger="repro.engine.engine"):
        engine = EvaluationEngine(cache_file=path)  # must not raise
    assert any("starting cold" in rec.message for rec in caplog.records)
    assert engine.cache_stats.size == 0

    scenario = Scenario(num_apps=3, app_lifetime_years=1.5, volume=10_000)
    assert engine.evaluate(dnn_comparator, scenario) == (
        dnn_comparator.compare(scenario)
    )
    # And saving over the corpse heals it for the next process.
    engine.save_cache(path)
    assert ShardedResultStore().load(path) >= 1


def test_engine_cache_path_that_cannot_be_read_starts_cold(
    tmp_path, dnn_comparator, caplog
):
    """A cache path that exists but cannot be read (here a directory)
    is unusable warmth, not a crash: the store raises the typed error
    and the engine starts cold with its warning."""
    import logging

    path = tmp_path / "cache.snap"
    path.mkdir()
    with pytest.raises(StoreCorruptError, match="cannot read"):
        ShardedResultStore().load(path)
    with caplog.at_level(logging.WARNING, logger="repro.engine.engine"):
        engine = EvaluationEngine(cache_file=path)
    assert any("starting cold" in rec.message for rec in caplog.records)
    assert engine.cache_stats.size == 0
    scenario = Scenario(num_apps=3, app_lifetime_years=1.5, volume=10_000)
    assert engine.evaluate(dnn_comparator, scenario) == (
        dnn_comparator.compare(scenario)
    )


# ----------------------------------------------------------------------
# Pack / materialise round trip
# ----------------------------------------------------------------------


def test_pack_materialise_round_trip(dnn_comparator, small_scenario):
    direct = dnn_comparator.compare(small_scenario)
    packed = pack_comparison(direct, dnn_comparator)
    assert packed is not None
    rebuilt = materialise_comparison(packed[0], packed[1], small_scenario)
    assert rebuilt == direct
    assert rebuilt.ratio == direct.ratio
    assert rebuilt.summary() == direct.summary()


def test_pack_comparison_rejects_ragged_lifetimes(dnn_comparator):
    ragged = Scenario(num_apps=2, app_lifetime_years=[1.0, 2.0], volume=100)
    result = dnn_comparator.compare(ragged)
    assert pack_comparison(result, dnn_comparator) is None


# ----------------------------------------------------------------------
# Engine-level store behaviour
# ----------------------------------------------------------------------


def test_engine_warm_batch_bit_identical_to_cold(dnn_comparator):
    from repro.analysis.heatmap import pairwise_heatmap_batch

    engine = EvaluationEngine()
    args = (
        dnn_comparator,
        Scenario(num_apps=5, app_lifetime_years=2.0, volume=1_000_000),
        "num_apps", tuple(range(1, 13)), "lifetime", (0.5, 1.0, 2.0, 3.0),
    )
    cold = pairwise_heatmap_batch(*args, engine=engine)
    computed = engine.rows_computed
    warm = pairwise_heatmap_batch(*args, engine=engine)
    np.testing.assert_array_equal(warm.ratios, cold.ratios)
    assert engine.rows_computed == computed  # warm run recomputed nothing
    assert engine.cache_stats.hits >= 48


def test_engine_batch_path_deduplicates_within_batch(dnn_comparator):
    engine = EvaluationEngine()
    scenarios = tuple(
        Scenario(num_apps=n, app_lifetime_years=1.0, volume=1_000)
        for n in (1, 2, 3, 1, 2, 3, 1, 2, 3)
    )
    result = engine.evaluate_batch(dnn_comparator, scenarios)
    assert result.size == 9
    assert engine.rows_computed == 3
    np.testing.assert_array_equal(result.ratios[:3], result.ratios[3:6])


def test_engine_object_and_batch_paths_share_warmth(dnn_comparator):
    scenarios = [
        Scenario(num_apps=n, app_lifetime_years=1.0, volume=5_000)
        for n in range(1, 13)
    ]
    engine = EvaluationEngine()
    objects = engine.evaluate_many(dnn_comparator, scenarios)  # object path
    computed = engine.rows_computed
    batch = engine.evaluate_batch(dnn_comparator, scenarios)  # batch path
    assert engine.rows_computed == computed  # served from shared warmth
    for i, (scenario, obj) in enumerate(zip(scenarios, objects)):
        assert batch.comparison(i, scenario) == obj


def test_engine_cache_file_round_trip(tmp_path, dnn_comparator):
    from repro.analysis.sweep import sweep_batch

    base = Scenario(num_apps=5, app_lifetime_years=2.0, volume=1_000_000)
    values = list(range(1, 33))
    path = tmp_path / "engine-warmth.npz"

    first = EvaluationEngine(cache_file=path)  # file absent: starts cold
    cold = sweep_batch(dnn_comparator, base, "num_apps", values, engine=first)
    assert first.rows_computed == len(values)
    first.save_cache()

    second = EvaluationEngine(cache_file=path)  # warm from disk
    warm = sweep_batch(dnn_comparator, base, "num_apps", values, engine=second)
    assert second.rows_computed == 0
    np.testing.assert_array_equal(warm.ratios, cold.ratios)
    np.testing.assert_array_equal(warm.fpga_totals, cold.fpga_totals)
    np.testing.assert_array_equal(warm.asic_totals, cold.asic_totals)
    # Object callers materialise from the persisted columns bit-identically.
    direct = dnn_comparator.compare(base.with_num_apps(7))
    assert second.evaluate(dnn_comparator, base.with_num_apps(7)) == direct


def test_engine_save_cache_requires_a_path(dnn_comparator):
    engine = EvaluationEngine()
    with pytest.raises(ParameterError):
        engine.save_cache()


def test_engine_ragged_scenarios_are_evaluated_not_cached(dnn_comparator):
    """The packed layout holds one per-application column set, so rows
    with heterogeneous lifetimes are recomputed on every request."""
    ragged = Scenario(num_apps=2, app_lifetime_years=[1.0, 2.0], volume=100)
    engine = EvaluationEngine()
    first = engine.evaluate(dnn_comparator, ragged)
    second = engine.evaluate(dnn_comparator, ragged)
    assert first == second == dnn_comparator.compare(ragged)
    batch = engine.evaluate_batch(dnn_comparator, [ragged] * 9)
    assert batch.comparison(8, ragged) == first
    stats = engine.cache_stats
    assert stats.hits == 0 and stats.size == 0
    assert engine.rows_computed == 3  # in-batch duplicates computed once
