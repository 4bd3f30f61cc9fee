"""The bottom-k reservoir against a brute-force oracle.

:class:`~repro.engine.vector.reducers.ReservoirQuantiles` hashes in
tiles, admits rows against a stale threshold and compresses lazily.
None of that may show: under any chunking, merge order or resume, the
kept set is the ``k`` finite rows with the smallest
``splitmix64(index ^ seed_mix)``.  Each case runs at the shipped tile
size and at an 8-row tile, so chunks cross tile and pending-buffer
boundaries many times.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.engine.vector import reducers
from repro.engine.vector.reducers import ReservoirQuantiles, _splitmix64

SEED = 2024


@pytest.fixture(params=["shipped", "tiny"])
def geometry(request, monkeypatch):
    """The shipped tile size, or 8 rows (the pending buffer then holds
    ``max(k, 8)`` rows)."""
    if request.param == "tiny":
        monkeypatch.setattr(reducers, "RESERVOIR_TILE_ROWS", 8)
    return request.param


def _values(rng, n: int, non_finite: bool) -> np.ndarray:
    values = rng.lognormal(0.0, 0.5, n)
    if non_finite:
        values[rng.random(n) < 0.2] = np.nan
        values[rng.random(n) < 0.05] = np.inf
        values[rng.random(n) < 0.05] = -np.inf
    return values


def _chunk(values: np.ndarray) -> types.SimpleNamespace:
    return types.SimpleNamespace(ratios=values)


def _cuts(rng, start: int, stop: int, style: str) -> list[tuple[int, int]]:
    """Chunk bounds over ``[start, stop)``: single rows, or random cuts."""
    if style == "rows":
        edges = list(range(start, stop + 1))
    else:
        inner = rng.integers(start, stop + 1, int(rng.integers(0, 9)))
        edges = [start, *sorted(inner.tolist()), stop]
    return list(zip(edges[:-1], edges[1:]))


def _feed(reservoir, values, bounds) -> None:
    for a, b in bounds:
        reservoir.update(_chunk(values[a:b]), a)


def _oracle(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force bottom-k: (priorities, values) in ascending priority."""
    seed_mix = int(_splitmix64(np.uint64(SEED)))
    rows = np.flatnonzero(np.isfinite(values))
    priorities = _splitmix64(rows.astype(np.uint64) ^ np.uint64(seed_mix))
    order = np.argsort(priorities)[:k]
    return priorities[order], values[rows[order]]


def _assert_matches_oracle(reservoir, values, k) -> None:
    priorities, kept = _oracle(values, k)
    state = reservoir.to_state()
    assert int(state["n_seen"][0]) == int(np.isfinite(values).sum())
    np.testing.assert_array_equal(state["priorities"], priorities)
    np.testing.assert_array_equal(state["values"], kept)
    np.testing.assert_array_equal(reservoir.sample(), np.sort(kept))


#: (rows, k, chunking style, non-finite rows)
CASES = [
    (40, 1, "rows", False),
    (40, 7, "rows", True),
    (300, 7, "cuts", True),
    (300, 1000, "cuts", True),
    (70_000, 1, "cuts", False),
    (70_000, 7, "cuts", True),
    (70_000, 5_000, "cuts", True),
    (70_000, 100_000, "cuts", False),
]


@pytest.mark.parametrize("n, k, style, non_finite", CASES)
def test_kept_set_is_the_bottom_k(geometry, n, k, style, non_finite):
    rng = np.random.default_rng([n, k, len(style), non_finite])
    values = _values(rng, n, non_finite)
    reservoir = ReservoirQuantiles(k=k, seed=SEED)
    _feed(reservoir, values, _cuts(rng, 0, n, style))
    _assert_matches_oracle(reservoir, values, k)
    assert reservoir.exact == (int(np.isfinite(values).sum()) <= k)


@pytest.mark.parametrize("n, k, style, non_finite", CASES)
def test_merged_partials_in_any_order(geometry, n, k, style, non_finite):
    rng = np.random.default_rng([n, k, len(style), non_finite, 1])
    values = _values(rng, n, non_finite)
    prototype = ReservoirQuantiles(k=k, seed=SEED)
    edges = sorted({0, n, *rng.integers(0, n + 1, 4).tolist()})
    partials = []
    for start, stop in zip(edges[:-1], edges[1:]):
        partial = prototype.fresh()
        _feed(partial, values, _cuts(rng, start, stop, style))
        partials.append(partial)
    merged = prototype.fresh()
    for index in rng.permutation(len(partials)):
        merged.merge(partials[index])
    _assert_matches_oracle(merged, values, k)


@pytest.mark.parametrize("canonical", [True, False])
@pytest.mark.parametrize("n, k, style, non_finite", CASES)
def test_resume_from_state_mid_stream(geometry, canonical, n, k, style,
                                      non_finite):
    rng = np.random.default_rng([n, k, len(style), non_finite, 2])
    values = _values(rng, n, non_finite)
    bounds = _cuts(rng, 0, n, style)
    cut = int(rng.integers(0, len(bounds) + 1))
    first = ReservoirQuantiles(k=k, seed=SEED)
    _feed(first, values, bounds[:cut])
    resumed = ReservoirQuantiles(k=k, seed=SEED).from_state(
        first.to_state(canonical=canonical)
    )
    _feed(resumed, values, bounds[cut:])
    _assert_matches_oracle(resumed, values, k)


def test_cadence_snapshot_is_never_written_again(geometry):
    """``to_state(canonical=False)`` hands out the kept arrays themselves
    (no copy); updates, compressions and merges after it rebind them."""
    rng = np.random.default_rng(11)
    n, k = 140_000, 4_096
    values = _values(rng, n, non_finite=True)
    reservoir = ReservoirQuantiles(k=k, seed=SEED)
    bounds = _cuts(rng, 0, n, "cuts")
    snapshots = []
    for a, b in bounds:
        reservoir.update(_chunk(values[a:b]), a)
        state = reservoir.to_state(canonical=False)
        assert state["priorities"] is reservoir._priorities
        assert state["values"] is reservoir._values
        snapshots.append(
            (state, {key: array.copy() for key, array in state.items()})
        )
    other = reservoir.fresh()
    other.update(_chunk(values), n)
    reservoir.merge(other)
    reservoir.sample()
    for state, frozen in snapshots:
        for key, array in state.items():
            np.testing.assert_array_equal(array, frozen[key])
    assert not np.array_equal(
        reservoir.to_state(canonical=False)["priorities"],
        snapshots[-1][1]["priorities"],
    )


def test_pickle_ships_the_kept_set_and_resumes_bit_identically():
    """A partial pickles to its kept set plus a small constant (no tile
    scratch, no pending buffer), and the unpickled reducer goes on
    updating exactly like the original."""
    import pickle

    k, rows = 65_536, 131_072
    values = _values(np.random.default_rng(7), 6 * rows, non_finite=True)
    original = ReservoirQuantiles(k=k, seed=SEED)
    _feed(original, values, [(i * rows, (i + 1) * rows) for i in range(4)])
    payload = pickle.dumps(original)
    kept = original.to_state(canonical=False)
    kept_bytes = kept["priorities"].nbytes + kept["values"].nbytes
    assert kept_bytes == 16 * k
    assert len(payload) <= kept_bytes + 1024

    copy = pickle.loads(payload)
    later = [(i * rows, (i + 1) * rows) for i in range(4, 6)]
    _feed(original, values, later)
    _feed(copy, values, later)
    for name, array in original.to_state().items():
        got = copy.to_state()[name]
        assert got.dtype == array.dtype
        np.testing.assert_array_equal(got, array)
    _assert_matches_oracle(copy, values, k)
