"""Durable execution: reducer state contract, journal, crash/resume.

Three layers under test (see ``repro/engine/vector/checkpoint.py``):

* **state contract** — every registered reducer round-trips through
  ``to_state()``/``from_state()`` bit-identically, including non-finite
  draws and empty partials, and a revived partial merges to the exact
  state the original would have;
* **journal** — atomic persistence, resume, typed identity-mismatch
  errors, corruption-means-cold-start, and a crash *during* the save
  leaving the previous checkpoint intact;
* **crash/resume** — a streaming Monte-Carlo killed mid-run (in-process
  fault or a real SIGKILL of the whole process) and resumed against the
  same checkpoint finishes to results bit-identical to an uninterrupted
  run: summary counters, moments, quantile sketch, top-k and Pareto
  front.

``CHAOS_QUICK=1`` (the CI default, see ``scripts/check.sh``) scales the
SIGKILL study down to 1M draws; the invariants asserted are identical.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.montecarlo import (
    monte_carlo_reduction,
    monte_carlo_stream,
)
from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.engine import EvaluationEngine
from repro.engine.atomicio import atomic_write_bytes
from repro.engine.serve.faults import FaultPlan
from repro.engine.vector import (
    BatchResult,
    Checkpoint,
    CheckpointJournal,
    HistogramReducer,
    MomentsReducer,
    MonteCarloChunkSource,
    ParetoReducer,
    ReservoirQuantiles,
    StreamingReduction,
    TopKReducer,
    WinCountReducer,
    extract_row,
    run_stream,
    source_token,
)
from repro.engine.vector import checkpoint as checkpoint_module
from repro.engine.vector.checkpoint import (
    WRITER_THREAD_PREFIX,
    _decode,
    _encode,
)
from repro.engine.vector.reducers import REDUCER_REGISTRY
from repro.errors import (
    CheckpointMismatchError,
    ParameterError,
)
from repro.experiments.ext_uncertainty import distributions as table1_distributions

BASELINE = Scenario(num_apps=5, app_lifetime_years=2.0, volume=1_000_000)

QUICK = os.environ.get("CHAOS_QUICK", "0") == "1"

#: Draws in the SIGKILL chaos study — 1M+ in both modes (the acceptance
#: bar), larger in full mode so kills land deeper into the run.
SIGKILL_DRAWS = 1_200_000 if QUICK else 4_000_000


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _fake_result(
    ratios: np.ndarray,
    winners: "np.ndarray | None" = None,
    fpga: "np.ndarray | None" = None,
    asic: "np.ndarray | None" = None,
) -> BatchResult:
    """A minimal BatchResult carrying only the columns reducers read."""
    n = ratios.shape[0]
    zeros = np.zeros(n)
    ints = np.zeros(n, dtype=np.int64)
    return BatchResult(
        ratios=np.asarray(ratios, dtype=np.float64),
        winners=(
            winners if winners is not None else np.full(n, "asic", dtype="<U4")
        ),
        fpga_totals=zeros if fpga is None else np.asarray(fpga, float),
        asic_totals=zeros if asic is None else np.asarray(asic, float),
        fpga_components={},
        asic_components={},
        fpga_per_chip_embodied_kg=zeros,
        asic_per_chip_embodied_kg=zeros,
        n_fpga=ints,
        fpga_generations=ints,
        asic_generations=ints,
        num_apps=ints,
    )


def _assert_states_equal(a: dict, b: dict) -> None:
    """Bit-identity over packed state dicts, NaN-aware for float arrays."""
    assert a.keys() == b.keys()
    for key in a:
        left, right = np.asarray(a[key]), np.asarray(b[key])
        assert left.dtype == right.dtype, key
        equal_nan = left.dtype.kind == "f"
        assert np.array_equal(left, right, equal_nan=equal_nan), key


#: One canonical instance per registered reducer type.  The alignment of
#: every factory divides 64, so offset-64 chunks satisfy all of them.
_REDUCER_FACTORIES = {
    MomentsReducer: lambda: MomentsReducer(block=64),
    WinCountReducer: WinCountReducer,
    HistogramReducer: lambda: HistogramReducer(0.0, 4.0, 16),
    ReservoirQuantiles: lambda: ReservoirQuantiles(k=48, seed=7),
    TopKReducer: lambda: TopKReducer(k=8),
    ParetoReducer: ParetoReducer,
}


def _chunk(
    offset: int, rows: int = 64, finite: bool = False
) -> tuple[BatchResult, int]:
    """A deterministic chunk at ``offset`` with non-finite draws mixed
    in, unless ``finite`` (a full reservoir then takes its threshold
    fast path)."""
    rng = np.random.default_rng(1000 + offset)
    ratios = rng.uniform(0.1, 3.5, size=rows)
    if not finite:
        ratios[rng.integers(0, rows)] = np.nan
        ratios[rng.integers(0, rows)] = np.inf
        ratios[rng.integers(0, rows)] = -np.inf
    winners = np.where(rng.random(rows) < 0.4, "fpga", "asic").astype("<U4")
    fpga = rng.uniform(1.0, 9.0, size=rows)
    asic = rng.uniform(1.0, 9.0, size=rows)
    return _fake_result(ratios, winners, fpga, asic), offset


def _updated(factory, offsets: tuple[int, ...]):
    reducer = factory()
    for offset in offsets:
        result, off = _chunk(offset)
        reducer.update(result, off)
    return reducer


# ----------------------------------------------------------------------
# Satellite: reducer state-contract property test over the registry
# ----------------------------------------------------------------------


def test_registry_matches_factories():
    assert set(REDUCER_REGISTRY) == set(_REDUCER_FACTORIES)


@pytest.mark.parametrize(
    "cls", REDUCER_REGISTRY, ids=lambda cls: cls.__name__
)
def test_reducer_state_round_trip_and_merge_bit_identity(cls):
    factory = _REDUCER_FACTORIES[cls]

    # Round trip is bit-identical (non-finite draws included).
    original = _updated(factory, (0, 64))
    revived = factory().from_state(original.to_state())
    _assert_states_equal(revived.to_state(), original.to_state())

    # Merging revived partials == merging the originals, bit for bit.
    direct = _updated(factory, (0, 64))
    direct.merge(_updated(factory, (128, 192)))
    via_state = factory().from_state(_updated(factory, (0, 64)).to_state())
    via_state.merge(
        factory().from_state(_updated(factory, (128, 192)).to_state())
    )
    _assert_states_equal(via_state.to_state(), direct.to_state())

    # Empty partials round-trip and merge as no-ops.
    empty = factory().from_state(factory().to_state())
    _assert_states_equal(empty.to_state(), factory().to_state())
    padded = factory().from_state(_updated(factory, (0, 64)).to_state())
    padded.merge(empty)
    _assert_states_equal(
        padded.to_state(), _updated(factory, (0, 64)).to_state()
    )


def _bundle(quantile_k: int = 48) -> StreamingReduction:
    return StreamingReduction(
        {
            "moments": MomentsReducer(block=64),
            "wins": WinCountReducer(),
            "quantiles": ReservoirQuantiles(k=quantile_k, seed=7),
            "topk": TopKReducer(k=8),
            "pareto": ParetoReducer(),
        }
    )


def test_bundle_state_round_trip_and_schema_token():
    original = _updated(_bundle, (0, 64))
    revived = _bundle().from_state(original.to_state())
    _assert_states_equal(revived.to_state(), original.to_state())
    assert original.schema_token() == _bundle().schema_token()
    # The token is shape-level identity: a member swap changes it.
    assert (
        StreamingReduction({"wins": WinCountReducer()}).schema_token()
        != StreamingReduction({"pareto": ParetoReducer()}).schema_token()
    )


def test_bundle_rejects_member_drift_and_ambiguous_names():
    state = StreamingReduction({"wins": WinCountReducer()}).to_state()
    with pytest.raises(ParameterError, match="configured members"):
        StreamingReduction({"pareto": ParetoReducer()}).from_state(state)
    with pytest.raises(ParameterError, match="::"):
        StreamingReduction({"a::b": WinCountReducer()})


def test_moments_from_state_rejects_block_drift():
    state = MomentsReducer(block=64).to_state()
    with pytest.raises(ParameterError, match="block"):
        MomentsReducer(block=128).from_state(state)


def test_packed_state_is_never_written_by_later_updates_or_merges():
    """The arrays a cadence write encodes behind the stream are the
    reducers' packed state; later updates and merges must rebind or
    copy, never write into them."""
    def bundle():
        reducers = monte_carlo_reduction(
            seed=7, quantile_k=48, block=64, histogram=(0.0, 4.0, 16)
        ).reducers
        return StreamingReduction(
            {**reducers, "topk": TopKReducer(k=8), "pareto": ParetoReducer()}
        )

    live = bundle()
    for offset in range(0, 256, 64):
        live.update(*_chunk(offset))
    packed = live.to_state(canonical=False)
    frozen = {key: array.copy() for key, array in packed.items()}
    for offset in range(256, 512, 64):
        live.update(*_chunk(offset, finite=True))
    other = bundle()
    for offset in range(512, 768, 64):
        other.update(*_chunk(offset))
    live.merge(other)
    live.update(*_chunk(768, finite=True))

    _assert_states_equal(packed, frozen)
    later = live.to_state(canonical=False)
    changed = {
        key for key in frozen
        if not np.array_equal(later[key], frozen[key], equal_nan=True)
    }
    # Every stateful member moved on, so the check above had teeth.
    assert {key.partition("::")[0] for key in changed} == set(live.reducers)


# ----------------------------------------------------------------------
# Journal: persistence, resume, identity, corruption
# ----------------------------------------------------------------------


class _FakeSource:
    """Journal-level stand-in: identity attributes, no evaluation."""

    def __init__(self, n: int, seed: int = 11, token: str = "fake") -> None:
        self.n = n
        self.seed = seed
        self._token = token

    def checkpoint_token(self) -> str:
        return self._token


def _partial(
    start: int, stop: int, quantile_k: int = 48
) -> StreamingReduction:
    bundle = _bundle(quantile_k)
    for offset in range(start, stop, 64):
        result, off = _chunk(offset)
        bundle.update(result, off)
    return bundle


def _open(tmp_path, *, n=1024, chunk_rows=128, every_rows=256, seed=11,
          reduction=None, every_s=None, token="fake"):
    return CheckpointJournal.open(
        Checkpoint(tmp_path / "job.ckpt", every_rows=every_rows,
                   every_s=every_s),
        _FakeSource(n, seed=seed, token=token),
        _bundle() if reduction is None else reduction,
        n=n,
        chunk_rows=chunk_rows,
    )


def test_journal_persists_and_resumes(tmp_path):
    journal = _open(tmp_path)
    assert [u[0] for u in journal.pending()] == [0, 1, 2, 3]
    journal.complete(0, _partial(0, 256))
    journal.complete(1, _partial(256, 512))
    assert journal.flushes == 2  # every_rows == unit rows: flush per unit
    assert journal.rows_done == 512

    resumed = _open(tmp_path)
    assert resumed.resumed_units == 2
    assert [u[0] for u in resumed.pending()] == [2, 3]
    _assert_states_equal(
        resumed.merged.to_state(), journal.merged.to_state()
    )
    with pytest.raises(ParameterError, match="twice"):
        resumed.complete(0, _partial(0, 256))


@pytest.mark.parametrize(
    "cls", REDUCER_REGISTRY, ids=lambda cls: cls.__name__
)
def test_every_reducer_state_survives_the_container(cls, tmp_path):
    """Each registered reducer's packed state fits the container's
    dtype allow-list and resumes bit-identically through a file."""
    def bundle():
        return StreamingReduction({"r": _REDUCER_FACTORIES[cls]()})

    journal = _open(tmp_path, reduction=bundle())
    partial = bundle()
    for offset in range(0, 256, 64):
        partial.update(*_chunk(offset))
    journal.complete(0, partial)
    resumed = _open(tmp_path, reduction=bundle())
    assert resumed.resumed_units == 1
    _assert_states_equal(
        resumed.merged.to_state(), journal.merged.to_state()
    )


def test_journal_identity_drift_raises_typed_error(tmp_path):
    _open(tmp_path).complete(0, _partial(0, 256))
    with pytest.raises(CheckpointMismatchError, match="seed"):
        _open(tmp_path, seed=12)
    with pytest.raises(CheckpointMismatchError, match="source"):
        _open(tmp_path, token="other-study")
    with pytest.raises(CheckpointMismatchError, match="n_rows"):
        _open(tmp_path, n=2048)
    with pytest.raises(CheckpointMismatchError, match="chunk_rows"):
        _open(tmp_path, chunk_rows=64)
    with pytest.raises(CheckpointMismatchError, match="schema"):
        _open(
            tmp_path,
            reduction=StreamingReduction({"wins": WinCountReducer()}),
        )
    # The original job still resumes fine after all those rejections.
    assert _open(tmp_path).resumed_units == 1


def test_journal_corruption_starts_cold(tmp_path, caplog):
    journal = _open(tmp_path)
    journal.complete(0, _partial(0, 256))
    path = tmp_path / "job.ckpt"
    FaultPlan(seed=3).corrupt_file(path, flips=32)
    with caplog.at_level("WARNING"):
        resumed = _open(tmp_path)
    assert resumed.resumed_units == 0
    assert len(resumed.pending()) == 4
    assert "starting from scratch" in caplog.text

    # Truncation (power loss mid-write without the atomic writer) and
    # outright garbage are the same cold start, not a crash.
    journal.flush(force=True)
    FaultPlan(seed=3).truncate_file(path, keep_fraction=0.3)
    assert _open(tmp_path).resumed_units == 0
    path.write_bytes(b"not a checkpoint at all")
    assert _open(tmp_path).resumed_units == 0


def _format1_file(path, identity: dict, arrays: dict) -> None:
    """Write ``path`` in the format-1 layout: ``GFCKPT`` + blake2b-128
    over a body of u32 length + JSON identity + ``npz`` arrays."""
    meta = json.dumps(identity, sort_keys=True).encode("utf-8")
    npz = io.BytesIO()
    np.savez(npz, **arrays)
    body = len(meta).to_bytes(4, "little") + meta + npz.getvalue()
    digest = hashlib.blake2b(body, digest_size=16).digest()
    path.write_bytes(b"GFCKPT" + digest + body)


def test_format1_checkpoint_is_a_format_mismatch_not_corruption(tmp_path):
    journal = _open(tmp_path)
    journal.complete(0, _partial(0, 256))
    identity = dict(journal.identity, format=1, rows_done=256)
    arrays = {"done": journal.done}
    arrays.update(
        (f"s.{key}", array)
        for key, array in journal.merged.to_state().items()
    )
    path = tmp_path / "job.ckpt"
    _format1_file(path, identity, arrays)
    raw = path.read_bytes()
    # The identity header was read: only the format differs.
    with pytest.raises(CheckpointMismatchError, match=r"mismatched: format\)"):
        _open(tmp_path)
    assert path.read_bytes() == raw  # rejected, never discarded


def _reseal(raw: bytes, mutate=None, tail: bytes = b"") -> bytes:
    """Rebuild a checkpoint with its header passed through ``mutate``
    and ``tail`` appended, under a recomputed (valid) digest."""
    head = len(b"GFCKPT") + 2 + 16
    length = int.from_bytes(raw[head : head + 4], "little")
    header = json.loads(raw[head + 4 : head + 4 + length])
    if mutate is not None:
        mutate(header)
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    rest = (
        len(encoded).to_bytes(4, "little") + encoded
        + raw[head + 4 + length :] + tail
    )
    digest = hashlib.sha256(raw[: head - 16] + rest).digest()[:16]
    return raw[: head - 16] + digest + rest


def _set_first(field, value):
    def mutate(header):
        header["arrays"][0][field] = value
    return mutate


@pytest.mark.parametrize(
    "mutate, tail, reason",
    [
        (_set_first("shape", [10**6]), b"", "runs past the end"),
        (None, b"\0" * 8, "8 trailing bytes"),
        (_set_first("dtype", "|O"), b"", "has dtype '|O'"),
        (_set_first("dtype", "<c16"), b"", "has dtype '<c16'"),
        (_set_first("dtype", ["<f8"]), b"", "has dtype ['<f8']"),
        (_set_first("shape", [-4]), b"", "malformed array table entry"),
        (_set_first("shape", [2.0]), b"", "malformed array table entry"),
        (_set_first("name", "s.extra"), b"", "'done' bitmap"),
        (lambda header: header.update(arrays={}), b"", "wrong type"),
    ],
    ids=[
        "table-past-end", "trailing-bytes", "object-dtype",
        "unknown-dtype", "unhashable-dtype", "negative-shape",
        "float-shape", "no-done-bitmap", "table-not-a-list",
    ],
)
def test_resealed_malformed_container_starts_cold(
    tmp_path, caplog, mutate, tail, reason
):
    journal = _open(tmp_path)
    journal.complete(0, _partial(0, 256))
    path = tmp_path / "job.ckpt"
    raw = path.read_bytes()
    # The reseal helper itself is faithful: an unmutated reseal resumes.
    path.write_bytes(_reseal(raw))
    assert _open(tmp_path).resumed_units == 1

    path.write_bytes(_reseal(raw, mutate, tail))
    with caplog.at_level("WARNING"):
        resumed = _open(tmp_path)
    assert resumed.resumed_units == 0
    assert "starting from scratch" in caplog.text
    assert reason in caplog.text


def _rewrite_arrays(path, mutate) -> None:
    """Pass ``path``'s arrays through ``mutate`` and write them back
    under a recomputed (valid) digest."""
    meta, arrays = _decode(path.read_bytes())
    arrays = {name: array.copy() for name, array in arrays.items()}
    mutate(arrays)
    path.write_bytes(_encode(meta, arrays))


def _shorten(*fields, by=5):
    def mutate(arrays):
        for field in fields:
            arrays[f"s.quantiles::{field}"] = (
                arrays[f"s.quantiles::{field}"][:-by]
            )
    return mutate


def _as_column(arrays):
    for field in ("priorities", "values"):
        key = f"s.quantiles::{field}"
        arrays[key] = arrays[key].reshape(-1, 1)


def _set_n_seen(value):
    def mutate(arrays):
        arrays["s.quantiles::n_seen"] = np.array([value], dtype=np.int64)
    return mutate


def _rename_n_seen(arrays):
    arrays["s.quantiles::seen"] = arrays.pop("s.quantiles::n_seen")


@pytest.mark.parametrize(
    "mutate, reason",
    [
        (_shorten("values"),
         "member 'quantiles': checkpointed reservoir holds (48,) "
         "priorities and (43,) values"),
        (_shorten("priorities", "values"), "expected 48 of each"),
        (_as_column, "(48, 1) priorities"),
        (_set_n_seen(40), "expected 40 of each for n_seen=40"),
        (_set_n_seen(-1), "for n_seen=-1"),
        (_rename_n_seen, "member 'quantiles': malformed state"),
    ],
    ids=[
        "values-short", "sketch-short", "not-1d", "n-seen-below-k",
        "n-seen-negative", "missing-field",
    ],
)
def test_resealed_malformed_reservoir_state_starts_cold(
    tmp_path, caplog, mutate, reason
):
    """A file with a valid digest whose reservoir breaks the sketch's
    set invariants (1-d, equal lengths, ``min(n_seen, k)`` entries)
    starts cold instead of resuming a short or misaligned sketch."""
    journal = _open(tmp_path)
    journal.complete(0, _partial(0, 256))
    path = tmp_path / "job.ckpt"
    raw = path.read_bytes()
    # The rewrite helper itself is faithful: an unmutated rewrite resumes.
    _rewrite_arrays(path, lambda arrays: None)
    assert _open(tmp_path).resumed_units == 1

    path.write_bytes(raw)
    _rewrite_arrays(path, mutate)
    with caplog.at_level("WARNING"):
        resumed = _open(tmp_path)
    assert resumed.resumed_units == 0
    assert "starting from scratch" in caplog.text
    assert reason in caplog.text


def _edit(member, field, edit):
    def mutate(arrays):
        key = f"s.{member}::{field}"
        arrays[key] = edit(arrays[key])
    return mutate


def _double_rows(member):
    def mutate(arrays):
        for field in ("indices", "fpga", "asic", "ratios"):
            key = f"s.{member}::{field}"
            arrays[key] = np.concatenate([arrays[key], arrays[key]])
    return mutate


def _negative_first(array):
    array[0] = -1
    return array


@pytest.mark.parametrize(
    "mutate, reason",
    [
        (_edit("topk", "indices", lambda a: a[:3]),
         "member 'topk': checkpointed top-k holds indices/fpga/asic/ratios "
         "of shapes [(3,), (8,), (8,), (8,)]"),
        (_edit("topk", "ratios", lambda a: a.reshape(-1, 1)),
         "(8, 1)"),
        (_double_rows("topk"), "holds 16 rows, more than k=8"),
        (_edit("topk", "indices", _negative_first),
         "top-k holds a negative row index"),
        (_edit("pareto", "asic", lambda a: a[:-1]),
         "member 'pareto': checkpointed Pareto front holds"),
        (_edit("pareto", "indices", _negative_first),
         "Pareto front holds a negative row index"),
        (_edit("moments", "keys", lambda a: a[:-1]),
         "member 'moments': checkpointed moments hold (3,) keys"),
        (_edit("moments", "counts", lambda a: a[:, :1]), "(4, 1) counts"),
        (_edit("moments", "sums", lambda a: a.reshape(-1)), "(16,) sums"),
    ],
    ids=[
        "topk-indices-short", "topk-not-1d", "topk-over-k",
        "topk-negative-index", "pareto-asic-short", "pareto-negative-index",
        "moments-keys-short", "moments-counts-shape", "moments-sums-flat",
    ],
)
def test_resealed_malformed_row_and_moment_state_starts_cold(
    tmp_path, caplog, mutate, reason
):
    """Top-k, Pareto and moments state that breaks its shape or range
    invariants starts cold instead of resuming and failing later (a
    top-k with 3 indices against 8 totals used to crash in ``rows()``)."""
    journal = _open(tmp_path)
    journal.complete(0, _partial(0, 256))
    path = tmp_path / "job.ckpt"
    _rewrite_arrays(path, lambda arrays: None)
    assert _open(tmp_path).resumed_units == 1

    _rewrite_arrays(path, mutate)
    with caplog.at_level("WARNING"):
        resumed = _open(tmp_path)
    assert resumed.resumed_units == 0
    assert "starting from scratch" in caplog.text
    assert reason in caplog.text


def test_reservoir_state_order_is_free():
    original = _updated(_REDUCER_FACTORIES[ReservoirQuantiles], (0, 64, 128))
    raw = original.to_state(canonical=False)
    assert np.array_equal(raw["priorities"], original._priorities)
    # Any order of the kept set revives to the same canonical state.
    reversed_state = {
        **raw,
        "priorities": raw["priorities"][::-1],
        "values": raw["values"][::-1],
    }
    revived = ReservoirQuantiles(k=48, seed=7).from_state(reversed_state)
    _assert_states_equal(revived.to_state(), original.to_state())


def test_histogram_bin_drift_is_a_typed_mismatch(tmp_path):
    """Same schema token, different member configuration: the journal
    names the drifted member and leaves the file in place."""
    def histogram(bins):
        return StreamingReduction({"hist": HistogramReducer(0.0, 4.0, bins)})

    journal = _open(tmp_path, reduction=histogram(16))
    partial = histogram(16)
    partial.update(*_chunk(0))
    journal.complete(0, partial)
    path = tmp_path / "job.ckpt"
    raw = path.read_bytes()
    with pytest.raises(
        CheckpointMismatchError, match="member 'hist'.*different bins"
    ):
        _open(tmp_path, reduction=histogram(32))
    assert path.read_bytes() == raw
    assert _open(tmp_path, reduction=histogram(16)).resumed_units == 1


def test_journal_crash_mid_save_keeps_previous_checkpoint(
    tmp_path, monkeypatch
):
    journal = _open(tmp_path)
    journal.complete(0, _partial(0, 256))
    import repro.engine.atomicio as atomicio

    def _dies(src, dst):
        raise OSError("simulated crash during replace")

    monkeypatch.setattr(atomicio.os, "replace", _dies)
    with pytest.raises(OSError, match="simulated crash"):
        journal.complete(1, _partial(256, 512))
    monkeypatch.undo()

    # The torn save left no temp litter and the previous checkpoint is
    # intact: exactly unit 0 is restored.
    assert not list(tmp_path.glob("*.tmp.*"))
    resumed = _open(tmp_path)
    assert resumed.resumed_units == 1
    assert [u[0] for u in resumed.pending()] == [1, 2, 3]


def test_journal_config_validation(tmp_path):
    with pytest.raises(ParameterError, match="every_rows"):
        _open(tmp_path, every_rows=0)
    with pytest.raises(ParameterError, match="every_s"):
        _open(tmp_path, every_rows=None, every_s=0.0)


def test_source_token_prefers_semantic_digest():
    assert source_token(_FakeSource(8, token="abc")) == "abc"
    # Pickle-digest fallback: stable across identical sources.
    arr = np.arange(4.0)
    assert source_token(arr) == source_token(arr.copy())


# ----------------------------------------------------------------------
# Crash/resume end to end (in-process fault)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def comparator(suite):
    return PlatformComparator.for_domain("dnn", suite)


N_DRAWS = 16_384


def _mc_source(comparator, n: int = N_DRAWS) -> MonteCarloChunkSource:
    return MonteCarloChunkSource(
        np.asarray(extract_row(comparator)),
        tuple(table1_distributions()),
        2024,
        BASELINE,
        n,
    )


def _mc_bundle() -> StreamingReduction:
    return StreamingReduction(
        {
            "moments": MomentsReducer(block=512),
            "wins": WinCountReducer(),
            "quantiles": ReservoirQuantiles(k=2048, seed=2024),
            "topk": TopKReducer(k=16),
            "pareto": ParetoReducer(),
        }
    )


class _DiesAfter:
    """Source wrapper raising after ``healthy`` chunk computations."""

    def __init__(self, inner, healthy: int) -> None:
        self.inner = inner
        self.healthy = healthy
        self.calls = 0

    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def seed(self) -> int:
        return self.inner.seed

    def checkpoint_token(self) -> str:
        return self.inner.checkpoint_token()

    def chunk(self, start: int, stop: int):
        self.calls += 1
        if self.calls > self.healthy:
            raise RuntimeError("injected mid-run failure")
        return self.inner.chunk(start, stop)


def test_checkpointed_run_bit_identical_to_plain_stream(
    comparator, tmp_path
):
    reference = run_stream(
        _mc_source(comparator), _mc_bundle(), chunk_rows=2048
    )
    checkpointed = run_stream(
        _mc_source(comparator),
        _mc_bundle(),
        chunk_rows=2048,
        checkpoint=Checkpoint(tmp_path / "mc.ckpt", every_rows=4096),
    )
    _assert_states_equal(
        checkpointed.to_state(), reference.to_state()
    )
    assert checkpointed["pareto"].rows() == reference["pareto"].rows()
    assert checkpointed["topk"].rows() == reference["topk"].rows()


def test_crash_then_resume_is_bit_identical_and_skips_done_work(
    comparator, tmp_path
):
    config = Checkpoint(tmp_path / "mc.ckpt", every_rows=4096)
    dying = _DiesAfter(_mc_source(comparator), healthy=3)
    with pytest.raises(RuntimeError, match="injected"):
        run_stream(dying, _mc_bundle(), chunk_rows=2048, checkpoint=config)

    # The interrupting flush persisted the completed units.
    survivor = CheckpointJournal.open(
        config, _mc_source(comparator), _mc_bundle(),
        n=N_DRAWS, chunk_rows=2048,
    )
    assert 0 < survivor.resumed_units < len(survivor.units)

    counting = _DiesAfter(_mc_source(comparator), healthy=10**9)
    resumed = run_stream(
        counting, _mc_bundle(), chunk_rows=2048, checkpoint=config
    )
    # Completed units were skipped, not recomputed.
    assert counting.calls < N_DRAWS // 2048
    reference = run_stream(
        _mc_source(comparator), _mc_bundle(), chunk_rows=2048
    )
    _assert_states_equal(resumed.to_state(), reference.to_state())
    assert resumed["wins"].n == N_DRAWS
    assert resumed["pareto"].rows() == reference["pareto"].rows()


def test_finished_checkpoint_short_circuits_the_source(comparator, tmp_path):
    config = Checkpoint(tmp_path / "mc.ckpt", every_rows=4096)
    first = run_stream(
        _mc_source(comparator), _mc_bundle(), chunk_rows=2048,
        checkpoint=config,
    )
    untouchable = _DiesAfter(_mc_source(comparator), healthy=0)
    replay = run_stream(
        untouchable, _mc_bundle(), chunk_rows=2048, checkpoint=config
    )
    assert untouchable.calls == 0
    _assert_states_equal(replay.to_state(), first.to_state())


def test_parallel_checkpoint_resume_matches_sequential(comparator, tmp_path):
    config = Checkpoint(tmp_path / "mc.ckpt", every_rows=4096)
    dying = _DiesAfter(_mc_source(comparator), healthy=2)
    with pytest.raises(RuntimeError, match="injected"):
        run_stream(dying, _mc_bundle(), chunk_rows=2048, checkpoint=config)
    with EvaluationEngine(cache_size=0, workers=2) as eng:
        resumed = eng.reduce_stream(
            _mc_source(comparator), _mc_bundle(), chunk_rows=2048,
            workers=2, checkpoint=config,
        )
    reference = run_stream(
        _mc_source(comparator), _mc_bundle(), chunk_rows=2048
    )
    _assert_states_equal(resumed.to_state(), reference.to_state())


def test_final_checkpoint_bytes_identical_under_any_schedule(
    comparator, tmp_path
):
    """Sequential, two-worker and interrupted-then-resumed runs of one
    job leave byte-identical final checkpoint files."""
    def config(name):
        return Checkpoint(tmp_path / name, every_rows=4096)

    run_stream(
        _mc_source(comparator), _mc_bundle(), chunk_rows=2048,
        checkpoint=config("sequential.ckpt"),
    )
    with EvaluationEngine(cache_size=0, workers=2) as eng:
        eng.reduce_stream(
            _mc_source(comparator), _mc_bundle(), chunk_rows=2048,
            workers=2, checkpoint=config("parallel.ckpt"),
        )
    dying = _DiesAfter(_mc_source(comparator), healthy=3)
    with pytest.raises(RuntimeError, match="injected"):
        run_stream(
            dying, _mc_bundle(), chunk_rows=2048,
            checkpoint=config("resumed.ckpt"),
        )
    run_stream(
        _mc_source(comparator), _mc_bundle(), chunk_rows=2048,
        checkpoint=config("resumed.ckpt"),
    )
    sequential = (tmp_path / "sequential.ckpt").read_bytes()
    assert (tmp_path / "parallel.ckpt").read_bytes() == sequential
    assert (tmp_path / "resumed.ckpt").read_bytes() == sequential


def _file_priorities(path) -> np.ndarray:
    return _decode(path.read_bytes())[1]["s.quantiles::priorities"]


def _strictly_increasing(array: np.ndarray) -> bool:
    return bool(np.all(array[1:] > array[:-1]))


def test_only_a_finished_checkpoint_is_canonical(tmp_path):
    """Cadence writes keep the reservoir's memory order (no sort per
    write); the write that finishes the job sorts by priority."""
    # Small argpartitions come out sorted; k=256 over 1024-row units
    # leaves the merged reservoir in a schedule-dependent order.
    k, rows = 256, 1024
    journal = _open(tmp_path, n=4 * rows, every_rows=rows,
                    reduction=_bundle(k))
    path = tmp_path / "job.ckpt"
    for index in range(3):
        journal.complete(
            index, _partial(rows * index, rows * (index + 1), k)
        )
        in_memory = journal.merged["quantiles"]._priorities
        assert np.array_equal(_file_priorities(path), in_memory)
        # Memory is unsorted, so the equality above could not hold if
        # cadence writes sorted.
        assert not _strictly_increasing(in_memory)
    journal.complete(3, _partial(3 * rows, 4 * rows, k))
    assert journal.finished
    assert _strictly_increasing(_file_priorities(path))


def test_resume_from_unsorted_cadence_file_ends_byte_identical(
    comparator, tmp_path
):
    reference = Checkpoint(tmp_path / "reference.ckpt", every_rows=4096)
    run_stream(_mc_source(comparator), _mc_bundle(), chunk_rows=2048,
               checkpoint=reference)
    config = Checkpoint(tmp_path / "resumed.ckpt", every_rows=4096)
    # Five chunks: two whole units (two cadence flushes), then death
    # half-way through the third.
    dying = _DiesAfter(_mc_source(comparator), healthy=5)
    with pytest.raises(RuntimeError, match="injected"):
        run_stream(dying, _mc_bundle(), chunk_rows=2048, checkpoint=config)
    survivor = CheckpointJournal.open(
        config, _mc_source(comparator), _mc_bundle(),
        n=N_DRAWS, chunk_rows=2048,
    )
    assert survivor.resumed_units == 2
    assert not _strictly_increasing(_file_priorities(config.path))

    run_stream(_mc_source(comparator), _mc_bundle(), chunk_rows=2048,
               checkpoint=config)
    assert config.path.read_bytes() == reference.path.read_bytes()


def _count_writes(monkeypatch) -> list:
    from repro.engine.vector import checkpoint as checkpoint_module

    writes = []
    original = checkpoint_module.atomic_write_bytes

    def counting(path, payload):
        writes.append(path)
        return original(path, payload)

    monkeypatch.setattr(checkpoint_module, "atomic_write_bytes", counting)
    return writes


@pytest.mark.parametrize(
    "n_samples, expected", [(8 * 131_072, 8), (1_000_000, 8)]
)
def test_one_write_per_unit(comparator, tmp_path, monkeypatch,
                            n_samples, expected):
    """A unit-cadence study writes once per unit: the final write is
    skipped when the last unit's own write already finished the file."""
    writes = _count_writes(monkeypatch)
    path = tmp_path / "mc.ckpt"
    monte_carlo_stream(
        comparator, BASELINE, table1_distributions(), n_samples=n_samples,
        seed=2024, workers=1, checkpoint=path, checkpoint_every=131_072,
    )
    assert len(writes) == expected
    meta, arrays = _decode(path.read_bytes())
    assert arrays["done"].all() and meta["rows_done"] == n_samples


def test_timed_cadence_still_ends_with_a_finished_file(
    comparator, tmp_path, monkeypatch
):
    writes = _count_writes(monkeypatch)
    config = Checkpoint(tmp_path / "mc.ckpt", every_rows=None,
                        every_s=3600.0)
    run_stream(_mc_source(comparator), _mc_bundle(), chunk_rows=2048,
               checkpoint=config)
    assert len(writes) == 1
    assert _decode(config.path.read_bytes())[1]["done"].all()


class _NoPrefetch:
    """The same source behind a wrapper that draws inline (depth 0)."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.n = inner.n
        self.seed = inner.seed

    def checkpoint_token(self) -> str:
        return self.inner.checkpoint_token()

    def chunk(self, start: int, stop: int):
        return self.inner.chunk(start, stop)


@pytest.mark.parametrize("every_rows", [2048, 4096, 6144])
def test_writes_per_study_unchanged_by_prefetch(
    comparator, tmp_path, monkeypatch, every_rows
):
    writes = _count_writes(monkeypatch)
    counts = []
    for name, source in (
        ("prefetched", _mc_source(comparator)),
        ("inline", _NoPrefetch(_mc_source(comparator))),
    ):
        before = len(writes)
        run_stream(source, _mc_bundle(), chunk_rows=2048,
                   checkpoint=Checkpoint(tmp_path / name,
                                         every_rows=every_rows))
        counts.append(len(writes) - before)
    assert counts[0] == counts[1] == -(-N_DRAWS // every_rows)
    assert (tmp_path / "prefetched").read_bytes() == (
        tmp_path / "inline").read_bytes()


def test_monte_carlo_stream_checkpoint_knobs(comparator, tmp_path):
    path = tmp_path / "mc.ckpt"
    with pytest.raises(ParameterError, match="checkpoint_every"):
        monte_carlo_stream(
            comparator, BASELINE, table1_distributions(), n_samples=4096,
            seed=2024, workers=1, checkpoint_every=1024,
        )
    first = monte_carlo_stream(
        comparator, BASELINE, table1_distributions(), n_samples=4096,
        seed=2024, workers=1, chunk_rows=1024,
        checkpoint=path, checkpoint_every=1024,
    )
    plain = monte_carlo_stream(
        comparator, BASELINE, table1_distributions(), n_samples=4096,
        seed=2024, workers=1, chunk_rows=1024,
    )
    assert first.summary() == plain.summary()
    np.testing.assert_array_equal(
        first.quantile_sample, plain.quantile_sample
    )
    # Seed drift against the same checkpoint is a typed, named error.
    with pytest.raises(CheckpointMismatchError, match="seed"):
        monte_carlo_stream(
            comparator, BASELINE, table1_distributions(), n_samples=4096,
            seed=2025, workers=1, chunk_rows=1024,
            checkpoint=path, checkpoint_every=1024,
        )


def test_monte_carlo_stream_quantile_k_drift_is_a_typed_mismatch(
    comparator, tmp_path
):
    path = tmp_path / "mc.ckpt"
    knobs = dict(n_samples=4096, seed=2024, workers=1, chunk_rows=1024,
                 checkpoint=path, checkpoint_every=1024)
    monte_carlo_stream(comparator, BASELINE, table1_distributions(),
                       quantile_k=64, **knobs)
    raw = path.read_bytes()
    with pytest.raises(
        CheckpointMismatchError, match="member 'quantiles'.*k/seed"
    ):
        monte_carlo_stream(comparator, BASELINE, table1_distributions(),
                           quantile_k=128, **knobs)
    assert path.read_bytes() == raw


# ----------------------------------------------------------------------
# Write-behind: unit writes on the process-wide writer thread
# ----------------------------------------------------------------------


class _Writes:
    """A stand-in for the journal's ``atomic_write_bytes`` that records
    every write: ``events`` holds ``("start" | "end", i)`` per write,
    ``payloads`` the bytes and ``threads`` the writing thread's name.
    Each write first sleeps ``delay_s``; the write with 0-based index
    ``fail_at`` raises :class:`OSError` instead of writing."""

    def __init__(self, monkeypatch, *, delay_s=0.0, fail_at=None) -> None:
        self.original = checkpoint_module.atomic_write_bytes
        self.delay_s = delay_s
        self.fail_at = fail_at
        self.events: list[tuple[str, int]] = []
        self.payloads: list[bytes] = []
        self.threads: list[str] = []
        monkeypatch.setattr(checkpoint_module, "atomic_write_bytes", self)

    def __call__(self, path, payload):
        index = len(self.payloads)
        self.payloads.append(bytes(payload))
        self.threads.append(threading.current_thread().name)
        self.events.append(("start", index))
        try:
            time.sleep(self.delay_s)
            if index == self.fail_at:
                raise OSError(f"injected failure of write {index}")
            return self.original(path, payload)
        finally:
            self.events.append(("end", index))

    def settled(self) -> bool:
        """Every write finished, one at a time and in order."""
        return self.events == [
            (kind, index)
            for index in range(len(self.payloads))
            for kind in ("start", "end")
        ]


UNIT_ROWS = 2048  # one 2048-row chunk per unit: 8 units of N_DRAWS


def _unit_checkpoint(path) -> Checkpoint:
    return Checkpoint(path, every_rows=UNIT_ROWS)


def test_concurrent_atomic_writes_of_one_path(tmp_path):
    """Same-path writers in one process each use their own tmp file:
    none loses its tmp to another's rename, and the last rename wins."""
    path = tmp_path / "shared.bin"
    payloads = [bytes([index]) * 65_536 for index in range(4)]
    errors = []

    def writer(payload):
        try:
            for _ in range(50):
                atomic_write_bytes(path, payload)
        except BaseException as error:  # surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=writer, args=(payload,))
        for payload in payloads
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the writers finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert not list(tmp_path.glob("*.tmp.*"))
    assert path.read_bytes() in payloads


def test_no_write_in_flight_once_run_stream_returns_or_raises(
    comparator, tmp_path, monkeypatch
):
    writes = _Writes(monkeypatch, delay_s=0.01)
    run_stream(_mc_source(comparator), _mc_bundle(), chunk_rows=2048,
               checkpoint=_unit_checkpoint(tmp_path / "sequential.ckpt"))
    assert len(writes.payloads) == N_DRAWS // UNIT_ROWS
    assert writes.settled()
    # Inside a run the unit writes go behind the stream.
    assert all(
        name.startswith(WRITER_THREAD_PREFIX) for name in writes.threads
    )

    with EvaluationEngine(cache_size=0, workers=2) as eng:
        eng.reduce_stream(
            _mc_source(comparator), _mc_bundle(), chunk_rows=2048,
            workers=2, checkpoint=_unit_checkpoint(tmp_path / "pool.ckpt"),
        )
    assert len(writes.payloads) == 2 * (N_DRAWS // UNIT_ROWS)
    assert writes.settled()

    dying = _DiesAfter(_mc_source(comparator), healthy=3)
    with pytest.raises(RuntimeError, match="injected"):
        run_stream(dying, _mc_bundle(), chunk_rows=2048,
                   checkpoint=_unit_checkpoint(tmp_path / "dies.ckpt"))
    assert writes.settled()


def test_failed_write_surfaces_from_run_stream(
    comparator, tmp_path, monkeypatch
):
    writes = _Writes(monkeypatch, fail_at=2)
    path = tmp_path / "mc.ckpt"
    with pytest.raises(OSError, match="injected failure of write 2"):
        run_stream(_mc_source(comparator), _mc_bundle(), chunk_rows=2048,
                   checkpoint=_unit_checkpoint(path))
    assert writes.settled()
    # The file is the last write that succeeded: the second unit's.
    assert path.read_bytes() == writes.payloads[1]
    meta, arrays = _decode(path.read_bytes())
    assert meta["rows_done"] == 2 * UNIT_ROWS
    assert arrays["done"].tolist() == [True, True] + [False] * 6


@pytest.mark.parametrize("write_fails", [False, True],
                         ids=["write-ok", "write-fails"])
def test_model_error_wins_over_the_write_in_flight(
    comparator, tmp_path, monkeypatch, caplog, write_fails
):
    # Slow writes: the third unit's write is still running when the
    # fourth chunk's draw error reaches the calling thread.
    writes = _Writes(monkeypatch, delay_s=0.1,
                     fail_at=2 if write_fails else None)
    path = tmp_path / "mc.ckpt"
    dying = _DiesAfter(_mc_source(comparator), healthy=3)
    with pytest.raises(RuntimeError, match="injected mid-run failure"):
        run_stream(dying, _mc_bundle(), chunk_rows=2048,
                   checkpoint=_unit_checkpoint(path))
    assert len(writes.payloads) == 3 and writes.settled()
    kept = 2 if write_fails else 3
    assert path.read_bytes() == writes.payloads[kept - 1]
    assert _decode(path.read_bytes())[0]["rows_done"] == kept * UNIT_ROWS
    # A failed write is logged, never swallowed.
    assert ("injected failure of write 2" in caplog.text) == write_fails


def test_concurrent_checkpointed_studies_share_the_writer(
    comparator, tmp_path
):
    reference = run_stream(
        _mc_source(comparator), _mc_bundle(), chunk_rows=2048
    )
    results = {}

    def study(name):
        results[name] = run_stream(
            _mc_source(comparator), _mc_bundle(), chunk_rows=2048,
            checkpoint=_unit_checkpoint(tmp_path / name),
        )

    threads = [
        threading.Thread(target=study, args=(name,))
        for name in ("a.ckpt", "b.ckpt")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == ["a.ckpt", "b.ckpt"]
    for merged in results.values():
        _assert_states_equal(merged.to_state(), reference.to_state())
    assert (tmp_path / "a.ckpt").read_bytes() == (
        tmp_path / "b.ckpt").read_bytes()


def test_every_write_behind_payload_is_a_consistent_snapshot(
    comparator, tmp_path, monkeypatch
):
    """Each payload is the state at its own unit boundary, even though
    it is encoded and written while the stream reduces later units."""
    writes = _Writes(monkeypatch, delay_s=0.02)
    # Slow the encode as well: the snapshot-to-encode gap then spans
    # the next unit's reduction and mark.
    encode = checkpoint_module._encode

    def slow_encode(meta, arrays):
        time.sleep(0.02)
        return encode(meta, arrays)

    monkeypatch.setattr(checkpoint_module, "_encode", slow_encode)
    run_stream(_mc_source(comparator), _mc_bundle(), chunk_rows=2048,
               checkpoint=_unit_checkpoint(tmp_path / "mc.ckpt"))
    monkeypatch.undo()
    assert len(writes.payloads) == N_DRAWS // UNIT_ROWS == 8

    reference = run_stream(
        _mc_source(comparator), _mc_bundle(), chunk_rows=2048
    ).to_state()
    for index, payload in enumerate(writes.payloads):
        meta, arrays = _decode(payload)
        rows = meta["rows_done"]
        assert rows == (index + 1) * UNIT_ROWS
        assert int(np.count_nonzero(arrays["done"])) == index + 1
        assert int(arrays["s.wins::counts"][0]) == rows
        assert int(arrays["s.moments::counts"][:, 0].sum()) == rows
        assert int(arrays["s.quantiles::n_seen"][0]) == rows
        path = tmp_path / f"resume-{index}.ckpt"
        path.write_bytes(payload)
        resumed = run_stream(
            _mc_source(comparator), _mc_bundle(), chunk_rows=2048,
            checkpoint=_unit_checkpoint(path),
        )
        _assert_states_equal(resumed.to_state(), reference)


# ----------------------------------------------------------------------
# SIGKILL chaos: a real process murdered mid-run, resumed to bit parity
# ----------------------------------------------------------------------


_CHILD_SCRIPT = """\
import os
import sys

import numpy as np

from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.engine.vector import (
    Checkpoint,
    MomentsReducer,
    MonteCarloChunkSource,
    ParetoReducer,
    ReservoirQuantiles,
    StreamingReduction,
    TopKReducer,
    WinCountReducer,
    extract_row,
    run_stream,
)
from repro.experiments.ext_uncertainty import distributions

ckpt_path, out_path, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
comparator = PlatformComparator.for_domain("dnn")
source = MonteCarloChunkSource(
    np.asarray(extract_row(comparator)),
    tuple(distributions()),
    2024,
    Scenario(num_apps=5, app_lifetime_years=2.0, volume=1_000_000),
    n,
)
bundle = StreamingReduction({
    "moments": MomentsReducer(block=4096),
    "wins": WinCountReducer(),
    "quantiles": ReservoirQuantiles(k=4096, seed=2024),
    "topk": TopKReducer(k=32),
    "pareto": ParetoReducer(),
})
merged = run_stream(
    source, bundle, chunk_rows=65536,
    checkpoint=Checkpoint(ckpt_path, every_rows=65536),
)
tmp = out_path + ".tmp"
with open(tmp, "wb") as handle:
    np.savez(handle, **merged.to_state())
os.replace(tmp, out_path)
"""


def test_sigkill_mid_run_resumes_to_bit_identical_results(tmp_path):
    script = tmp_path / "job.py"
    script.write_text(_CHILD_SCRIPT)
    ckpt_path = tmp_path / "study.ckpt"
    out_path = tmp_path / "state.npz"
    src_root = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    argv = [
        sys.executable, str(script), str(ckpt_path), str(out_path),
        str(SIGKILL_DRAWS),
    ]

    kills = 0
    for delay in FaultPlan(seed=2024).kill_delays(6, 0.05, 0.25):
        process = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Let the job produce at least one checkpoint flush, then
            # murder it a seeded-random beat later — mid-unit, mid-save,
            # wherever the dice land.
            deadline = time.monotonic() + 120.0
            while (
                time.monotonic() < deadline
                and process.poll() is None
                and not ckpt_path.exists()
            ):
                time.sleep(0.005)
            if process.poll() is None:
                time.sleep(delay)
            if process.poll() is None:
                os.kill(process.pid, signal.SIGKILL)
                kills += 1
        finally:
            process.wait()
        if out_path.exists():
            break
    assert kills >= 1, "every child finished before its kill fired"
    assert ckpt_path.exists(), "no checkpoint survived the kills"

    if not out_path.exists():
        # The kill budget is spent; the final resume runs to completion.
        final = subprocess.run(
            argv, env=env, capture_output=True, text=True
        )
        assert final.returncode == 0, final.stderr

    # Bit-identical to an uninterrupted in-process run of the same job:
    # moments blocks, win counters, quantile sketch, top-k, Pareto front.
    comparator = PlatformComparator.for_domain("dnn")
    source = MonteCarloChunkSource(
        np.asarray(extract_row(comparator)),
        tuple(table1_distributions()),
        2024,
        BASELINE,
        SIGKILL_DRAWS,
    )
    reference = run_stream(
        source,
        StreamingReduction({
            "moments": MomentsReducer(block=4096),
            "wins": WinCountReducer(),
            "quantiles": ReservoirQuantiles(k=4096, seed=2024),
            "topk": TopKReducer(k=32),
            "pareto": ParetoReducer(),
        }),
        chunk_rows=65536,
    )
    with np.load(out_path) as archive:
        resumed_state = {name: archive[name].copy() for name in archive.files}
    _assert_states_equal(resumed_state, reference.to_state())
