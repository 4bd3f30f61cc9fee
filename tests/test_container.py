"""The one array container behind every byte format.

Unit coverage of :mod:`repro.engine.container`, then the decoder under
malformed input once per use — wire request, wire response, store
snapshot, checkpoint: every truncated prefix and every single-byte flip
of a valid encoding either raises that use's typed error or decodes to
a valid value, and no other exception escapes.  A guard keeps the
codecs it replaced (``npz``/zip) out of ``src/``.
"""

from __future__ import annotations

import re
import types
from pathlib import Path

import numpy as np
import pytest

from repro.core.scenario import Scenario
from repro.engine import ShardedResultStore, container
from repro.engine.serve import protocol
from repro.engine.store import FLOAT_COLS, INT_COLS
from repro.engine.vector.checkpoint import _decode, _encode
from repro.engine.vector.columns import ScenarioBatch
from repro.engine.vector.reducers import ReservoirQuantiles
from repro.errors import ContainerError, ParameterError, StoreCorruptError

SRC = Path(__file__).resolve().parents[1] / "src"


def _arrays() -> dict:
    return {
        "flags": np.array([True, False, True]),
        "bytes": np.arange(4, dtype=np.uint8),
        "ints": np.arange(-3, 3, dtype=np.int64).reshape(2, 3),
        "words": np.array([0, 2**64 - 1], dtype=np.uint64),
        "floats": np.array([np.nan, -0.0, np.inf, 1.5e-310]),
        "empty": np.empty((0, 4)),
    }


@pytest.mark.parametrize("digest", [False, True])
@pytest.mark.parametrize("prefix", [b"", b"TEST\x01\x00"])
def test_round_trip_keeps_meta_names_shapes_and_bits(prefix, digest):
    arrays = _arrays()
    raw = container.encode({"k": [1, "x"]}, arrays, prefix=prefix,
                           digest=digest)
    meta, decoded = container.decode(raw, prefix=prefix, digest=digest)
    assert meta == {"k": [1, "x"]}
    assert list(decoded) == list(arrays)
    for name, array in arrays.items():
        assert decoded[name].dtype == array.dtype
        assert decoded[name].shape == array.shape
        np.testing.assert_array_equal(
            decoded[name].view(np.uint8), array.view(np.uint8)
        )
        assert not decoded[name].flags.writeable


def test_align_starts_the_arrays_on_the_boundary():
    parts = container.encode_parts({"n": 1}, {"x": np.ones(3)}, align=8)
    head = sum(len(part) for part in parts[:3])
    assert head % 8 == 0
    _, arrays = container.decode(b"".join(parts))
    np.testing.assert_array_equal(arrays["x"], np.ones(3))


def test_encoder_refuses_unsupported_dtypes_and_normalises_byte_order():
    with pytest.raises(ContainerError, match="unsupported dtype"):
        container.encode({}, {"x": np.ones(2, dtype=np.float32)})
    big = np.arange(3, dtype=">i8")
    _, arrays = container.decode(container.encode({}, {"x": big}))
    assert arrays["x"].dtype.str == "<i8"
    np.testing.assert_array_equal(arrays["x"], big)


def test_decoder_rejects_non_canonical_bools():
    raw = bytearray(container.encode({}, {"flags": np.array([True, False])}))
    container.decode(bytes(raw))
    raw[-1] = 0x02
    with pytest.raises(ContainerError, match="bool"):
        container.decode(bytes(raw))


def test_expect_returns_rows_or_rejects_the_schema_mismatch():
    schema = {"keys": ("<u8", ()), "rows": ("<f8", (3,))}
    arrays = {"keys": np.arange(4, dtype=np.uint64), "rows": np.ones((4, 3))}
    assert container.expect(arrays, schema) == 4
    assert container.expect(
        {name: array[:0] for name, array in arrays.items()}, schema
    ) == 0
    for broken in (
        {"keys": arrays["keys"]},
        {**arrays, "extra": np.ones(4)},
        {**arrays, "keys": arrays["keys"].astype(np.int64)},
        {**arrays, "rows": np.ones((3, 3))},
        {**arrays, "rows": np.ones((4, 2))},
        {**arrays, "keys": np.uint64(4) + np.zeros((), dtype=np.uint64)},
    ):
        with pytest.raises(ContainerError, match="inconsistent"):
            container.expect(broken, schema)


def _assert_canonical_bools(arrays) -> None:
    for array in arrays:
        if array.dtype == bool:
            assert array.view(np.uint8).max(initial=0) <= 1


def test_decoder_checks_prefix_digest_and_length():
    raw = container.encode({}, {"x": np.ones(2)}, prefix=b"AB", digest=True)
    with pytest.raises(ContainerError, match="bad prefix"):
        container.decode(raw, prefix=b"AC", digest=True)
    flipped = bytearray(raw)
    flipped[-1] ^= 1
    with pytest.raises(ContainerError, match="checksum"):
        container.decode(bytes(flipped), prefix=b"AB", digest=True)
    with pytest.raises(ContainerError, match="trailing"):
        container.decode(container.encode({}, {}) + b"\0")


# ----------------------------------------------------------------------
# Malformed input, once per use
# ----------------------------------------------------------------------


def _mutations(raw: bytes):
    """Every truncated prefix and every single-byte flip (two flip
    masks per byte) of ``raw``."""
    for stop in range(len(raw)):
        yield raw[:stop]
    for at in range(len(raw)):
        for mask in (0x01, 0xFF):
            damaged = bytearray(raw)
            damaged[at] ^= mask
            yield bytes(damaged)


def _fuzz(raw: bytes, decode, errors) -> int:
    """Run ``decode`` over every mutation; returns how many decoded."""
    decoded = 0
    for damaged in _mutations(raw):
        try:
            decode(damaged)
        except errors:
            continue
        decoded += 1
    return decoded


def test_malformed_wire_requests_raise_typed_errors_or_decode_valid():
    batch = ScenarioBatch.from_scenarios((
        Scenario(num_apps=2, app_lifetime_years=[1.0, 2.0], volume=10.5),
        Scenario(num_apps=1, app_lifetime_years=3.0, volume=7,
                 evaluation_years=4.0),
    ))
    raw = protocol.encode_request(1, "dnn", batch)[protocol.HEADER_SIZE:]

    def decode(payload):
        domain, got = protocol.decode_request(payload)
        assert isinstance(domain, str)
        assert isinstance(got, ScenarioBatch) and got.size >= 1
        for name, dtype in ScenarioBatch.COLUMNS:
            assert getattr(got, name).dtype == dtype
        _assert_canonical_bools(got.columns().values())

    decoded = _fuzz(raw, decode, (protocol.ProtocolError, ParameterError))
    assert 0 < decoded < 3 * len(raw)


def test_malformed_wire_responses_raise_typed_errors_or_decode_valid():
    raw = protocol.encode_response(
        1, np.array([0.5, 2.0]), np.array([1, 0], dtype=np.uint8),
        np.array([10.0, 20.0]), np.array([5.0, 40.0]),
    )[protocol.HEADER_SIZE:]

    def decode(payload):
        columns = protocol.decode_response(payload)
        assert len(columns) == 4
        assert len({column.shape for column in columns}) == 1
        assert columns[0].ndim == 1

    decoded = _fuzz(raw, decode, protocol.ProtocolError)
    assert 0 < decoded < 3 * len(raw)


def test_malformed_store_snapshots_raise_typed_errors_or_load(tmp_path):
    store = ShardedResultStore(capacity=64)
    rng = np.random.default_rng(3)
    lo = np.array([11, 22, 33], dtype=np.uint64)
    store.put_batch(lo, lo + np.uint64(1), rng.random((3, FLOAT_COLS)),
                    rng.integers(0, 9, (3, INT_COLS)))
    path = store.save(tmp_path / "warm.snap")
    raw = path.read_bytes()

    def decode(damaged):
        path.write_bytes(damaged)
        loaded = ShardedResultStore(capacity=64)
        assert loaded.load(path) == loaded.stats().size == 3

    # The digest covers every byte: no damaged snapshot loads.
    assert _fuzz(raw, decode, StoreCorruptError) == 0
    path.write_bytes(raw)
    assert ShardedResultStore().load(path) == 3


def test_malformed_checkpoints_raise_typed_errors_or_decode_valid():
    reservoir = ReservoirQuantiles(k=8, seed=5)
    reservoir.update(types.SimpleNamespace(ratios=np.linspace(0, 1, 20)), 0)
    arrays = {"done": np.array([True, False, False])}
    arrays.update(
        (f"s.q::{key}", value) for key, value in reservoir.to_state().items()
    )
    raw = _encode({"format": 2, "rows_done": 20}, arrays)

    def decode(damaged):
        meta, got = _decode(damaged)
        assert isinstance(meta, dict)
        assert got["done"].dtype == bool and got["done"].ndim == 1
        _assert_canonical_bools(got.values())

    # The digest covers every byte: no damaged checkpoint decodes.
    assert _fuzz(raw, decode, StoreCorruptError) == 0
    decode(raw)


def test_no_second_decoder_in_src():
    """``npz``/zip persistence stays out of ``src/``: every byte format
    goes through :mod:`repro.engine.container`."""
    pattern = re.compile(r"savez|np\.load|zipfile")
    found = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert found == []
