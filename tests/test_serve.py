"""Serving tier: wire protocol, fault plans, server behaviour.

Unit coverage for the length-prefixed batch protocol (round-trips,
truncation, hostile frames), the deterministic :class:`FaultPlan`, and
end-to-end server behaviour that does not need injected chaos:
bit-identity through real sockets, graceful degradation with zero
workers, backpressure shedding, deadlines, and hostile-bytes rejection.
The injected-fault scenarios (kills, crash loops, frame truncation)
live in ``tests/test_serve_chaos.py``.
"""

from __future__ import annotations

import asyncio
import struct
import time

import numpy as np
import pytest

from repro.core.comparison import PlatformComparator
from repro.engine import container
from repro.engine.engine import EvaluationEngine
from repro.engine.serve import protocol
from repro.engine.serve.backoff import JitteredBackoff
from repro.engine.serve.bench import (
    _reference_columns,
    _request_batches,
    latency_benchmark,
)
from repro.engine.serve.client import ServeClient
from repro.engine.serve.faults import FaultPlan
from repro.engine.serve.protocol import (
    DeadlineError,
    ProtocolError,
    RemoteError,
)
from repro.engine.serve.server import BatchServer
from repro.engine.serve.worker import WorkerSpec, worker_main
from repro.engine.vector.columns import ScenarioBatch
from repro.errors import ParameterError, ServeError


def _batch(n: int = 6) -> ScenarioBatch:
    return ScenarioBatch.from_arrays(
        num_apps=np.arange(1, n + 1, dtype=np.int64),
        lifetime=np.linspace(0.5, 3.0, n),
        volume=1_000_000,
    )


def _read_frame_from(data: bytes) -> "protocol.Frame | None":
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await protocol.read_frame(reader)

    return asyncio.run(main())


# ----------------------------------------------------------------------
# Protocol round-trips
# ----------------------------------------------------------------------


def test_request_frame_round_trips_bit_identically():
    batch = _batch(8)
    frame = _read_frame_from(
        protocol.encode_request(42, "dnn", batch, deadline_ms=1500)
    )
    assert frame.type == protocol.MSG_REQUEST
    assert frame.request_id == 42
    assert frame.deadline_ms == 1500
    domain, decoded = protocol.decode_request(frame.payload)
    assert domain == "dnn"
    np.testing.assert_array_equal(decoded.num_apps, batch.num_apps)
    np.testing.assert_array_equal(decoded.lifetime, batch.lifetime)
    np.testing.assert_array_equal(decoded.volume, batch.volume)
    assert decoded.volume.dtype == np.float64


def test_request_round_trip_preserves_optional_columns():
    batch = ScenarioBatch.from_arrays(
        num_apps=np.array([2, 3], dtype=np.int64),
        lifetime=np.array([1.0, 2.0]),
        volume=np.array([1000, 2000], dtype=np.int64),
        evaluation_years=np.array([6.0, 8.0]),
        app_size_mgates=np.array([4.0, 5.0]),
        enforce_chip_lifetime=np.array([True, False]),
    )
    _, decoded = protocol.decode_request(
        _read_frame_from(protocol.encode_request(1, "dnn", batch)).payload
    )
    np.testing.assert_array_equal(
        decoded.evaluation_years, batch.evaluation_years
    )
    np.testing.assert_array_equal(
        decoded.app_size_mgates, batch.app_size_mgates
    )
    np.testing.assert_array_equal(
        decoded.enforce_chip_lifetime, batch.enforce_chip_lifetime
    )
    # Defaulted optionals (all-NaN on the wire) come back as defaults,
    # preserving digest identity with a locally built batch.
    _, plain = protocol.decode_request(
        _read_frame_from(protocol.encode_request(2, "dnn", _batch())).payload
    )
    assert np.isnan(plain.evaluation_years).all()


def _mixed_batch() -> ScenarioBatch:
    """Per-application ``(n, w)`` lifetime rows beside fractional-volume
    rows: every valid ``Scenario`` shape in one batch."""
    from repro.core.scenario import Scenario

    return ScenarioBatch.from_scenarios((
        Scenario(num_apps=2, app_lifetime_years=[1.0, 2.0], volume=10),
        Scenario(num_apps=3, app_lifetime_years=1.5, volume=1000.25),
        Scenario(num_apps=3, app_lifetime_years=[0.5, 3.0, 3.0],
                 volume=20_000.5, evaluation_years=6.0),
        Scenario(num_apps=1, app_lifetime_years=2.0, volume=1_000_000,
                 app_size_mgates=4.0, enforce_chip_lifetime=True),
    ))


def test_mixed_lifetime_and_fractional_volume_batch_is_served_bit_identically():
    batch = _mixed_batch()
    assert batch.lifetime.ndim == 2
    _, decoded = protocol.decode_request(
        _read_frame_from(protocol.encode_request(1, "dnn", batch)).payload
    )
    for name, _ in ScenarioBatch.COLUMNS:
        np.testing.assert_array_equal(getattr(decoded, name),
                                      getattr(batch, name))
    local = _reference("dnn", batch)

    async def main():
        async with BatchServer(workers=1) as server:
            async with ServeClient(server.host, server.port) as client:
                return await client.evaluate("dnn", batch, deadline_s=30.0)

    served = asyncio.run(main())
    for name in ("ratios", "winners", "fpga_totals", "asic_totals"):
        np.testing.assert_array_equal(getattr(served, name),
                                      getattr(local, name))


def test_version_1_frame_is_a_protocol_error():
    payload = protocol.encode_request(1, "dnn", _batch())[protocol.HEADER_SIZE:]
    old = protocol._HEADER.pack(
        protocol.MAGIC, 1, protocol.MSG_REQUEST, 0, 1, 0, len(payload)
    )
    with pytest.raises(ProtocolError, match="version 1"):
        _read_frame_from(old + payload)


def test_response_error_retry_deadline_frames_round_trip():
    ratios = np.linspace(0.5, 2.0, 5)
    winners = np.array([1, 0, 1, 0, 1], dtype=np.uint8)
    fpga = np.linspace(10.0, 50.0, 5)
    asic = np.linspace(9.0, 45.0, 5)
    frame = _read_frame_from(
        protocol.encode_response(7, ratios, winners, fpga, asic)
    )
    out = protocol.decode_response(frame.payload)
    for sent, got in zip((ratios, winners, fpga, asic), out):
        np.testing.assert_array_equal(sent, got)

    error = _read_frame_from(protocol.encode_error(8, "boom × unicode"))
    assert error.type == protocol.MSG_ERROR
    assert protocol.decode_error(error.payload) == "boom × unicode"

    retry = _read_frame_from(protocol.encode_retry_after(9, 0.125))
    assert retry.type == protocol.MSG_RETRY_AFTER
    assert protocol.decode_retry_after(retry.payload) == 0.125

    deadline = _read_frame_from(protocol.encode_deadline(10))
    assert deadline.type == protocol.MSG_DEADLINE
    assert deadline.payload == b""


# ----------------------------------------------------------------------
# Protocol hostility
# ----------------------------------------------------------------------


def test_read_frame_clean_eof_is_none():
    assert _read_frame_from(b"") is None


def test_read_frame_truncated_header_and_payload_raise():
    whole = protocol.encode_request(3, "dnn", _batch())
    with pytest.raises(ProtocolError, match="truncated header"):
        _read_frame_from(whole[: protocol.HEADER_SIZE - 4])
    with pytest.raises(ProtocolError, match="truncated payload"):
        _read_frame_from(whole[: protocol.HEADER_SIZE + 10])


def test_read_frame_rejects_bad_magic_version_and_length():
    whole = bytearray(protocol.encode_request(3, "dnn", _batch()))
    bad_magic = bytes(b"XXXX") + bytes(whole[4:])
    with pytest.raises(ProtocolError, match="bad magic"):
        _read_frame_from(bad_magic)
    bad_version = bytes(whole[:4]) + b"\xff" + bytes(whole[5:])
    with pytest.raises(ProtocolError, match="version"):
        _read_frame_from(bad_version)
    hostile = protocol._HEADER.pack(
        protocol.MAGIC, protocol.PROTOCOL_VERSION, protocol.MSG_REQUEST,
        0, 1, 0, protocol.MAX_PAYLOAD_BYTES + 1,
    )
    with pytest.raises(ProtocolError, match="exceeds"):
        _read_frame_from(hostile)


def _request_payload(domain="dnn", **columns) -> bytes:
    """A request payload for ``_batch(2)`` with ``columns`` replaced."""
    return container.encode(
        {"domain": domain}, {**_batch(2).columns(), **columns}
    )


def test_decode_request_rejects_malformed_payloads():
    with pytest.raises(ProtocolError):
        protocol.decode_request(b"")
    with pytest.raises(ProtocolError, match="header length"):
        protocol.decode_request(struct.pack("<I", 500) + b"{}")
    with pytest.raises(ProtocolError, match="unreadable"):
        protocol.decode_request(struct.pack("<I", 2) + b"\xff\xfe")
    good = protocol.encode_request(1, "dnn", _batch())[protocol.HEADER_SIZE:]
    with pytest.raises(ProtocolError, match="runs past the end"):
        protocol.decode_request(good[:-8])
    with pytest.raises(ProtocolError, match="trailing bytes"):
        protocol.decode_request(good + b"\x00")
    with pytest.raises(ProtocolError, match="domain"):
        protocol.decode_request(_request_payload(domain=7))
    with pytest.raises(ProtocolError, match="at least one row"):
        protocol.decode_request(container.encode(
            {"domain": "dnn"},
            {name: array[:0] for name, array in _batch().columns().items()},
        ))
    # A missing, renamed or retyped column is a malformed batch.
    columns = _batch(2).columns()
    del columns["volume"]
    with pytest.raises(ParameterError, match="scenario columns"):
        protocol.decode_request(container.encode({"domain": "dnn"}, columns))
    with pytest.raises(ParameterError, match="'volume'"):
        protocol.decode_request(
            _request_payload(volume=np.array([10, 20], dtype=np.int64))
        )


@pytest.mark.parametrize("byte", [0x02, 0xFE, 0xFF])
def test_decode_request_rejects_a_non_canonical_bool(byte):
    """``enforce_chip_lifetime`` travels as one byte per row; a byte
    other than 0 or 1 is a malformed payload, not a bool NumPy would
    carry non-canonically into digests and switch keys."""
    good = protocol.encode_request(1, "dnn", _batch(2))[protocol.HEADER_SIZE:]
    protocol.decode_request(good)
    damaged = bytearray(good)
    damaged[-1] = byte  # the enforce column is the last array, 1 byte a row
    with pytest.raises(ProtocolError, match="bool"):
        protocol.decode_request(bytes(damaged))


def test_decode_request_validates_scenario_values():
    """Out-of-range rows raise ParameterError (reported as MSG_ERROR by
    the server) rather than evaluating garbage."""
    with pytest.raises(ParameterError, match="num_apps"):
        protocol.decode_request(
            _request_payload(num_apps=np.array([-5, 2], dtype=np.int64))
        )
    with pytest.raises(ParameterError, match="lifetime"):
        protocol.decode_request(
            _request_payload(lifetime=np.array([[1.0, 0.0], [1.0, 2.0]]))
        )


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------


def test_fault_plan_kill_schedule_and_generations():
    plan = FaultPlan(kill_worker_at=((0, 3), (2, 5)))
    assert plan.kill_batch(0, 0) == 3
    assert plan.kill_batch(2, 0) == 5
    assert plan.kill_batch(1, 0) is None
    assert plan.kill_batch(0, 1) is None  # restart survives by default
    looping = FaultPlan(kill_worker_at=((0, 3),), kill_every_generation=True)
    assert looping.kill_batch(0, 7) == 3


def test_fault_plan_delay_and_truncation_selectors():
    plan = FaultPlan(delay_worker_s=0.5, delay_workers=(1,))
    assert plan.delay_for(1) == 0.5
    assert plan.delay_for(0) == 0.0
    everyone = FaultPlan(delay_worker_s=0.25)
    assert everyone.delay_for(3) == 0.25
    truncating = FaultPlan(truncate_response_every=3)
    assert [truncating.truncates_frame(i) for i in range(1, 7)] == [
        False, False, True, False, False, True,
    ]
    assert not FaultPlan().truncates_frame(1)


def test_fault_plan_corruption_is_seed_deterministic(tmp_path):
    blob = bytes(range(256)) * 8
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    a.write_bytes(blob)
    b.write_bytes(blob)
    assert FaultPlan(seed=5).corrupt_file(a, flips=32) == 32
    assert FaultPlan(seed=5).corrupt_file(b, flips=32) == 32
    assert a.read_bytes() == b.read_bytes()  # same seed, same damage
    assert a.read_bytes() != blob
    c = tmp_path / "c.bin"
    c.write_bytes(blob)
    FaultPlan(seed=6).corrupt_file(c, flips=32)
    assert c.read_bytes() != a.read_bytes()

    kept = FaultPlan().truncate_file(a, keep_fraction=0.25)
    assert kept == len(blob) // 4
    assert len(a.read_bytes()) == kept


# ----------------------------------------------------------------------
# Jittered backoff
# ----------------------------------------------------------------------


def test_jittered_backoff_full_mode_spread_and_cap():
    backoff = JitteredBackoff(base_s=0.05, cap_s=2.0, mode="full", seed=11)
    # The ceiling doubles per attempt and saturates at the cap.
    assert backoff.ceiling(1) == 0.05
    assert backoff.ceiling(2) == 0.1
    assert backoff.ceiling(7) == 2.0
    assert backoff.ceiling(1000) == 2.0  # huge attempts must not overflow
    for attempt in range(1, 12):
        delays = [backoff.delay(attempt) for _ in range(50)]
        ceiling = backoff.ceiling(attempt)
        assert all(0.0 <= d <= ceiling for d in delays)
        # Full jitter genuinely spreads: not everyone retries together.
        assert len({round(d, 12) for d in delays}) > 40
    # Per-call base (the server's RETRY_AFTER hint) scales the ceiling.
    assert backoff.ceiling(3, base_s=0.4) == 1.6


def test_jittered_backoff_equal_mode_keeps_escalating_floor():
    backoff = JitteredBackoff(base_s=0.1, cap_s=5.0, mode="equal", seed=7)
    for attempt in range(1, 8):
        ceiling = backoff.ceiling(attempt)
        delays = [backoff.delay(attempt) for _ in range(50)]
        # Equal jitter never drops below half the ceiling: a crash loop
        # cannot be respawned near-instantly by a lucky draw.
        assert all(ceiling / 2.0 <= d <= ceiling for d in delays)
    assert backoff.ceiling(1) < backoff.ceiling(2) < backoff.ceiling(6)


def test_jittered_backoff_seeded_and_validated():
    a = JitteredBackoff(seed=3)
    b = JitteredBackoff(seed=3)
    assert [a.delay(i) for i in (1, 2, 3)] == [b.delay(i) for i in (1, 2, 3)]
    assert JitteredBackoff(seed=3).delay(2) != JitteredBackoff(seed=4).delay(2)
    with pytest.raises(ParameterError, match="base_s"):
        JitteredBackoff(base_s=0.0)
    with pytest.raises(ParameterError, match="cap_s"):
        JitteredBackoff(base_s=1.0, cap_s=0.5)
    with pytest.raises(ParameterError, match="mode"):
        JitteredBackoff(mode="none")
    with pytest.raises(ParameterError, match="attempt"):
        JitteredBackoff().delay(0)


def test_fault_plan_kill_delays_are_seed_deterministic():
    delays = FaultPlan(seed=9).kill_delays(8, 0.05, 0.5)
    assert delays == FaultPlan(seed=9).kill_delays(8, 0.05, 0.5)
    assert delays != FaultPlan(seed=10).kill_delays(8, 0.05, 0.5)
    assert len(delays) == 8
    assert all(0.05 <= d < 0.5 for d in delays)
    assert FaultPlan().kill_delays(0) == ()
    with pytest.raises(ValueError, match="count"):
        FaultPlan().kill_delays(-1)
    with pytest.raises(ValueError, match="hi_s"):
        FaultPlan().kill_delays(2, 0.5, 0.1)


# ----------------------------------------------------------------------
# End-to-end server behaviour (no injected chaos)
# ----------------------------------------------------------------------


def _reference(domain: str, batch: ScenarioBatch):
    engine = EvaluationEngine()
    comparator = PlatformComparator.for_domain(domain)
    result = engine.evaluate_batch(comparator, batch)
    engine.close()
    return result


def test_server_round_trip_bit_identical_to_local():
    batch = _batch(12)
    local = _reference("dnn", batch)

    async def main():
        async with BatchServer(workers=1) as server:
            async with ServeClient(server.host, server.port) as client:
                return await client.evaluate("dnn", batch, deadline_s=30.0)

    served = asyncio.run(main())
    np.testing.assert_array_equal(served.ratios, local.ratios)
    np.testing.assert_array_equal(served.winners, local.winners)
    np.testing.assert_array_equal(served.fpga_totals, local.fpga_totals)
    np.testing.assert_array_equal(served.asic_totals, local.asic_totals)


def test_zero_worker_server_degrades_in_process_bit_identically():
    batch = _batch(8)
    local = _reference("dnn", batch)

    async def main():
        async with BatchServer(workers=0) as server:
            async with ServeClient(server.host, server.port) as client:
                result = await client.evaluate("dnn", batch, deadline_s=30.0)
            return result, server.stats

    served, stats = asyncio.run(main())
    np.testing.assert_array_equal(served.ratios, local.ratios)
    np.testing.assert_array_equal(served.winners, local.winners)
    assert stats.degraded_inprocess >= 1
    assert stats.responses_ok >= 1


def test_worker_periodic_snapshot_rewarms_a_restarted_server(tmp_path):
    """With ``snapshot_every_s`` set, workers re-dump their warm store
    to ``cache_file`` after replies — so a *new* server (a restart)
    starts with the previous fleet's warmth instead of a cold store."""
    cache = tmp_path / "warm.npz"
    batch = _batch(10)

    async def serve_once():
        async with BatchServer(
            workers=1, cache_file=str(cache), snapshot_every_s=0.0,
        ) as server:
            async with ServeClient(server.host, server.port) as client:
                await client.evaluate("dnn", batch, deadline_s=30.0)
            # The snapshot lands after the reply; give the worker loop a
            # beat to write it before the server tears the fleet down.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not cache.exists():
                await asyncio.sleep(0.01)

    asyncio.run(serve_once())
    assert cache.exists(), "worker never snapshotted its warm store"
    warm = EvaluationEngine()
    try:
        assert warm.load_cache(cache) > 0
    finally:
        warm.close()


class _HungUpConn:
    """A worker pipe whose server end is gone: sends break the pipe."""

    def __init__(self, *messages) -> None:
        self.messages = list(messages)
        self.sent = 0
        self.closed = False

    def recv(self):
        if not self.messages:
            raise EOFError
        return self.messages.pop(0)

    def send(self, message) -> None:
        self.sent += 1
        raise BrokenPipeError(32, "Broken pipe")

    def close(self) -> None:
        self.closed = True


@pytest.mark.parametrize("kind", ["ping", "batch"])
def test_worker_returns_cleanly_when_a_send_races_shutdown(kind):
    """A pong or a batch reply sent after the server hung up ends the
    worker loop like a failed ``recv``: no traceback, clean-up runs,
    and the worker reads no further message."""
    batch = _batch(4)
    job = {
        "id": 7,
        "domain": "dnn",
        "columns": {
            "num_apps": batch.num_apps,
            "volume": batch.volume,
            "lifetime": batch.lifetime,
            "evaluation_years": batch.evaluation_years,
            "app_size_mgates": batch.app_size_mgates,
            "enforce_chip_lifetime": batch.enforce_chip_lifetime,
        },
        "deadline": None,
    }
    first = ("ping",) if kind == "ping" else ("job", job)
    conn = _HungUpConn(first, ("ping",))
    worker_main(conn, WorkerSpec(index=0))
    assert conn.sent == 1
    assert conn.closed
    assert conn.messages == [("ping",)]


def test_full_queue_sheds_newest_with_retry_after():
    """Raw-socket clients (no retry logic) flood a queue of 1: at least
    one must see an honest ``RETRY_AFTER`` frame, and the counter must
    say so.  Workers=0 keeps the test fast; the in-process path is
    throttled by a single dispatcher grinding real evaluations."""
    batch = _batch(40)
    flood = 12

    async def one_raw_client(host, port, request_id):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(protocol.encode_request(request_id, "dnn", batch))
            await writer.drain()
            frame = await protocol.read_frame(reader)
            return frame.type
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def main():
        async with BatchServer(
            workers=0, queue_limit=1, dispatchers=1, retry_after_s=0.02
        ) as server:
            types = await asyncio.gather(*(
                one_raw_client(server.host, server.port, i + 1)
                for i in range(flood)
            ))
            return types, server.stats

    types, stats = asyncio.run(main())
    assert stats.shed_queue_full >= 1
    assert types.count(protocol.MSG_RETRY_AFTER) == stats.shed_queue_full
    assert types.count(protocol.MSG_RESPONSE) == stats.responses_ok
    assert stats.responses_ok >= 1  # the queue kept draining under load


def test_client_retries_through_backpressure_to_a_result():
    """The ServeClient spelling of the same flood: every client request
    eventually succeeds (honouring RETRY_AFTER), bit-identically."""
    batch = _batch(10)
    local = _reference("dnn", batch)

    async def main():
        async with BatchServer(
            workers=0, queue_limit=2, dispatchers=1, retry_after_s=0.01
        ) as server:
            clients = [ServeClient(server.host, server.port) for _ in range(8)]
            results = await asyncio.gather(*(
                client.evaluate("dnn", batch, deadline_s=30.0)
                for client in clients
            ))
            retries = sum(client.retries_after for client in clients)
            for client in clients:
                await client.aclose()
            return results, retries, server.stats

    results, retries, stats = asyncio.run(main())
    for result in results:
        np.testing.assert_array_equal(result.ratios, local.ratios)
    assert retries == stats.shed_queue_full


def test_expired_deadline_answered_with_deadline_frame_not_work():
    """A request whose deadline has already passed at dispatch must be
    shed (deadline frame), not evaluated.  A slow request in front of it
    on the single dispatcher guarantees the 1 ms deadline expires while
    the request is still queued."""
    slow_batch = _batch(3000)
    batch = _batch(4)

    async def main():
        async with BatchServer(
            workers=0, dispatchers=1, default_deadline_s=30.0
        ) as server:
            async with ServeClient(server.host, server.port) as blocker:
                async with ServeClient(server.host, server.port) as client:
                    ahead = asyncio.ensure_future(
                        blocker.evaluate("dnn", slow_batch, deadline_s=30.0)
                    )
                    await asyncio.sleep(0.005)  # let the slow job dispatch
                    begin = time.monotonic()
                    with pytest.raises(DeadlineError):
                        # 1 ms deadline: expired while queued.
                        await client.evaluate("dnn", batch, deadline_s=0.001)
                    elapsed = time.monotonic() - begin
                    await ahead
                    return elapsed, server.stats

    elapsed, stats = asyncio.run(main())
    # Shed pre-dispatch normally; a very fast dispatcher may instead
    # catch the expiry inside evaluate_job (deadline_exceeded).
    assert stats.shed_over_deadline + stats.deadline_exceeded >= 1
    assert elapsed < 10.0  # bounded, nowhere near a hang


def test_garbage_bytes_drop_connection_but_not_server():
    batch = _batch(4)
    local = _reference("dnn", batch)

    async def main():
        async with BatchServer(workers=0) as server:
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(b"this is not a GFS1 frame at all" * 4)
            await writer.drain()
            assert await reader.read() == b""  # server hung up on us
            writer.close()
            await writer.wait_closed()
            # A well-behaved client right after is served normally.
            async with ServeClient(server.host, server.port) as client:
                result = await client.evaluate("dnn", batch, deadline_s=30.0)
            return result, server.stats

    result, stats = asyncio.run(main())
    assert stats.protocol_errors >= 1
    np.testing.assert_array_equal(result.ratios, local.ratios)


def test_ping_pong_and_unknown_domain_error():
    async def main():
        async with BatchServer(workers=0) as server:
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(protocol.encode_frame(protocol.MSG_PING, 77))
            await writer.drain()
            pong = await protocol.read_frame(reader)
            writer.close()
            await writer.wait_closed()

            async with ServeClient(server.host, server.port) as client:
                with pytest.raises(RemoteError):
                    await client.evaluate(
                        "no-such-domain", _batch(2), deadline_s=30.0
                    )
            return pong, server.stats

    pong, stats = asyncio.run(main())
    assert pong.type == protocol.MSG_PONG and pong.request_id == 77
    assert stats.worker_errors >= 1


def test_server_validates_queue_limit():
    with pytest.raises(ParameterError):
        BatchServer(queue_limit=0)


def test_latency_benchmark_kill_that_never_fires_is_a_serve_error():
    """A run too small to reach the injected kill must fail loudly.

    One client sending one request never gets worker 0 to its
    ``kill_at_batch``-th batch, so the one-kill phase would otherwise
    report a fault-free run.  The check is a typed error, not an
    ``assert`` that ``python -O`` strips.
    """
    with pytest.raises(ServeError, match="kill_at_batch") as info:
        latency_benchmark(
            client_counts=(1,), requests_per_client=1, cells_per_request=5,
            repeats=1,
        )
    assert "--requests" in str(info.value)
    assert "--clients" in str(info.value)


def test_reference_columns_keep_the_store_the_cache_file_held(tmp_path):
    """``serve-bench --cache-file PATH`` adds its cells to PATH's store
    instead of replacing it."""
    comparator = PlatformComparator.for_domain("dnn")
    earlier = [
        ScenarioBatch.from_arrays(
            num_apps=np.arange(1, 13, dtype=np.int64),
            lifetime=lifetime, volume=2_000_000,
        )
        for lifetime in (4.0, 5.0, 6.0, 7.0)
    ]
    path = tmp_path / "warm.npz"
    warm = EvaluationEngine(cache_size=4096)
    for batch in earlier:
        warm.evaluate_batch(comparator, batch)
    warm.save_cache(path)

    _reference_columns("dnn", _request_batches(2, 10), path)

    reloaded = EvaluationEngine(cache_size=4096)
    assert reloaded.load_cache(path) == 48 + 20
    for batch in earlier:
        reloaded.evaluate_batch(comparator, batch)
    assert reloaded.rows_computed == 0
