"""Length-prefixed binary batch protocol for the serving tier.

Every message is one **frame**::

    magic   4s   b"GFS1"
    version u8   PROTOCOL_VERSION
    type    u8   MSG_* discriminator
    flags   u16  reserved (0)
    id      u64  request id, echoed in the response
    deadline u32 client deadline in ms (0 = server default), requests only
    length  u32  payload byte count

followed by ``length`` payload bytes.  The header is big-endian
(network order).  Request and response payloads are array containers
(:mod:`repro.engine.container`, no prefix, no digest: TCP already
checks the bytes): a JSON header and little-endian contiguous column
dumps, so a 10k-row sweep is one ~400 kB frame and two syscalls, not
10k JSON objects.

Payloads by type:

* ``MSG_REQUEST`` — meta ``{"domain": name}`` and the scenario columns
  :attr:`ScenarioBatch.COLUMNS <repro.engine.vector.columns.ScenarioBatch.COLUMNS>`
  (``lifetime`` may be an ``(n, w)`` per-application block, ``volume``
  is float64; NaN in ``evaluation_years`` / ``app_size_mgates`` means
  the model default), so every valid ``Scenario`` has a row.
* ``MSG_RESPONSE`` — columns ``ratios f64``, ``winners u8`` (1 = asic
  wins, 0 = fpga), ``fpga_totals f64``, ``asic_totals f64``.
* ``MSG_ERROR`` — ``u16`` length + UTF-8 message (model/protocol error
  for this request id).
* ``MSG_RETRY_AFTER`` — ``f64`` suggested client backoff in seconds
  (admission queue full; the request was shed, not queued).
* ``MSG_DEADLINE`` — empty (the request's deadline expired before a
  result could be produced).
* ``MSG_PING`` / ``MSG_PONG`` — empty (liveness probe).

Truncation anywhere — mid-header or mid-payload — and a payload that
does not decode raise :class:`ProtocolError`; a clean EOF between
frames reads as ``None``.
The protocol is deliberately connection-stateless: every frame is
self-describing, so a client may reconnect and resend after any
transport fault (evaluation is pure, replay is safe).
"""

from __future__ import annotations

import asyncio
import struct

import numpy as np

from repro.engine import container
from repro.engine.vector.columns import ScenarioBatch
from repro.errors import ContainerError, ServeError

MAGIC = b"GFS1"
PROTOCOL_VERSION = 2

MSG_REQUEST = 1
MSG_RESPONSE = 2
MSG_ERROR = 3
MSG_RETRY_AFTER = 4
MSG_DEADLINE = 5
MSG_PING = 6
MSG_PONG = 7

_HEADER = struct.Struct("!4sBBHQII")
HEADER_SIZE = _HEADER.size

#: Upper bound on one frame's payload (64 MiB ≈ 1.3M-row request): a
#: corrupted or hostile length field must not trigger an unbounded read.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

#: The columns of a response payload, ``{name: (dtype, trailing
#: shape)}`` in table order.
_RESPONSE_SCHEMA = {
    "ratios": ("<f8", ()),
    "winners": ("|u1", ()),
    "fpga_totals": ("<f8", ()),
    "asic_totals": ("<f8", ()),
}


class ProtocolError(ServeError):
    """A frame was malformed, truncated, or violated a protocol bound."""


class RemoteError(ServeError):
    """The server answered this request with an ``MSG_ERROR`` frame."""


class DeadlineError(ServeError):
    """The request's deadline expired before a result was produced."""


class BackpressureError(ServeError):
    """The server kept shedding this request past the retry budget."""


class Frame:
    """One decoded frame: ``(type, request_id, deadline_ms, payload)``."""

    __slots__ = ("type", "request_id", "deadline_ms", "payload")

    def __init__(
        self, type: int, request_id: int, deadline_ms: int, payload: bytes
    ) -> None:
        self.type = type
        self.request_id = request_id
        self.deadline_ms = deadline_ms
        self.payload = payload


def encode_frame(
    msg_type: int,
    request_id: int,
    payload: bytes = b"",
    *,
    deadline_ms: int = 0,
) -> bytes:
    """Pack one frame (header + payload) into a single ``bytes``."""
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame bound"
        )
    header = _HEADER.pack(
        MAGIC, PROTOCOL_VERSION, msg_type, 0, request_id,
        deadline_ms, len(payload),
    )
    return header + payload


async def read_frame(reader: asyncio.StreamReader) -> "Frame | None":
    """Read one frame; ``None`` on clean EOF between frames.

    Truncation mid-frame (EOF inside the header or the payload) raises
    :class:`ProtocolError` — the caller must treat the connection as
    dead, because the stream can never resynchronise.
    """
    try:
        raw = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"truncated header: got {len(exc.partial)} of "
            f"{HEADER_SIZE} bytes"
        ) from exc
    except ConnectionResetError as exc:
        raise ProtocolError("connection reset mid-frame") from exc
    magic, version, msg_type, _flags, request_id, deadline_ms, length = (
        _HEADER.unpack(raw)
    )
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version} != {PROTOCOL_VERSION}"
        )
    if length > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"declared payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame bound"
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"truncated payload: got {len(exc.partial)} of {length} bytes"
        ) from exc
    except ConnectionResetError as exc:
        raise ProtocolError("connection reset mid-frame") from exc
    return Frame(msg_type, request_id, deadline_ms, payload)


# ----------------------------------------------------------------------
# Request and response payloads (array containers)
# ----------------------------------------------------------------------


def _decode_payload(
    payload: bytes, what: str, schema: "dict | None" = None
) -> "tuple[dict, dict]":
    try:
        meta, arrays = container.decode(payload)
        if schema is not None:
            container.expect(arrays, schema)
        return meta, arrays
    except ContainerError as exc:
        raise ProtocolError(f"malformed {what} payload: {exc}") from exc


def encode_request(
    request_id: int,
    domain: str,
    batch: ScenarioBatch,
    *,
    deadline_ms: int = 0,
) -> bytes:
    """One request frame for a scenario batch (any valid ``Scenario``
    rows: ``(n, w)`` lifetime blocks and fractional volumes included)."""
    payload = container.encode({"domain": domain}, batch.columns())
    return encode_frame(
        MSG_REQUEST, request_id, payload, deadline_ms=deadline_ms
    )


def decode_request(payload: bytes) -> tuple[str, ScenarioBatch]:
    """``(domain, batch)`` from a request payload.

    The columns are validated by :meth:`ScenarioBatch.from_columns` — a
    frame carrying out-of-range scenarios raises
    :class:`~repro.errors.ParameterError`, which the server reports back
    as an ``MSG_ERROR`` frame rather than evaluating garbage.
    """
    meta, arrays = _decode_payload(payload, "request")
    domain = meta.get("domain")
    if not isinstance(domain, str):
        raise ProtocolError(f"request domain {domain!r} is not a string")
    batch = ScenarioBatch.from_columns(
        {name: array.copy() for name, array in arrays.items()}
    )
    if batch.size == 0:
        raise ProtocolError("a request must carry at least one row")
    return domain, batch


def encode_response(
    request_id: int,
    ratios: np.ndarray,
    winners_u8: np.ndarray,
    fpga_totals: np.ndarray,
    asic_totals: np.ndarray,
) -> bytes:
    """One response frame from the four result columns."""
    values = (ratios, winners_u8, fpga_totals, asic_totals)
    payload = container.encode({}, {
        name: np.asarray(value, dtype=dtype)
        for (name, (dtype, _)), value in zip(_RESPONSE_SCHEMA.items(), values)
    })
    return encode_frame(MSG_RESPONSE, request_id, payload)


def decode_response(
    payload: bytes,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(ratios, winners_u8, fpga_totals, asic_totals)`` columns."""
    _, arrays = _decode_payload(payload, "response", _RESPONSE_SCHEMA)
    return tuple(arrays[name].copy() for name in _RESPONSE_SCHEMA)


def _unpack_struct(fmt: str, payload: bytes, what: str) -> tuple:
    try:
        return struct.unpack(fmt, payload)
    except struct.error as exc:
        raise ProtocolError(f"malformed {what} payload: {exc}") from exc


def encode_error(request_id: int, message: str) -> bytes:
    """One error frame (the request failed; the connection lives on)."""
    text = message.encode("utf-8")[:0xFFFF]
    return encode_frame(
        MSG_ERROR, request_id, struct.pack("!H", len(text)) + text
    )


def decode_error(payload: bytes) -> str:
    """The error message carried by an ``MSG_ERROR`` payload."""
    (length,) = _unpack_struct("!H", payload[:2], "error")
    return payload[2:2 + length].decode("utf-8", errors="replace")


def encode_retry_after(request_id: int, delay_s: float) -> bytes:
    """One backpressure frame: retry after ``delay_s`` seconds."""
    return encode_frame(
        MSG_RETRY_AFTER, request_id, struct.pack("!d", float(delay_s))
    )


def decode_retry_after(payload: bytes) -> float:
    """The suggested backoff carried by an ``MSG_RETRY_AFTER`` payload."""
    return float(_unpack_struct("!d", payload, "retry-after")[0])


def encode_deadline(request_id: int) -> bytes:
    """One deadline-expired frame for ``request_id``."""
    return encode_frame(MSG_DEADLINE, request_id)
