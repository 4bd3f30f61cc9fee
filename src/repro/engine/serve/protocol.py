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
(network order); the numeric column payloads are little-endian
contiguous dumps — requests carry the six scenario columns, responses
the four result columns — so a 10k-row sweep is one ~240 kB frame and
two syscalls, not 10k JSON objects.

Payloads by type:

* ``MSG_REQUEST`` — ``u16`` domain length + UTF-8 domain name, ``u32``
  row count, then columns ``num_apps i64``, ``volume i64``,
  ``lifetime f64``, ``evaluation_years f64`` (NaN = model default),
  ``app_size_mgates f64`` (NaN = default), ``enforce u8``.
* ``MSG_RESPONSE`` — ``u32`` row count, then columns ``ratios f64``,
  ``winners u8`` (1 = asic wins, 0 = fpga), ``fpga_totals f64``,
  ``asic_totals f64``.
* ``MSG_ERROR`` — ``u16`` length + UTF-8 message (model/protocol error
  for this request id).
* ``MSG_RETRY_AFTER`` — ``f64`` suggested client backoff in seconds
  (admission queue full; the request was shed, not queued).
* ``MSG_DEADLINE`` — empty (the request's deadline expired before a
  result could be produced).
* ``MSG_PING`` / ``MSG_PONG`` — empty (liveness probe).

Truncation anywhere — mid-header or mid-payload — raises
:class:`ProtocolError`; a clean EOF between frames reads as ``None``.
The protocol is deliberately connection-stateless: every frame is
self-describing, so a client may reconnect and resend after any
transport fault (evaluation is pure, replay is safe).
"""

from __future__ import annotations

import asyncio
import struct

import numpy as np

from repro.engine.vector.columns import ScenarioBatch
from repro.errors import ServeError

MAGIC = b"GFS1"
PROTOCOL_VERSION = 1

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

#: Per-column wire dtypes of a request, in frame order.
_REQUEST_COLUMNS = (
    ("num_apps", np.dtype("<i8")),
    ("volume", np.dtype("<i8")),
    ("lifetime", np.dtype("<f8")),
    ("evaluation_years", np.dtype("<f8")),
    ("app_size_mgates", np.dtype("<f8")),
    ("enforce_chip_lifetime", np.dtype("u1")),
)

#: Per-column wire dtypes of a response, in frame order.
_RESPONSE_COLUMNS = (
    ("ratios", np.dtype("<f8")),
    ("winners", np.dtype("u1")),
    ("fpga_totals", np.dtype("<f8")),
    ("asic_totals", np.dtype("<f8")),
)


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
# Request payloads (scenario columns)
# ----------------------------------------------------------------------


def encode_request(
    request_id: int,
    domain: str,
    batch: ScenarioBatch,
    *,
    deadline_ms: int = 0,
) -> bytes:
    """One request frame for a scenario batch.

    The frame carries one lifetime and one int64 volume per row, so
    batches with per-application lifetimes or fractional volumes are
    refused.
    """
    if batch.lifetime.ndim != 1 or np.any(
        batch.volume != np.floor(batch.volume)
    ):
        raise ProtocolError(
            "the wire protocol carries one lifetime and an integral "
            "volume per row (no per-application lifetimes, no "
            "fractional volumes)"
        )
    name = domain.encode("utf-8")
    if len(name) > 0xFFFF:
        raise ProtocolError(f"domain name of {len(name)} bytes is too long")
    parts = [struct.pack("!H", len(name)), name,
             struct.pack("!I", batch.size)]
    for field, dtype in _REQUEST_COLUMNS:
        column = np.ascontiguousarray(getattr(batch, field))
        if field == "enforce_chip_lifetime":
            column = column.astype(np.uint8)
        parts.append(column.astype(dtype, copy=False).tobytes())
    return encode_frame(
        MSG_REQUEST, request_id, b"".join(parts), deadline_ms=deadline_ms
    )


def decode_request(payload: bytes) -> tuple[str, ScenarioBatch]:
    """``(domain, batch)`` from a request payload.

    Row values are validated exactly like :meth:`ScenarioBatch.from_arrays`
    — a frame carrying out-of-range scenarios raises
    :class:`~repro.errors.ParameterError`, which the server reports back
    as an ``MSG_ERROR`` frame rather than evaluating garbage.
    """
    if len(payload) < 2:
        raise ProtocolError("request payload shorter than its domain header")
    (name_len,) = struct.unpack_from("!H", payload, 0)
    offset = 2
    if len(payload) < offset + name_len + 4:
        raise ProtocolError("request payload ends inside its domain header")
    try:
        domain = payload[offset:offset + name_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"undecodable domain name: {exc}") from exc
    offset += name_len
    (n_rows,) = struct.unpack_from("!I", payload, offset)
    offset += 4
    if n_rows == 0:
        raise ProtocolError("a request must carry at least one row")
    columns: dict[str, np.ndarray] = {}
    for field, dtype in _REQUEST_COLUMNS:
        nbytes = n_rows * dtype.itemsize
        if offset + nbytes > len(payload):
            raise ProtocolError(
                f"request payload ends inside column {field!r}"
            )
        columns[field] = np.frombuffer(
            payload, dtype=dtype, count=n_rows, offset=offset
        ).copy()
        offset += nbytes
    if offset != len(payload):
        raise ProtocolError(
            f"{len(payload) - offset} trailing bytes after request columns"
        )
    evaluation = columns["evaluation_years"]
    app_size = columns["app_size_mgates"]
    batch = ScenarioBatch.from_arrays(
        num_apps=columns["num_apps"],
        lifetime=columns["lifetime"],
        volume=columns["volume"],
        evaluation_years=None if np.isnan(evaluation).all() else evaluation,
        app_size_mgates=None if np.isnan(app_size).all() else app_size,
        enforce_chip_lifetime=columns["enforce_chip_lifetime"].astype(bool),
    )
    return domain, batch


def _unpack_struct(fmt: str, payload: bytes, what: str) -> tuple:
    try:
        return struct.unpack(fmt, payload)
    except struct.error as exc:
        raise ProtocolError(f"malformed {what} payload: {exc}") from exc


# ----------------------------------------------------------------------
# Response payloads (result columns)
# ----------------------------------------------------------------------


def encode_response(
    request_id: int,
    ratios: np.ndarray,
    winners_u8: np.ndarray,
    fpga_totals: np.ndarray,
    asic_totals: np.ndarray,
) -> bytes:
    """One response frame from the four result columns."""
    values = {
        "ratios": ratios,
        "winners": winners_u8,
        "fpga_totals": fpga_totals,
        "asic_totals": asic_totals,
    }
    n_rows = int(np.asarray(ratios).shape[0])
    parts = [struct.pack("!I", n_rows)]
    for field, dtype in _RESPONSE_COLUMNS:
        column = np.ascontiguousarray(values[field])
        parts.append(column.astype(dtype, copy=False).tobytes())
    return encode_frame(MSG_RESPONSE, request_id, b"".join(parts))


def decode_response(
    payload: bytes,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(ratios, winners_u8, fpga_totals, asic_totals)`` columns."""
    if len(payload) < 4:
        raise ProtocolError("response payload shorter than its row count")
    (n_rows,) = struct.unpack_from("!I", payload, 0)
    offset = 4
    columns = []
    for field, dtype in _RESPONSE_COLUMNS:
        nbytes = n_rows * dtype.itemsize
        if offset + nbytes > len(payload):
            raise ProtocolError(
                f"response payload ends inside column {field!r}"
            )
        columns.append(
            np.frombuffer(
                payload, dtype=dtype, count=n_rows, offset=offset
            ).copy()
        )
        offset += nbytes
    if offset != len(payload):
        raise ProtocolError(
            f"{len(payload) - offset} trailing bytes after response columns"
        )
    return tuple(columns)


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
