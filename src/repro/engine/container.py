"""One array container: a JSON header plus named, shaped, typed arrays.

Every byte format of the engine writes the same layout, little-endian
throughout::

    prefix | [16-byte digest] | u32 header length | JSON header
    | raw array bytes

* the **prefix** names the use and its version (``b"GFCKPT"`` + u16
  for a checkpoint, ``b"GFSTORE"`` + u16 for a result-store snapshot);
  the wire payloads leave it empty, since their frame header already
  carries the protocol version;
* the optional **digest** is SHA-256 over every other byte, truncated
  to 16 bytes and hashed part by part, so the array bytes are never
  concatenated just to be hashed.  Files on disk carry it; the wire and
  shared memory do not (TCP checks its own bytes, and a segment never
  leaves the machine);
* the **JSON header** is ``{"meta": ..., "arrays": [{"name", "dtype",
  "shape"}, ...]}`` with sorted keys: the use's own fields plus the
  array table, whose arrays follow back to back in table order.

Decoding slices the arrays out of the input buffer against the table:
only ``|b1 |u1 <i8 <u8 <f8`` are accepted, every entry is
bounds-checked, trailing bytes are rejected, a ``|b1`` byte other than
0 or 1 is rejected (NumPy would carry it as a non-canonical bool) and
nothing is ever unpickled.  :func:`expect` checks the decoded arrays
against a use's schema.  Every failure raises
:class:`~repro.errors.ContainerError`, which each use turns into its
own error (``ProtocolError`` on the wire, ``StoreCorruptError`` for
snapshots and checkpoints).  The decoded arrays are
``np.ndarray(buffer=raw)`` views of the caller's object, read-only for
``bytes``: they keep it alive but hold no buffer export, so a
shared-memory segment can close while chunk views still exist.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from repro.errors import ContainerError

#: ``dtype.str`` of every array a container may carry.
DTYPES = frozenset({"|b1", "|u1", "<i8", "<u8", "<f8"})
#: Bytes of the optional digest.
DIGEST_BYTES = 16


def _digest(*parts) -> bytes:
    """SHA-256 over ``parts`` in order, truncated to the digest size."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.digest()[:DIGEST_BYTES]


def encode_parts(
    meta: dict,
    arrays: "dict[str, np.ndarray]",
    *,
    prefix: bytes = b"",
    digest: bool = False,
    align: int = 1,
) -> list:
    """The container for ``meta`` and ``arrays`` (in dict order), as
    byte-like parts whose concatenation is the encoding.

    ``align`` pads the JSON header with spaces so the array bytes start
    at a multiple of ``align`` (a shared-memory segment is page-aligned,
    so its 8-byte columns then are too).
    """
    table = []
    blobs = []
    for name, array in arrays.items():
        array = np.asarray(array)
        array = np.ascontiguousarray(
            array, dtype=array.dtype.newbyteorder("<")
        )
        if array.dtype.str not in DTYPES:
            raise ContainerError(
                f"array {name!r} has unsupported dtype {array.dtype.str!r}"
            )
        table.append(
            {"name": name, "dtype": array.dtype.str,
             "shape": list(array.shape)}
        )
        blobs.append(array)
    header = json.dumps(
        {"meta": meta, "arrays": table}, sort_keys=True
    ).encode("utf-8")
    head = len(prefix) + (DIGEST_BYTES if digest else 0) + 4
    header += b" " * (-(head + len(header)) % align)
    length = len(header).to_bytes(4, "little")
    if digest:
        prefix = prefix + _digest(prefix, length, header, *blobs)
    return [prefix, length, header, *blobs]


def encode(meta: dict, arrays: "dict[str, np.ndarray]", **options) -> bytes:
    """The container bytes for ``meta`` and ``arrays`` (see
    :func:`encode_parts` for the options)."""
    return b"".join(encode_parts(meta, arrays, **options))


def decode(
    raw, *, prefix: bytes = b"", digest: bool = False
) -> "tuple[dict, dict[str, np.ndarray]]":
    """``(meta, arrays)`` from container bytes (any bytes-like object).

    Raises :class:`ContainerError` on a wrong prefix, a digest mismatch
    and any structural damage: the table is bounds-checked entry by
    entry and trailing bytes are rejected.
    """
    view = memoryview(raw)
    at = len(prefix) + (DIGEST_BYTES if digest else 0)
    header_at = at + 4
    if len(view) < header_at or view[: len(prefix)] != prefix:
        raise ContainerError(
            f"bad prefix {bytes(view[: len(prefix)])!r} "
            f"(expected {prefix!r})"
        )
    if digest and _digest(view[: len(prefix)], view[at:]) != view[len(prefix):at]:
        raise ContainerError("checksum mismatch")
    offset = header_at + int.from_bytes(view[at:header_at], "little")
    if offset > len(view):
        raise ContainerError("header length out of range")
    arrays: dict[str, np.ndarray] = {}
    try:
        header = json.loads(bytes(view[header_at:offset]).decode("utf-8"))
        if not isinstance(header, dict):
            raise TypeError("header is not an object")
        meta, table = header["meta"], header["arrays"]
        if not isinstance(meta, dict) or not isinstance(table, list):
            raise TypeError("header meta/arrays have the wrong type")
        for entry in table:
            name, dtype, shape = entry["name"], entry["dtype"], entry["shape"]
            if not isinstance(dtype, str) or dtype not in DTYPES:
                raise TypeError(f"array {name!r} has dtype {dtype!r}")
            if not isinstance(name, str) or name in arrays or not (
                isinstance(shape, list)
                and all(type(dim) is int and dim >= 0 for dim in shape)
            ):
                raise TypeError(f"malformed array table entry {entry!r}")
            count = math.prod(shape)
            end = offset + count * np.dtype(dtype).itemsize
            if end > len(view):
                raise ValueError(f"array {name!r} runs past the end")
            arrays[name] = np.ndarray(
                tuple(shape), dtype=dtype, buffer=raw, offset=offset
            )
            offset = end
    except (
        ValueError, KeyError, TypeError, OverflowError, RecursionError
    ) as error:
        raise ContainerError(f"header unreadable: {error}") from error
    if offset != len(view):
        raise ContainerError(f"{len(view) - offset} trailing bytes")
    for name, array in arrays.items():
        if array.dtype == bool and np.any(array.view(np.uint8) > 1):
            raise ContainerError(f"bool array {name!r} holds a byte above 1")
    return meta, arrays


def expect(
    arrays: "dict[str, np.ndarray]",
    schema: "dict[str, tuple[str, tuple[int, ...]]]",
) -> int:
    """The row count ``n`` of decoded ``arrays`` that are exactly
    ``schema``, ``{name: (dtype, trailing_shape)}``: each array has its
    dtype and the shape ``(n, *trailing_shape)``, one ``n`` for all.

    Raises :class:`ContainerError` on a missing, extra, retyped or
    reshaped array.
    """
    first = arrays.get(next(iter(schema)))
    rows = first.shape[:1] if first is not None else ()
    found = {name: (array.dtype.str, array.shape)
             for name, array in arrays.items()}
    wanted = {name: (dtype, (*rows, *trailing))
              for name, (dtype, trailing) in schema.items()}
    if not rows or found != wanted:
        raise ContainerError(
            f"inconsistent arrays {found} (expected {schema})"
        )
    return rows[0]
