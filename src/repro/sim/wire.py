"""The wire format as bytes: the reference :func:`measure_bytes` is held to.

Every byte count of the simulation comes from closed forms —
:func:`~repro.sim.network.measure_bytes` and
:meth:`~repro.sim.network.ShareRows.wire_size` — so that sizing a message
never encodes it.  This module is what those closed forms describe:
:func:`encode` writes a value in the format of
:mod:`repro.sim.network`'s docstring and :func:`decode` reads it back,
and the tests hold ``decode(encode(m)) == m`` and ``len(encode(m)) ==
measure_bytes(m)`` for drawn values and for every message the pipeline
scenarios send.  Nothing on the query path calls it.

A header's first byte names the value's kind in its high four bits:

* ``0`` — a one-byte header: ``0x00`` NULL, ``0x01`` False, ``0x02``
  True, or ``0x03`` and a float's 8 IEEE-754 bytes, big-endian;
* ``1`` / ``2`` — an int ≥ 0 / < 0: a 2-byte header whose low 12 bits
  are the length of the magnitude that follows, big-endian (zero is one
  ``0x00`` byte);
* ``3`` / ``4`` / ``5`` — a str's UTF-8 / bytes / a Decimal's ``str``:
  a 2-byte header with a 12-bit length, then those bytes;
* ``6`` / ``7`` / ``8`` — a list / a tuple / a dict: a 4-byte header
  whose low 28 bits count the items, then each item (a dict's key, then
  its value);
* ``9`` — share rows, column-major: a 4-byte header counting the rows;
  unless that is 0, the column names as a tuple, every row id, then each
  column's cells, each an int (its header and magnitude) or NULL (one
  byte).

What the headers cannot carry — a string or an integer of 4,096 bytes or
more, a container of 2^28 items or more, a type without a rule here —
raises :class:`~repro.errors.WireError`, and so does :func:`decode` on
bytes that are not one whole encoded value.
"""

from __future__ import annotations

import struct
from decimal import Decimal
from typing import Tuple

from ..errors import WireError
from .network import ShareRows

_NULL, _FALSE, _TRUE, _FLOAT = 0x00, 0x01, 0x02, 0x03
_POSITIVE, _NEGATIVE, _STR, _BYTES, _DECIMAL = 1, 2, 3, 4, 5
_LIST, _TUPLE, _DICT, _ROWS = 6, 7, 8, 9
_MAX_LENGTH = (1 << 12) - 1
_MAX_COUNT = (1 << 28) - 1
_DOUBLE = struct.Struct(">d")


def encode(value: object) -> bytes:
    """``value`` in the wire format; ``len`` of it is ``measure_bytes(value)``."""
    out = bytearray()
    _write(value, out)
    return bytes(out)


def decode(data: bytes) -> object:
    """The value :func:`encode` wrote as ``data``, which must be exactly one."""
    value, end = _read(memoryview(data), 0)
    if end != len(data):
        raise WireError(f"{len(data) - end} bytes follow the encoded value")
    return value


# ------------------------------------------------------------------ writing --


def _head(tag: int, length: int, out: bytearray) -> None:
    if length > _MAX_LENGTH:
        raise WireError(f"{length} bytes do not fit a 12-bit length header")
    out += ((tag << 12) | length).to_bytes(2, "big")


def _count(tag: int, count: int, out: bytearray) -> None:
    if count > _MAX_COUNT:
        raise WireError(f"{count} items do not fit a 28-bit count header")
    out += ((tag << 28) | count).to_bytes(4, "big")


def _write_int(value: int, out: bytearray) -> None:
    magnitude = abs(value)
    body = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
    _head(_NEGATIVE if value < 0 else _POSITIVE, len(body), out)
    out += body


def _write_cell(cell: object, out: bytearray) -> None:
    """A share-rows cell: shares are ints, so an ``int`` subclass (``bool``
    included) goes as the int it is."""
    if isinstance(cell, int):
        _write_int(int(cell), out)
    else:
        _write(cell, out)


def _write(value: object, out: bytearray) -> None:
    # the order of measure_bytes: share rows, then one rule per line of
    # the network module's format list
    if type(value) is ShareRows:
        _write_rows(value, out)
    elif value is None:
        out.append(_NULL)
    elif isinstance(value, bool):
        out.append(_TRUE if value else _FALSE)
    elif isinstance(value, int):
        _write_int(int(value), out)
    elif isinstance(value, float):
        out.append(_FLOAT)
        out += _DOUBLE.pack(value)
    elif isinstance(value, Decimal):
        body = str(value).encode("ascii")
        _head(_DECIMAL, len(body), out)
        out += body
    elif isinstance(value, str):
        body = value.encode("utf-8")
        _head(_STR, len(body), out)
        out += body
    elif isinstance(value, bytes):
        _head(_BYTES, len(value), out)
        out += value
    elif isinstance(value, (list, tuple)):
        _count(_LIST if isinstance(value, list) else _TUPLE, len(value), out)
        for item in value:
            _write(item, out)
    elif isinstance(value, dict):
        _count(_DICT, len(value), out)
        for key, item in value.items():
            _write(key, out)
            _write(item, out)
    else:
        raise WireError(f"the wire format has no rule for type {type(value).__name__}")


def _write_rows(rows: ShareRows, out: bytearray) -> None:
    count = len(rows.row_ids)
    _count(_ROWS, count, out)
    if not count:
        return
    if len(rows.shares) != len(rows.columns) or any(len(cells) != count for cells in rows.shares):
        raise WireError(f"share rows of {count} rows hold a ragged column")
    _write(tuple(rows.columns), out)
    for row_id in rows.row_ids:
        _write_cell(row_id, out)
    for cells in rows.shares:
        for cell in cells:
            _write_cell(cell, out)


# ------------------------------------------------------------------ reading --


def _take(data: memoryview, at: int, size: int) -> memoryview:
    if at + size > len(data):
        raise WireError(f"the encoding ends {at + size - len(data)} bytes early")
    return data[at:at + size]


def _read(data: memoryview, at: int) -> Tuple[object, int]:
    first = _take(data, at, 1)[0]
    tag = first >> 4
    if tag == 0:
        if first == _FLOAT:
            return _DOUBLE.unpack(_take(data, at + 1, 8))[0], at + 9
        if first > _FLOAT:
            raise WireError(f"no value starts with the byte {first:#04x}")
        return (None, False, True)[first], at + 1
    if tag <= _DECIMAL:
        length = int.from_bytes(_take(data, at, 2), "big") & _MAX_LENGTH
        body = _take(data, at + 2, length)
        end = at + 2 + length
        if tag == _POSITIVE:
            return int.from_bytes(body, "big"), end
        if tag == _NEGATIVE:
            return -int.from_bytes(body, "big"), end
        if tag == _BYTES:
            return bytes(body), end
        try:
            text = str(body, "utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"a text body is not UTF-8: {exc}") from None
        if tag == _STR:
            return text, end
        try:
            return Decimal(text), end
        except ArithmeticError:
            raise WireError(f"{text!r} is not a Decimal") from None
    if tag > _ROWS:
        raise WireError(f"no value starts with the byte {first:#04x}")
    count = int.from_bytes(_take(data, at, 4), "big") & _MAX_COUNT
    at += 4
    if tag == _ROWS:
        return _read_rows(data, at, count)
    items = []
    for _ in range(count * (2 if tag == _DICT else 1)):
        item, at = _read(data, at)
        items.append(item)
    if tag == _DICT:
        return dict(zip(items[::2], items[1::2])), at
    return (items if tag == _LIST else tuple(items)), at


def _read_rows(data: memoryview, at: int, count: int) -> Tuple[ShareRows, int]:
    if not count:
        return ShareRows([], (), []), at
    columns, at = _read(data, at)
    if type(columns) is not tuple:
        raise WireError("share rows name their columns in a tuple")
    cells = []
    for _ in range(count * (1 + len(columns))):
        cell, at = _read(data, at)
        cells.append(cell)
    shares = [cells[start:start + count] for start in range(count, len(cells), count)]
    return ShareRows(cells[:count], columns, shares), at
