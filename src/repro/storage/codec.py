"""Explicit binary encoding of records for the on-disk page format.

A deliberately boring, self-describing, non-executable format (no
pickle): every value is a one-byte type tag followed by a fixed or
length-prefixed payload.  Supported key/value types cover what the
library's API accepts: ``None``, ``bool``, ``int`` (arbitrary
precision), ``float``, ``str``, ``bytes``, ``fractions.Fraction`` (the
adversarial workloads use exact rationals) and tuples of the above.

All integers in the framing are little-endian unsigned 32-bit unless
stated otherwise.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from typing import Any, Iterable, List, Tuple

from ..core.errors import ReproError
from ..records import Record

_TAG_NONE = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_BYTES = 6
_TAG_FRACTION = 7
_TAG_TUPLE = 8
_TAG_LIST = 9
_TAG_DICT = 10

_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
#: Tag byte + u32 header, packed in one call ('<' means no padding, so
#: the five bytes are identical to a tag append plus a length append).
_TAG_U32 = struct.Struct("<BI")

#: The fixed single-byte encodings, precomputed once — the encoder used
#: to allocate a fresh ``bytes([tag])`` object per value.
_NONE_BYTES = bytes([_TAG_NONE])
_FALSE_BYTES = bytes([_TAG_FALSE])
_TRUE_BYTES = bytes([_TAG_TRUE])
_FLOAT_BYTES = bytes([_TAG_FLOAT])
_FRACTION_BYTES = bytes([_TAG_FRACTION])


class CodecError(ReproError, ValueError):
    """Raised on malformed or unsupported data.

    On a read this means a CRC-valid slot whose payload does not decode;
    the CLI reports it as corruption (exit 3).
    """


def encode_int(number: int) -> bytes:
    """One ``int`` in :func:`encode_value` form: the tag, a u32 length
    and the shortest signed little-endian payload."""
    payload = number.to_bytes(
        (number.bit_length() + 8) // 8, "little", signed=True
    )
    return _TAG_U32.pack(_TAG_INT, len(payload)) + payload


def encode_value(value: Any, out: List[bytes]) -> None:
    """Append the encoding of one value to ``out``."""
    if type(value) is int:
        # First: the common key and value (a bool keeps its own tag).
        out.append(encode_int(value))
    elif value is None:
        out.append(_NONE_BYTES)
    elif value is True:
        out.append(_TRUE_BYTES)
    elif value is False:
        out.append(_FALSE_BYTES)
    elif isinstance(value, int):
        out.append(encode_int(value))
    elif isinstance(value, float):
        out.append(_FLOAT_BYTES)
        out.append(_F64.pack(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_U32.pack(_TAG_STR, len(raw)))
        out.append(raw)
    elif isinstance(value, bytes):
        out.append(_TAG_U32.pack(_TAG_BYTES, len(value)))
        out.append(value)
    elif isinstance(value, Fraction):
        out.append(_FRACTION_BYTES)
        out.append(encode_int(value.numerator))
        out.append(encode_int(value.denominator))
    elif isinstance(value, tuple):
        out.append(_TAG_U32.pack(_TAG_TUPLE, len(value)))
        for item in value:
            encode_value(item, out)
    elif isinstance(value, list):
        out.append(_TAG_U32.pack(_TAG_LIST, len(value)))
        for item in value:
            encode_value(item, out)
    elif isinstance(value, dict):
        out.append(_TAG_U32.pack(_TAG_DICT, len(value)))
        for item_key, item_value in value.items():
            encode_value(item_key, out)
            encode_value(item_value, out)
    else:
        raise CodecError(
            f"unsupported type {type(value).__name__}; store one of "
            "None/bool/int/float/str/bytes/Fraction/tuple/list/dict"
        )


def decode_value(buffer: bytes, offset: int) -> Tuple[Any, int]:
    """Decode one value; return ``(value, next_offset)``."""
    if offset >= len(buffer):
        raise CodecError("truncated value")
    tag = buffer[offset]
    offset += 1
    if tag == _TAG_INT:
        (length,) = _U32.unpack_from(buffer, offset)
        offset += 4
        payload = buffer[offset : offset + length]
        if len(payload) != length:
            raise CodecError("truncated int")
        return int.from_bytes(payload, "little", signed=True), offset + length
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_FLOAT:
        (value,) = _F64.unpack_from(buffer, offset)
        return value, offset + 8
    if tag in (_TAG_STR, _TAG_BYTES):
        (length,) = _U32.unpack_from(buffer, offset)
        offset += 4
        payload = buffer[offset : offset + length]
        if len(payload) != length:
            raise CodecError("truncated string/bytes")
        if tag == _TAG_STR:
            return payload.decode("utf-8"), offset + length
        return bytes(payload), offset + length
    if tag == _TAG_FRACTION:
        numerator, offset = decode_value(buffer, offset)
        denominator, offset = decode_value(buffer, offset)
        if not isinstance(numerator, int) or not isinstance(denominator, int):
            raise CodecError("malformed fraction")
        return Fraction(numerator, denominator), offset
    if tag in (_TAG_TUPLE, _TAG_LIST):
        (arity,) = _U32.unpack_from(buffer, offset)
        offset += 4
        items = []
        for _ in range(arity):
            item, offset = decode_value(buffer, offset)
            items.append(item)
        if tag == _TAG_TUPLE:
            return tuple(items), offset
        return items, offset
    if tag == _TAG_DICT:
        (arity,) = _U32.unpack_from(buffer, offset)
        offset += 4
        result = {}
        for _ in range(arity):
            item_key, offset = decode_value(buffer, offset)
            item_value, offset = decode_value(buffer, offset)
            result[item_key] = item_value
        return result, offset
    raise CodecError(f"unknown type tag {tag}")


def encode_record(record: Record) -> bytes:
    """Serialize one record (key then value)."""
    out: List[bytes] = []
    encode_value(record.key, out)
    encode_value(record.value, out)
    return b"".join(out)


def decode_record(buffer: bytes, offset: int) -> Tuple[Record, int]:
    """Decode one record; return ``(record, next_offset)``."""
    key, offset = decode_value(buffer, offset)
    value, offset = decode_value(buffer, offset)
    return Record(key, value), offset


def encode_page(records: List[Record]) -> bytes:
    """Serialize a whole page payload (count-prefixed record list)."""
    return _encode_pairs(len(records), records)


def encode_columns(keys: List[Any], values: List[Any]) -> bytes:
    """:func:`encode_page` over a page's key and value columns: the same
    bytes, with no :class:`Record` list built."""
    return _encode_pairs(len(keys), zip(keys, values))


def _encode_pairs(count: int, pairs: Iterable[Tuple[Any, Any]]) -> bytes:
    # One flat chunk list and a single join for the whole page; plain
    # ints, the common key and value, are encoded inline.
    out: List[bytes] = [_U32.pack(count)]
    append = out.append
    for pair in pairs:
        for item in pair:
            if type(item) is int:
                payload = item.to_bytes(
                    (item.bit_length() + 8) // 8, "little", signed=True
                )
                append(_TAG_U32.pack(_TAG_INT, len(payload)))
                append(payload)
            else:
                encode_value(item, out)
    return b"".join(out)


def decode_page(buffer: bytes) -> List[Record]:
    """Deserialize a page payload back into its record list."""
    if len(buffer) < 4:
        raise CodecError("truncated page payload")
    (count,) = _U32.unpack_from(buffer, 0)
    offset = 4
    records: List[Record] = []
    for _ in range(count):
        record, offset = decode_record(buffer, offset)
        records.append(record)
    if offset != len(buffer):
        raise CodecError("trailing garbage after page payload")
    return records
