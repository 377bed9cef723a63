"""Length-prefixed binary wire protocol for the cluster front-end.

One frame = a fixed header + a binary body::

    +-------+----------+---------+------------------+
    | magic | body len | CRC-32  | body             |
    | 2 B   | 4 B BE   | 4 B BE  | body-len bytes   |
    +-------+----------+---------+------------------+

The header makes every network failure mode *detectable* instead of
ambiguous: a truncated stream fails the length check, a corrupted or
reordered stream fails the magic/CRC check, and an oversized length
field is refused before any allocation — all surfacing as
:class:`~repro.core.errors.WireProtocolError` so the client can drop
the connection and retry on a fresh one.  A peer speaking the older
JSON-bodied protocol (magic ``b"DW"``) is refused the same way.

The body starts with a fixed little-endian envelope, then strings and
values; every value is in :func:`repro.storage.codec.encode_value`
form, so keys and values keep their exact types (bytes, Fraction,
tuple) across the wire.  A request::

    kind=1 (1 B) | flags (1 B) | budget f64 | len(op) u16 | len(id) u16
    | len(token) u16 | argc u8 | op | id | token
    | argc x (len(name) u8 | name | value)

``flags`` says whether the token and the budget are present.  A
response::

    kind=2 (1 B) | flags (1 B) | len(id) u16 | id
    | result                               (flags has OK)
    | error name | message [| detail]      (otherwise)

with ``flags`` carrying OK, REPLAYED and DETAIL.  Anything else — an
unknown kind or flag, a bad UTF-8 string, a bad codec tag, bytes left
over after the last field — is a :class:`WireProtocolError`.

Requests and responses both carry a correlation ``id``.  The client
checks the echoed id on every response; a mismatch (a stale or
reordered response after chaos) is a :class:`WireProtocolError`, never
a silently misattributed result.  Mutating requests additionally carry
an idempotency ``token`` the server deduplicates on, so a retried
write is applied at most once no matter how the network mangled the
first attempt.

Encoding raises :class:`~repro.storage.codec.CodecError` for a body
the format cannot carry (a ``set`` argument, say): that is the
caller's mistake, not a network fault, so it is never retried.

**The point lane.**  ``insert``, ``delete`` and ``search`` also travel
as plain tuples, with the same bytes and no dict on either side.
:func:`encode_frame` takes a :data:`PointRequest` ``(op, id, token,
budget, key, value)`` or a :data:`PointResponse` ``(id, result)``
wherever it takes a body, and ``decode_bytes(data, lane=True)``
returns one of those tuples when the frame has a point shape: a
request for one of the three ops whose arguments are exactly ``key``
(and then ``value``, for an insert), or an OK response, not replayed,
whose result is ``None`` or a ``[key, value]`` pair (read straight
into a :class:`~repro.records.Record`).  Any other frame decodes to
its dict, as without ``lane``.  Lane ids are bytes: the client
compares the echoed id without decoding it.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core.errors import WireProtocolError
from ..records import Record, _tuple_new
from ..storage.codec import CodecError, decode_value, encode_value

#: Frame header: magic, body length, CRC-32 of the body.
HEADER = struct.Struct(">2sII")
MAGIC = b"DB"  # dense-file wire, binary bodies
#: Hard cap on one frame's body; refuse before allocating.
MAX_FRAME = 8 * 1024 * 1024

_KIND_REQUEST = 1
_KIND_RESPONSE = 2

#: Request envelope: kind, flags, budget, len(op), len(id), len(token), argc.
_REQUEST = struct.Struct("<BBdHHHB")
_HAS_TOKEN = 1
_HAS_BUDGET = 2
#: Response envelope: kind, flags, len(id).
_RESPONSE = struct.Struct("<BBH")
#: Where the strings after each envelope start.
_REQUEST_END = HEADER.size + _REQUEST.size
_RESPONSE_END = HEADER.size + _RESPONSE.size
_OK = 1
_REPLAYED = 2
_HAS_DETAIL = 4

#: The point lane's ops, each with its argument count.
POINT_OPS = {"insert": 2, "delete": 1, "search": 1}
_POINT_OPS_RAW = {op.encode("utf-8"): (op, argc) for op, argc in POINT_OPS.items()}
#: A point command's argument names, each after its length byte.
_KEY_HEAD = b"\x03key"
_VALUE_HEAD = b"\x05value"

#: A point request on the lane: op, id, token, budget, key, value
#: (``value`` is ignored for a delete or a search, and decodes as None).
PointRequest = Tuple[str, bytes, Optional[str], Optional[float], Any, Any]
#: An OK point response on the lane: the id and the result (``None``,
#: or a ``(key, value)`` pair; decoded, a :class:`Record`).
PointResponse = Tuple[bytes, Any]
#: Anything :func:`encode_frame` takes.
Body = Union[Dict[str, Any], PointRequest, PointResponse]


def _encoded(value: Any) -> bytes:
    out: List[bytes] = []
    encode_value(value, out)
    return b"".join(out)


#: ``None`` in ``encode_value`` form, and the header of a two-item list,
#: which a point command's ``[key, value]`` result starts with.
_NONE_VALUE = _encoded(None)
_PAIR_HEAD = _encoded([None, None])[: -2 * len(_NONE_VALUE)]

#: What a mangled body can make the decoder raise; all of it becomes
#: one WireProtocolError.  (CodecError and UnicodeDecodeError are
#: ValueErrors; struct.error is a short fixed field; ZeroDivisionError
#: a zero denominator; TypeError an unhashable dict key; RecursionError
#: a bomb of nested tuple tags.)
_DECODE_ERRORS = (
    ValueError, IndexError, TypeError, ZeroDivisionError, RecursionError,
    struct.error,
)
#: What an unencodable body makes the encoder raise, besides CodecError.
_ENCODE_ERRORS = (
    AttributeError, LookupError, TypeError, ValueError, OverflowError,
    RecursionError, struct.error,
)


def _check_header(magic: bytes, length: int) -> None:
    if magic != MAGIC:
        raise WireProtocolError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME:
        raise WireProtocolError(
            f"frame claims {length} bytes, over the {MAX_FRAME}-byte cap"
        )


def frame_size(data: bytes, offset: int = 0) -> int:
    """The full size of the frame whose header starts at ``offset``.

    Checks the magic and the length cap; ``data`` must hold the whole
    header.
    """
    magic, length, _crc = HEADER.unpack_from(data, offset)
    _check_header(magic, length)
    return HEADER.size + length


def encode_frame(body: Body) -> bytes:
    """One body as a frame: a request or response dict (told apart by
    ``"op"``), or a point-lane tuple (told apart by its length)."""
    try:
        if isinstance(body, dict):
            payload = (
                _encode_request(body) if "op" in body
                else _encode_response(body)
            )
        else:
            fields: Any = body  # a lane tuple, read by position
            payload = (
                _encode_point_response(*fields) if len(fields) == 2
                else _encode_point_request(*fields)
            )
    except CodecError:
        raise
    except _ENCODE_ERRORS as error:
        raise CodecError(
            f"cannot encode frame body: {type(error).__name__}: {error}"
        ) from error
    if len(payload) > MAX_FRAME:
        raise WireProtocolError(
            f"frame body of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME}-byte cap"
        )
    return HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload


def _encode_point_request(
    op: str,
    request_id: bytes,
    token: Optional[str],
    budget: Optional[float],
    key: Any,
    value: Any,
) -> bytes:
    """A point request's body from its fields: the bytes
    :func:`_encode_request` writes for ``{"key": key}`` (a delete or a
    search) or ``{"key": key, "value": value}`` (an insert)."""
    argc = POINT_OPS[op]
    out = _request_head(op, request_id, token, budget, argc)
    out.append(_KEY_HEAD)
    encode_value(key, out)
    if argc == 2:
        out.append(_VALUE_HEAD)
        encode_value(value, out)
    return b"".join(out)


def _encode_point_response(request_id: bytes, result: Any) -> bytes:
    """An OK point response's body: the bytes :func:`_encode_response`
    writes for ``None`` or for the list ``[key, value]``."""
    out = [_RESPONSE.pack(_KIND_RESPONSE, _OK, len(request_id)), request_id]
    if result is None:
        out.append(_NONE_VALUE)
    else:
        key, value = result
        out.append(_PAIR_HEAD)
        encode_value(key, out)
        encode_value(value, out)
    return b"".join(out)


def _request_head(
    op: str,
    request_id: bytes,
    token: Optional[str],
    budget: Optional[float],
    argc: int,
) -> List[bytes]:
    """A request body's envelope and strings, for its arguments to
    follow."""
    op_raw = op.encode("utf-8")
    flags = 0
    if token is None:
        token_raw = b""
    else:
        token_raw = token.encode("utf-8")
        flags |= _HAS_TOKEN
    if budget is not None:
        flags |= _HAS_BUDGET
    return [
        _REQUEST.pack(
            _KIND_REQUEST, flags, 0.0 if budget is None else budget,
            len(op_raw), len(request_id), len(token_raw), argc,
        ),
        op_raw,
        request_id,
        token_raw,
    ]


def _encode_request(body: Dict[str, Any]) -> bytes:
    args = body.get("args") or {}
    out = _request_head(
        body["op"], body["id"].encode("utf-8"), body.get("token"),
        body.get("budget"), len(args),
    )
    for name, value in args.items():
        raw = name.encode("utf-8")
        out.append(bytes((len(raw),)) + raw)
        encode_value(value, out)
    return b"".join(out)


def _encode_response(body: Dict[str, Any]) -> bytes:
    request_id = body["id"].encode("utf-8")
    if body.get("ok"):
        flags = _OK
        value = _encoded(body.get("result"))
    else:
        flags = 0
        value = _encoded(str(body.get("error", "ClusterError"))) + _encoded(
            str(body.get("message", ""))
        )
        detail = body.get("detail")
        if detail:
            flags |= _HAS_DETAIL
            value += _encoded(detail)
    if body.get("replayed"):
        flags |= _REPLAYED
    return (
        _RESPONSE.pack(_KIND_RESPONSE, flags, len(request_id))
        + request_id + value
    )


def decode_bytes(data: bytes, lane: bool = False) -> Any:
    """Decode exactly one frame from a complete byte string.

    Parses in place: offsets into ``data``, with no copy of the body;
    only the strings and values themselves are materialized.  The
    result is the body's dict or, with ``lane`` and a frame of a point
    shape, a :data:`PointRequest` or :data:`PointResponse` tuple (see
    the module docstring); the checks are the same either way.
    """
    if len(data) < HEADER.size:
        raise WireProtocolError(
            f"connection closed mid-header ({len(data)} of "
            f"{HEADER.size} bytes)"
        )
    magic, length, crc = HEADER.unpack_from(data)
    _check_header(magic, length)
    end = HEADER.size + length
    if len(data) < end:
        raise WireProtocolError(
            f"connection closed mid-body ({len(data) - HEADER.size} of "
            f"{end - HEADER.size} bytes)"
        )
    if len(data) > end:
        raise WireProtocolError(
            f"{len(data) - end} bytes after the end of the frame"
        )
    if zlib.crc32(memoryview(data)[HEADER.size:]) != crc:
        raise WireProtocolError("frame body failed its CRC-32 check")
    try:
        kind = data[HEADER.size] if end > HEADER.size else None
        if kind == _KIND_REQUEST:
            body, offset = (
                _decode_point_request(data) if lane else _decode_request(data)
            )
        elif kind == _KIND_RESPONSE:
            body, offset = (
                _decode_point_response(data) if lane
                else _decode_response(data)
            )
        else:
            raise WireProtocolError(f"unknown frame body kind {kind!r}")
    except _DECODE_ERRORS as error:
        raise WireProtocolError(
            f"malformed frame body: {type(error).__name__}: {error}"
        ) from error
    if offset != end:
        raise WireProtocolError(
            f"{end - offset} trailing bytes after the frame body"
        )
    return body


def _decode_point_request(data: bytes) -> Tuple[Any, int]:
    """A request of a point shape as a :data:`PointRequest`; any other
    request, and every malformed one, through :func:`_decode_request`."""
    _kind, flags, budget, op_len, id_len, token_len, argc = (
        _REQUEST.unpack_from(data, HEADER.size)
    )
    op_end = _REQUEST_END + op_len
    point = _POINT_OPS_RAW.get(data[_REQUEST_END:op_end])
    id_end = op_end + id_len
    offset = id_end + token_len
    if (
        point is None or argc != point[1]
        or flags & ~(_HAS_TOKEN | _HAS_BUDGET)
        or (token_len and not flags & _HAS_TOKEN)
        or not data.startswith(_KEY_HEAD, offset)
    ):
        return _decode_request(data)
    request_id = data[op_end:id_end]
    request_id.decode("utf-8")  # a bad id is refused as on the dict path
    key, offset = decode_value(data, offset + len(_KEY_HEAD))
    value = None
    if argc == 2:
        if not data.startswith(_VALUE_HEAD, offset):
            return _decode_request(data)
        value, offset = decode_value(data, offset + len(_VALUE_HEAD))
    return (
        point[0],
        request_id,
        data[id_end : id_end + token_len].decode("utf-8")
        if flags & _HAS_TOKEN else None,
        budget if flags & _HAS_BUDGET else None,
        key,
        value,
    ), offset


def _decode_point_response(data: bytes) -> Tuple[Any, int]:
    """An OK, unreplayed response whose result is ``None`` or a
    ``[key, value]`` pair as a :data:`PointResponse` (the pair as a
    :class:`Record`); any other response through
    :func:`_decode_response`."""
    _kind, flags, id_len = _RESPONSE.unpack_from(data, HEADER.size)
    offset = _RESPONSE_END + id_len
    if flags == _OK:
        if data.startswith(_NONE_VALUE, offset):
            return (data[_RESPONSE_END:offset], None), offset + len(_NONE_VALUE)
        if data.startswith(_PAIR_HEAD, offset):
            key, end = decode_value(data, offset + len(_PAIR_HEAD))
            value, end = decode_value(data, end)
            record = _tuple_new(Record, (key, value))
            return (data[_RESPONSE_END:offset], record), end
    return _decode_response(data)


def _decode_request(data: bytes) -> Tuple[Dict[str, Any], int]:
    _kind, flags, budget, op_len, id_len, token_len, argc = (
        _REQUEST.unpack_from(data, HEADER.size)
    )
    if flags & ~(_HAS_TOKEN | _HAS_BUDGET) or (
        token_len and not flags & _HAS_TOKEN
    ):
        raise WireProtocolError(f"bad request flags {flags:#04x}")
    start = HEADER.size + _REQUEST.size
    op_end = start + op_len
    id_end = op_end + id_len
    offset = id_end + token_len
    if offset > len(data):
        raise WireProtocolError("request body truncated in its strings")
    op = data[start:op_end].decode("utf-8")
    request_id = data[op_end:id_end].decode("utf-8")
    args: Dict[str, Any] = {}
    for _ in range(argc):
        # A name cut short leaves its value's offset past the end, so
        # decode_value reports the truncation.
        name_end = offset + 1 + data[offset]
        name = data[offset + 1 : name_end].decode("utf-8")
        args[name], offset = decode_value(data, name_end)
    body: Dict[str, Any] = {"op": op, "id": request_id, "args": args}
    if flags & _HAS_TOKEN:
        body["token"] = data[id_end : id_end + token_len].decode("utf-8")
    if flags & _HAS_BUDGET:
        body["budget"] = budget
    return body, offset


def _decode_response(data: bytes) -> Tuple[Dict[str, Any], int]:
    _kind, flags, id_len = _RESPONSE.unpack_from(data, HEADER.size)
    if flags & ~(_OK | _REPLAYED | _HAS_DETAIL) or (
        flags & _OK and flags & _HAS_DETAIL
    ):
        raise WireProtocolError(f"bad response flags {flags:#04x}")
    start = HEADER.size + _RESPONSE.size
    offset = start + id_len
    if offset > len(data):
        raise WireProtocolError("response body truncated in its id")
    body: Dict[str, Any] = {
        "id": data[start:offset].decode("utf-8"),
        "ok": bool(flags & _OK),
    }
    if flags & _OK:
        body["result"], offset = decode_value(data, offset)
    else:
        error, offset = decode_value(data, offset)
        message, offset = decode_value(data, offset)
        if not isinstance(error, str) or not isinstance(message, str):
            raise WireProtocolError("error name and message must be strings")
        body["error"] = error
        body["message"] = message
        if flags & _HAS_DETAIL:
            detail, offset = decode_value(data, offset)
            if not isinstance(detail, dict):
                raise WireProtocolError("error detail must be a dict")
            body["detail"] = detail
    if flags & _REPLAYED:
        body["replayed"] = True
    return body, offset


def decode_frame(reader: Callable[[int], bytes]) -> Dict[str, Any]:
    """Read one frame via ``reader(n) -> exactly n bytes`` and decode it.

    ``reader`` must either return exactly ``n`` bytes or raise; a short
    return means the peer disconnected mid-message and raises
    :class:`WireProtocolError`.
    """
    header = reader(HEADER.size)
    if len(header) < HEADER.size:
        return decode_bytes(header)  # refuses the short header
    return decode_bytes(header + reader(frame_size(header) - HEADER.size))


# ----------------------------------------------------------------------
# request / response bodies
# ----------------------------------------------------------------------


def request(
    op: str,
    request_id: str,
    args: Optional[Dict[str, Any]] = None,
    token: Optional[str] = None,
    budget: Optional[float] = None,
) -> Dict[str, Any]:
    """A request body: op name, correlation id, args, token, budget.

    ``budget`` is the *remaining* deadline in seconds at send time —
    the client threads its :class:`~repro.concurrent.deadline.Deadline`
    through every RPC so the server stops working on an operation the
    caller has already given up on.
    """
    body: Dict[str, Any] = {"op": op, "id": request_id, "args": args or {}}
    if token is not None:
        body["token"] = token
    if budget is not None:
        body["budget"] = budget
    return body


def ok_response(request_id: str, result: Any) -> Dict[str, Any]:
    """A success response echoing the correlation id."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id: str,
    error: str,
    message: str,
    detail: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """A typed-error response: exception class name plus its payload."""
    body: Dict[str, Any] = {
        "id": request_id,
        "ok": False,
        "error": error,
        "message": message,
    }
    if detail:
        body["detail"] = detail
    return body


def check_correlation(response: Dict[str, Any], request_id: str) -> None:
    """Reject a response that answers some *other* request.

    Chaos (and real networks) can replay or reorder responses; the
    correlation id turns that into a typed, retryable failure instead
    of silently attributing shard A's answer to shard B's question.
    """
    echoed = response.get("id")
    if echoed != request_id:
        raise WireProtocolError(
            f"response correlation mismatch: sent {request_id!r}, "
            f"got {echoed!r} (reordered or stale response)"
        )
