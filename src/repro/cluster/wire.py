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
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.errors import WireProtocolError
from ..storage.codec import CodecError, decode_value, encode_int, encode_value

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
_OK = 1
_REPLAYED = 2
_HAS_DETAIL = 4

#: The point commands' argument names, each with its length byte.
_ARG_HEADS = {
    name: bytes((len(name),)) + name.encode("utf-8")
    for name in ("key", "value")
}


def _encoded(value: Any) -> bytes:
    out: List[bytes] = []
    encode_value(value, out)
    return b"".join(out)


#: ``None`` in ``encode_value`` form, and the header of a two-item list,
#: which a point command's ``[key, value]`` result starts with.
_NONE_VALUE = _encoded(None)
_PAIR_HEAD = _encoded([0, 0])[: -2 * len(encode_int(0))]

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


def encode_frame(body: Dict[str, Any]) -> bytes:
    """One request or response body (told apart by ``"op"``) as a frame."""
    try:
        payload = (
            _encode_request(body) if "op" in body else _encode_response(body)
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


def _encode_request(body: Dict[str, Any]) -> bytes:
    op = body["op"].encode("utf-8")
    request_id = body["id"].encode("utf-8")
    token = body.get("token")
    budget = body.get("budget")
    args = body.get("args") or {}
    flags = 0
    if token is None:
        token_raw = b""
    else:
        token_raw = token.encode("utf-8")
        flags |= _HAS_TOKEN
    if budget is not None:
        flags |= _HAS_BUDGET
    out: List[bytes] = [
        _REQUEST.pack(
            _KIND_REQUEST, flags, 0.0 if budget is None else budget,
            len(op), len(request_id), len(token_raw), len(args),
        ),
        op,
        request_id,
        token_raw,
    ]
    for name, value in args.items():
        head = _ARG_HEADS.get(name)
        if head is None:
            raw = name.encode("utf-8")
            head = bytes((len(raw),)) + raw
        out.append(head)
        encode_value(value, out)
    return b"".join(out)


def _encode_response(body: Dict[str, Any]) -> bytes:
    request_id = body["id"].encode("utf-8")
    if body.get("ok"):
        flags = _OK
        result = body.get("result")
        # The point commands' results inline: None, or a [key, value]
        # pair of ints (a bool is not an int here: it keeps its tag).
        if result is None:
            value = _NONE_VALUE
        elif (
            type(result) is list and len(result) == 2
            and type(result[0]) is int and type(result[1]) is int
        ):
            value = _PAIR_HEAD + encode_int(result[0]) + encode_int(result[1])
        else:
            value = _encoded(result)
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


def decode_bytes(data: bytes) -> Dict[str, Any]:
    """Decode exactly one frame from a complete byte string.

    Parses in place: offsets into ``data``, with no copy of the body;
    only the strings and values themselves are materialized.
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
            body, offset = _decode_request(data)
        elif kind == _KIND_RESPONSE:
            body, offset = _decode_response(data)
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
