"""Keys and values keep their exact types across the cluster wire.

Every key family of ``test_key_types.py`` and every value type the page
codec supports goes through insert, search, range and delete, both
in-process (``LocalChannel``) and over a loopback TCP socket.  A value
that compares equal but comes back as another type (a tuple as a list,
bytes as str) is a failure, on the client and in the server's store.
"""

import struct
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DenseSequentialFile
from repro.cluster import (
    ClusterClient,
    ClusterServer,
    LocalChannel,
    ShardMap,
    ShardedDenseFile,
)
from repro.cluster.wire import (
    decode_bytes,
    encode_frame,
    error_response,
    ok_response,
    request,
)
from repro.concurrent.file import ThreadSafeDenseFile
from repro.core.errors import WireProtocolError
from repro.storage.codec import encode_value

KEY_FAMILIES = {
    "str": ["apple", "banana", "cherry", "date", "fig"],
    "fraction": [Fraction(1, n) for n in (7, 5, 3, 2, 1)],
    "mixed_numeric": [1, 1.5, Fraction(7, 4), 2, 2.25],
    "tuple": [(1, "a"), (1, "z"), (2, "a"), (2, "b"), (3, "")],
    "extreme_int": [-(10**30), -5, 0, 5, 10**30],
}

VALUES = [
    None,
    True,
    False,
    7,
    -(2**70),
    2.5,
    "text",
    b"\x00raw\xff",
    Fraction(1, 3),
    (1, "a", b"b"),
    [1, [2, (3,)]],
    {"k": (1, b"v"), 2: [Fraction(1, 2)]},
]


def same(left, right):
    """Equal, and of the same type all the way down."""
    if type(left) is not type(right):
        return False
    if isinstance(left, (tuple, list)):
        return len(left) == len(right) and all(map(same, left, right))
    if isinstance(left, dict):
        return list(left) == list(right) and all(
            same(a, b) and same(left[a], right[b])
            for a, b in zip(left, right)
        )
    return left == right


def typed_cluster(keys):
    """Two shards split at a cut of the keys' own type."""
    shard_map = ShardMap([keys[len(keys) // 2]])
    shards = [
        ThreadSafeDenseFile(DenseSequentialFile(num_pages=32, d=4, D=24))
        for _ in range(shard_map.num_shards)
    ]
    return ShardedDenseFile(shards, shard_map)


@pytest.fixture(params=["local", "socket"])
def connect(request):
    """Build a client for a store over the parametrized transport."""
    opened = []

    def build(store):
        server = ClusterServer(store)
        if request.param == "local":
            client = ClusterClient(LocalChannel(server.handle_frame))
        else:
            host, port = server.start()
            client = ClusterClient.connect(host, port, default_timeout=10.0)
        opened.append((client, server, store))
        return client

    yield build
    for client, server, store in opened:
        client.close()
        server.stop()
        store.close()


@pytest.mark.parametrize("family", sorted(KEY_FAMILIES))
def test_keys_and_values_survive_the_wire(family, connect):
    keys = KEY_FAMILIES[family]
    store = typed_cluster(keys)
    client = connect(store)
    # The shard map, cuts included, comes back with its key type.
    assert same(client.hello().cuts, store.shard_map.cuts)
    for value in VALUES:
        for key in keys:
            client.insert(key, value)
        for key in keys:
            found = client.search(key)
            assert same(found.key, key) and same(found.value, value)
            stored = store.search(key)
            assert same(stored.key, key) and same(stored.value, value)
        result = client.range(keys[0], keys[-1])
        assert not result.partial
        assert len(result.records) == len(keys)
        for record, key in zip(result.records, keys):
            assert same(record.key, key) and same(record.value, value)
        for key in keys:
            removed = client.delete(key)
            assert same(removed.key, key) and same(removed.value, value)
        assert len(store) == 0


#: Frames whose bytes are pinned: a request with token and budget, a
#: bare request, a replayed result and a typed error with detail.  The
#: hex strings were produced by the wire module before its encode path
#: was reworked; any change to a single byte is a protocol change.
GOLDEN_FRAMES = {
    "insert_token_budget": (
        request("insert", "c7:r12", args={"key": 1234567, "value": b"v\x00"},
                token="c7:t11", budget=2.5),
        "44420000003c89e6a3df0103000000000000044006000600060002696e73657274"
        "63373a72313263373a743131036b6579030300000087d6120576616c7565060200"
        "00007600",
    ),
    "search": (
        request("search", "c7:r13", args={"key": (2, "b")}),
        "44420000003257d5e22e010000000000000000000600060000000173656172636863"
        "373a723133036b65790802000000030100000002050100000062",
    ),
    "delete_result": (
        dict(ok_response("c7:r14", [Fraction(7, 4), "gone"]), replayed=True),
        "444200000025169cf0850203060063373a7231340902000000070301000000070301"
        "000000040504000000676f6e65",
    ),
    "typed_error": (
        error_response(
            "c7:r15", "ShardUnavailableError", "write refused",
            detail={"shard_ids": [2], "key_ranges": [[100, 199]],
                    "mode": "down"},
        ),
        "44420000008c7cb15a390204060063373a72313505150000005368617264556e61"
        "7661696c61626c654572726f72050d000000777269746520726566757365640a03"
        "000000050900000073686172645f6964730901000000030100000002050a000000"
        "6b65795f72616e676573090100000009020000000301000000640302000000c700"
        "05040000006d6f64650504000000646f776e",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
def test_golden_frame_bytes(name):
    body, golden = GOLDEN_FRAMES[name]
    frame = encode_frame(body)
    assert frame.hex() == golden
    # Encoding twice gives the same bytes (no state leaks between
    # calls), and the frame decodes back to the body, types included.
    assert encode_frame(body) == frame
    assert same(decode_bytes(bytes.fromhex(golden)), body)


# ----------------------------------------------------------------------
# the point-command fast path: same bytes as value-by-value encoding
# ----------------------------------------------------------------------


def reference_frame(body):
    """The frame for ``body``, with one ``encode_value`` call per field.

    Written from the layout in the wire module's docstring, with no
    shortcut for any value shape; the encoder's inline paths for ints,
    ``None`` and ``[key, value]`` pairs must give exactly these bytes.
    """
    out = []
    if "op" in body:
        op = body["op"].encode("utf-8")
        request_id = body["id"].encode("utf-8")
        token, budget = body.get("token"), body.get("budget")
        token_raw = b"" if token is None else token.encode("utf-8")
        args = body.get("args") or {}
        flags = (token is not None) | (budget is not None) << 1
        out.append(struct.pack(
            "<BBdHHHB", 1, flags, 0.0 if budget is None else budget,
            len(op), len(request_id), len(token_raw), len(args),
        ))
        out += [op, request_id, token_raw]
        for name, value in args.items():
            raw = name.encode("utf-8")
            out += [bytes((len(raw),)), raw]
            encode_value(value, out)
    else:
        request_id = body["id"].encode("utf-8")
        values = []
        if body.get("ok"):
            flags = 1
            encode_value(body.get("result"), values)
        else:
            flags = 0
            encode_value(body["error"], values)
            encode_value(body["message"], values)
            if body.get("detail"):
                flags |= 4
                encode_value(body["detail"], values)
        if body.get("replayed"):
            flags |= 2
        out += [struct.pack("<BBH", 2, flags, len(request_id)), request_id]
        out += values
    payload = b"".join(out)
    return struct.pack(">2sII", b"DB", len(payload), zlib.crc32(payload)) + payload


#: Ints at the edges of the payload lengths, then any int.
INTS = st.one_of(
    st.sampled_from([0, 1, -1, 2**63, -(2**63), 2**63 - 1, 2**200, -(2**200)]),
    st.integers(),
)
SCALARS = st.one_of(INTS, st.booleans(), st.none(), st.text(max_size=8))
VALUES_DRAWN = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.tuples(INTS, INTS).map(list),  # a point command's [key, value]
    st.tuples(SCALARS, SCALARS).map(list),  # and look-alikes: [True, 1]
)
NAMES = st.sampled_from(["key", "value", "lo", "count", "\u00e9t\u00e9"])


@st.composite
def request_bodies(draw):
    args = draw(st.dictionaries(NAMES, VALUES_DRAWN, max_size=3))
    return request(
        draw(st.sampled_from(["insert", "delete", "search", "scan"])),
        draw(st.text(min_size=1, max_size=12)),
        args=args,
        token=draw(st.none() | st.text(max_size=12)),
        budget=draw(st.none() | st.floats(0.0, 60.0)),
    )


@st.composite
def response_bodies(draw):
    request_id = draw(st.text(min_size=1, max_size=12))
    if draw(st.booleans()):
        body = ok_response(request_id, draw(VALUES_DRAWN))
    else:
        body = error_response(request_id, "DuplicateKeyError",
                              draw(st.text(max_size=12)))
    if draw(st.booleans()):
        body["replayed"] = True
    return body


BODIES = st.one_of(request_bodies(), response_bodies())


@settings(max_examples=300, deadline=None)
@given(BODIES)
def test_fast_path_encodes_the_reference_bytes(body):
    assert encode_frame(body) == reference_frame(body)


@settings(max_examples=300, deadline=None)
@given(BODIES)
def test_fast_path_decodes_exact_types(body):
    # True stays a bool and 1 an int, in arguments, results and lists.
    assert same(decode_bytes(encode_frame(body)), body)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from(["key", "value"]), INTS, min_size=1),
       st.none() | st.text(max_size=6))
def test_every_cut_or_flip_of_an_int_argument_frame_is_refused(args, token):
    frame = encode_frame(request("insert", "r1", args=args, token=token,
                                 budget=1.5))
    for cut in range(len(frame)):
        with pytest.raises(WireProtocolError):
            decode_bytes(frame[:cut])
    for bit in range(len(frame) * 8):
        flipped = bytearray(frame)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(WireProtocolError):
            decode_bytes(bytes(flipped))
