"""The point lane is the dict path, byte for byte.

``insert``, ``delete`` and ``search`` travel as positional tuples
(``repro.cluster.wire``'s point lane) with no request, args or response
dict.  The dict path stays as the reference: every lane frame must be
the bytes ``encode_frame`` writes for the same dict body, the dict
decoder must read a lane frame back into the lane's fields, and a
server must answer a stream of point frames exactly as ``handle_body``
answers the same stream, down to the idempotency table and every
counter.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterClient,
    ClusterServer,
    ShardedDenseFile,
    wire,
)
from repro.concurrent.retry import RetryPolicy
from repro.core.errors import WireProtocolError
from repro.records import Record
from repro.storage.codec import CodecError

from .test_cluster_types import same

# -- generated keys and values ----------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=-(2**130), max_value=2**130),
    st.binary(max_size=12),
    st.text(max_size=12),
    st.fractions(max_denominator=10**6),
    st.floats(allow_nan=False),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner), st.lists(inner, max_size=3)
    ),
    max_leaves=6,
)
ids = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=20
)
tokens = st.none() | ids
budgets = st.none() | st.floats(min_value=0.0, max_value=60.0)


def dict_request(op, request_id, token, budget, key, value):
    """The dict-path body of a lane request."""
    args = {"key": key, "value": value} if op == "insert" else {"key": key}
    return wire.request(op, request_id, args=args, token=token, budget=budget)


class TestLaneFrames:
    @settings(max_examples=300, deadline=None)
    @given(op=st.sampled_from(sorted(wire.POINT_OPS)), request_id=ids,
           token=tokens, budget=budgets, key=values, value=values)
    def test_a_request_is_the_dict_path_bytes(
        self, op, request_id, token, budget, key, value
    ):
        raw_id = request_id.encode("utf-8")
        frame = wire.encode_frame((op, raw_id, token, budget, key, value))
        body = dict_request(op, request_id, token, budget, key, value)
        assert frame == wire.encode_frame(body)
        assert same(wire.decode_bytes(frame), body)
        lane = wire.decode_bytes(frame, lane=True)
        expected = (op, raw_id, token, budget, key,
                    value if op == "insert" else None)
        assert same(lane, expected)

    @settings(max_examples=300, deadline=None)
    @given(request_id=ids, key=values, value=values, found=st.booleans())
    def test_a_response_is_the_dict_path_bytes(
        self, request_id, key, value, found
    ):
        raw_id = request_id.encode("utf-8")
        result = Record(key, value) if found else None
        frame = wire.encode_frame((raw_id, result))
        body = wire.ok_response(request_id, [key, value] if found else None)
        assert frame == wire.encode_frame(body)
        # A list result reads back as the pair, a Record from the lane.
        assert same(wire.decode_bytes(frame), body)
        assert same(wire.decode_bytes(frame, lane=True), (raw_id, result))

    @pytest.mark.parametrize("body", [
        wire.request("insert", "r", {"key": 1}),
        wire.request("insert", "r", {"value": 2, "key": 1}),
        wire.request("insert", "r", {"key": 1, "value": 2, "extra": 3}),
        wire.request("insert", "r", {"key": 1, "key2": 2}),
        wire.request("search", "r", {"key": 1, "value": 2}),
        wire.request("delete", "r", {}),
        wire.request("scan", "r", {"key": 1, "count": 2}),
        wire.request("ping", "r"),
        wire.ok_response("r", [1, 2, 3]),
        wire.ok_response("r", "pong"),
        wire.ok_response("r", (1, 2)),
        dict(wire.ok_response("r", None), replayed=True),
        dict(wire.ok_response("r", [1, 2]), replayed=True),
        wire.error_response("r", "DuplicateKeyError", "dup"),
        wire.error_response("r", "ShardUnavailableError", "down",
                            detail={"shard_ids": [1]}),
    ], ids=["insert-no-value", "reordered", "extra-arg", "renamed-arg",
            "search-with-value", "no-args", "scan", "ping", "triple",
            "string", "tuple", "replayed-none", "replayed-pair", "error",
            "error-detail"])
    def test_any_other_shape_decodes_to_its_dict(self, body):
        frame = wire.encode_frame(body)
        assert same(wire.decode_bytes(frame, lane=True), body)

    @pytest.mark.parametrize("frame", [
        wire.encode_frame(("insert", b"c0:r1", "c0:t1", 2.5, 7, b"v")),
        wire.encode_frame(("search", b"c0:r2", None, None, (1, "a"), None)),
        wire.encode_frame((b"c0:r3", Record(7, "x"))),
        wire.encode_frame((b"c0:r4", None)),
    ], ids=["insert", "search", "pair", "none"])
    def test_every_flipped_bit_and_every_cut_is_refused(self, frame):
        for index in range(wire.HEADER.size, len(frame)):
            for bit in range(8):
                flipped = bytearray(frame)
                flipped[index] ^= 1 << bit
                with pytest.raises(WireProtocolError):
                    wire.decode_bytes(bytes(flipped), lane=True)
        for cut in range(len(frame)):
            with pytest.raises(WireProtocolError):
                wire.decode_bytes(frame[:cut], lane=True)

    def test_a_bad_id_is_refused_as_on_the_dict_path(self):
        frame = wire.encode_frame(("search", b"\xff\xfe", None, None, 1, None))
        for lane in (False, True):
            with pytest.raises(WireProtocolError, match="UnicodeDecodeError"):
                wire.decode_bytes(frame, lane=lane)

    def test_what_the_wire_cannot_carry_is_a_codec_error(self):
        with pytest.raises(CodecError):
            wire.encode_frame(("insert", b"r", None, None, 1, {1, 2}))
        with pytest.raises(CodecError):
            wire.encode_frame((b"r", Record(1, object())))
        with pytest.raises(CodecError):
            wire.encode_frame(("scan", b"r", None, None, 1, None))


# -- the client reads the echoed id as bytes ----------------------------


class Canned:
    """A channel answering every request with one fixed response."""

    def __init__(self, response):
        self.response = response

    def request(self, frame, timeout=None):
        return self.response

    def close(self):
        pass


@pytest.mark.parametrize("echoed", [b"other", b"", b"c7:r0x", b"c7:r"])
@pytest.mark.parametrize("call", [
    lambda client: client.insert(5, "v"),
    lambda client: client.delete(5),
    lambda client: client.search(5),
], ids=["insert", "delete", "search"])
def test_a_lane_response_for_another_request_is_refused(echoed, call):
    sharded = ShardedDenseFile.build(num_shards=1, key_space=100)
    for result in (None, Record(5, "v")):
        client = ClusterClient(
            Canned(wire.encode_frame((echoed, result))), client_id="c7",
            retry_policy=RetryPolicy(max_attempts=1),
        )
        client.prime(sharded.shard_map)
        with pytest.raises(WireProtocolError, match="correlation mismatch"):
            call(client)
    sharded.close()


def test_a_lane_response_answers_with_a_record():
    sharded = ShardedDenseFile.build(num_shards=1, key_space=100)
    client = ClusterClient(
        Canned(wire.encode_frame((b"c8:r0", Record(5, (1, b"v"))))),
        client_id="c8",
    )
    client.prime(sharded.shard_map)
    found = client.search(5)
    assert type(found) is Record and same(found, Record(5, (1, b"v")))
    sharded.close()


# -- twin servers: the lane against handle_body ----------------------------

KEYS = st.integers(min_value=0, max_value=99)
commands = st.one_of(
    st.tuples(st.sampled_from(["insert", "delete", "search"]), KEYS,
              st.sampled_from(["fresh", "repeat", "none"]),
              st.sampled_from([30.0, 30.0, 30.0, 0.0, None])),
    st.tuples(st.sampled_from(["kill", "degrade", "revive"]),
              st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("plant"), KEYS),
)


def twin():
    store = ShardedDenseFile.build(num_shards=2, key_space=100,
                                   capacity_hint=64)
    return store, ClusterServer(store, idempotency_capacity=16)


def dict_path(server, frame):
    """The reference: decode to a dict, ``handle_body``, encode."""
    return server._send(server.handle_body(wire.decode_bytes(frame)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stream=st.lists(commands, min_size=1, max_size=60))
def test_twin_servers_answer_every_frame_alike(stream):
    (lane_store, lane), (ref_store, ref) = twin(), twin()
    sent = []
    try:
        for step, command in enumerate(stream):
            kind = command[0]
            if kind in ("kill", "degrade", "revive"):
                for store in (lane_store, ref_store):
                    {"kill": store.mark_down, "degrade": store.mark_degraded,
                     "revive": store.revive}[kind](command[1])
                continue
            if kind == "plant":
                # A stored value the wire cannot carry.
                for store in (lane_store, ref_store):
                    shard = store.shards[store.shard_map.shard_for(command[1])]
                    if shard.search(command[1]) is None:
                        shard.insert(command[1], {1, 2})
                continue
            op, key, token_kind, budget = command
            token = None
            if token_kind == "fresh" or (token_kind == "repeat" and not sent):
                token = f"t{step}"
                sent.append(token)
            elif token_kind == "repeat":
                token = sent[step % len(sent)]
            frame = wire.encode_frame((op, f"r{step}".encode(), token, budget,
                                       key, f"v{key}"))
            assert type(wire.decode_bytes(frame, lane=True)) is tuple
            assert lane.handle_frame(frame) == dict_path(ref, frame), command
        assert lane.metrics.snapshot() == ref.metrics.snapshot()
        assert repr(list(lane.tokens._outcomes.items())) == repr(
            list(ref.tokens._outcomes.items())
        )
        for lane_shard, ref_shard in zip(lane_store.shards, ref_store.shards):
            assert repr(list(lane_shard.inner)) == repr(list(ref_shard.inner))
    finally:
        lane_store.close()
        ref_store.close()


def test_the_twin_stream_reaches_every_outcome():
    """One fixed stream through both paths meets each case the
    generated streams are meant to hold."""
    (lane_store, lane), (ref_store, ref) = twin(), twin()
    seen = set()

    def both(frame):
        answer = lane.handle_frame(frame)
        assert answer == dict_path(ref, frame)
        body = wire.decode_bytes(answer)
        seen.add(body.get("error") or ("replayed" if body.get("replayed")
                                       else "ok"))

    def point(op, key, token=None, budget=30.0, value="v"):
        both(wire.encode_frame((op, b"r", token, budget, key, value)))

    point("insert", 5, "t1")
    point("insert", 5, "t1")                 # replay
    point("insert", 5, "t2")                 # duplicate key
    point("delete", 6, "t3")                 # missing key
    point("search", 5, budget=0.0)           # expired budget
    for store in (lane_store, ref_store):
        store.shards[0].insert(7, {1, 2})
    point("search", 7)                       # a value the wire cannot carry
    point("delete", 7, "t4")
    for store in (lane_store, ref_store):
        store.mark_down(1)
    point("insert", 70, "t5")                # a down shard
    for store in (lane_store, ref_store):
        store.revive(1)
        store.mark_degraded(1)
    point("delete", 70, "t6")                # a degraded shard
    assert seen == {"ok", "replayed", "DuplicateKeyError",
                    "RecordNotFoundError", "OperationTimeout", "CodecError",
                    "ShardUnavailableError"}
    assert lane.metrics.snapshot() == ref.metrics.snapshot()
    assert lane.errors == ref.errors == 7
    lane_store.close()
    ref_store.close()


def test_a_mangled_lane_frame_gets_the_typed_refusal():
    store, server = twin()
    frame = bytearray(wire.encode_frame(("insert", b"r1", "t1", 1.0, 5, "v")))
    frame[-1] ^= 0x01
    answer = wire.decode_bytes(server.handle_frame(bytes(frame)))
    assert answer["id"] == "?" and answer["error"] == "WireProtocolError"
    assert "CRC" in answer["message"]
    assert server.tokens.peek("t1") is None and len(store) == 0
    store.close()


def test_the_client_runs_its_point_calls_on_the_lane():
    """Every point call, the token-returning ones the chaos harness
    uses included, sends a lane frame and reads a lane answer."""
    store, server = twin()
    kinds = []

    class Recorder:
        def request(self, frame, timeout=None):
            answer = server.handle_frame(frame)
            kinds.append((type(wire.decode_bytes(frame, lane=True)),
                          type(wire.decode_bytes(answer, lane=True))))
            return answer

        def close(self):
            pass

    client = ClusterClient(Recorder())
    client.prime(store.shard_map)
    client.insert(1, Fraction(1, 3))
    token = client.insert_with_token(2, "b")
    assert client.search(1) == Record(1, Fraction(1, 3))
    assert client.delete_with_token(2)[1] == Record(2, "b")
    assert client.delete(1) == Record(1, Fraction(1, 3))
    assert kinds == [(tuple, tuple)] * 5
    # A replay is an answer of another shape: the dict path reads it.
    client.insert_with_token(2, "b", token=token)
    assert kinds[-1] == (tuple, dict)
    assert client.token_outcome(token)["ok"] is True
    store.close()
