"""Tests for the fault-tolerant sharded cluster front-end.

Covers the stack bottom-up: shard maps, the wire protocol, circuit
breakers, the sharded store's partial-failure degradation, the
client/server RPC path (in-process and over real TCP sockets),
idempotent retried writes, seeded network faults, and the chaos
harness's success / typed-failure / provably-not-applied trichotomy.
"""

import io
import json
import socket
import struct
import sys
import threading
import time
import zlib

import pytest

from repro.cluster import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    ChaosChannel,
    ChaosConfig,
    CircuitBreaker,
    ClusterClient,
    ClusterServer,
    IdempotencyTable,
    LocalChannel,
    NetFaultPlan,
    ShardMap,
    ShardedDenseFile,
    run_chaos,
    run_sweep,
)
from repro.cluster import wire
from repro.cluster.chaos import SWEEP_PROFILES
from repro.cluster.transport import SocketChannel, recv_frames
from repro.concurrent.retry import RetryPolicy
from repro.core.errors import (
    CircuitOpenError,
    ConfigurationError,
    DuplicateKeyError,
    OperationTimeout,
    RecordNotFoundError,
    ShardUnavailableError,
    TransientNetworkError,
    UsageError,
    WireProtocolError,
)
from repro.storage.codec import CodecError


class FakeClock:
    def __init__(self):
        self._t = 1000.0

    def __call__(self):
        return self._t

    def advance(self, seconds):
        self._t += seconds


# ----------------------------------------------------------------------
# shard maps
# ----------------------------------------------------------------------


class TestShardMap:
    def test_uniform_partitions_cover_the_key_space(self):
        shard_map = ShardMap.uniform(4, 1000)
        assert shard_map.num_shards == 4
        ranges = shard_map.ranges()
        assert ranges[0].lo == 0 and ranges[-1].hi == 1000
        # Interior boundaries chain: each hi is the next lo.
        for left, right in zip(ranges, ranges[1:]):
            assert left.hi == right.lo

    def test_routing_is_total_and_ordered(self):
        shard_map = ShardMap.uniform(4, 1000)
        owners = [shard_map.shard_for(key) for key in range(0, 1000, 50)]
        assert owners == sorted(owners)
        assert set(owners) == {0, 1, 2, 3}
        # Out-of-envelope keys still route (first/last shards absorb).
        assert shard_map.shard_for(-5) == 0
        assert shard_map.shard_for(10**9) == 3

    def test_boundary_key_belongs_to_the_right_shard(self):
        shard_map = ShardMap.uniform(4, 1000)
        cut = shard_map.range_of(1).lo
        # Half-open [lo, hi): the cut key itself lives in shard 1.
        assert shard_map.shard_for(cut) == 1
        assert shard_map.shard_for(cut - 1) == 0

    def test_shards_for_range_is_minimal(self):
        shard_map = ShardMap.uniform(4, 1000)
        assert shard_map.shards_for_range(0, 100) == [0]
        assert shard_map.shards_for_range(200, 600) == [0, 1, 2]
        assert shard_map.shards_for_range(0, 999) == [0, 1, 2, 3]

    def test_wire_round_trip(self):
        shard_map = ShardMap.uniform(5, 777)
        clone = ShardMap.from_wire(shard_map.to_wire())
        assert clone.num_shards == 5
        for key in (0, 100, 399, 776, -3, 10**6):
            assert clone.shard_for(key) == shard_map.shard_for(key)

    def test_single_shard_map_has_no_cuts(self):
        shard_map = ShardMap.uniform(1, 100)
        assert shard_map.num_shards == 1
        assert shard_map.shard_for(-1) == 0
        assert shard_map.shard_for(10**9) == 0

    def test_key_ranges_describe_ownership(self):
        shard_map = ShardMap.uniform(4, 1000)
        ((lo, hi),) = shard_map.key_ranges([1])
        assert shard_map.shard_for(lo) == 1
        assert shard_map.shard_for(hi - 1) == 1
        assert shard_map.shard_for(hi) == 2


# ----------------------------------------------------------------------
# the wire protocol
# ----------------------------------------------------------------------


def reframe(payload):
    """A frame with a valid header and CRC around any body bytes."""
    return wire.HEADER.pack(
        wire.MAGIC, len(payload), zlib.crc32(payload)
    ) + payload


VALID_BODIES = [
    wire.request("insert", "c0:r1", {"key": 7, "value": b"v"},
                 token="c0:t1", budget=0.25),
    wire.request("ping", "c0:r2"),
    wire.ok_response("c0:r3", [7, "x"]),
    wire.error_response("c0:r4", "ShardUnavailableError", "shard 1 down",
                        detail={"shard_ids": [1], "mode": "down"}),
    dict(wire.ok_response("c0:r5", None), replayed=True),
]
BODY_IDS = ["request", "bare-request", "ok", "error-detail", "replayed"]


class TestWire:
    def test_round_trip(self):
        body = wire.request("insert", "c0:r1", {"key": 7}, token="c0:t1",
                            budget=0.25)
        assert wire.decode_bytes(wire.encode_frame(body)) == body

    def test_corrupted_body_fails_crc(self):
        frame = bytearray(wire.encode_frame({"op": "ping", "id": "x"}))
        frame[-1] ^= 0xFF
        with pytest.raises(WireProtocolError, match="CRC"):
            wire.decode_bytes(bytes(frame))

    def test_bad_magic_is_refused(self):
        frame = b"XX" + wire.encode_frame({"op": "ping", "id": "x"})[2:]
        with pytest.raises(WireProtocolError, match="magic"):
            wire.decode_bytes(frame)

    def test_truncated_frame_is_detected(self):
        frame = wire.encode_frame({"op": "ping", "id": "x"})
        with pytest.raises(WireProtocolError, match="mid-"):
            wire.decode_bytes(frame[: len(frame) // 2])

    def test_oversized_length_refused_before_allocation(self):
        header = wire.HEADER.pack(wire.MAGIC, wire.MAX_FRAME + 1, 0)
        with pytest.raises(WireProtocolError, match="cap"):
            wire.decode_bytes(header)

    def test_correlation_mismatch_is_typed(self):
        response = wire.ok_response("other-request", None)
        with pytest.raises(WireProtocolError, match="correlation"):
            wire.check_correlation(response, "my-request")
        wire.check_correlation(wire.ok_response("mine", 1), "mine")

    @pytest.mark.parametrize("body", VALID_BODIES, ids=BODY_IDS)
    def test_every_body_shape_round_trips(self, body):
        assert wire.decode_bytes(wire.encode_frame(body)) == body

    def test_decode_frame_reads_through_a_reader(self):
        frame = wire.encode_frame(VALID_BODIES[0])
        assert wire.decode_frame(io.BytesIO(frame).read) == VALID_BODIES[0]
        with pytest.raises(WireProtocolError, match="mid-body"):
            wire.decode_frame(io.BytesIO(frame[:-1]).read)
        with pytest.raises(WireProtocolError, match="mid-header"):
            wire.decode_frame(io.BytesIO(frame[:4]).read)

    @pytest.mark.parametrize("body", VALID_BODIES, ids=BODY_IDS)
    def test_every_truncation_is_refused(self, body):
        frame = wire.encode_frame(body)
        for cut in range(len(frame)):
            with pytest.raises(WireProtocolError):
                wire.decode_bytes(frame[:cut])

    @pytest.mark.parametrize("body", VALID_BODIES, ids=BODY_IDS)
    def test_every_bit_flip_is_refused(self, body):
        frame = wire.encode_frame(body)
        for bit in range(len(frame) * 8):
            flipped = bytearray(frame)
            flipped[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(WireProtocolError):
                wire.decode_bytes(bytes(flipped))

    @pytest.mark.parametrize("body", VALID_BODIES, ids=BODY_IDS)
    def test_mangled_bodies_under_a_valid_crc_fail_typed(self, body):
        # Past the CRC the body parser itself must refuse a cut body,
        # and a flipped bit either still decodes or is refused: no
        # other exception may escape.
        payload = wire.encode_frame(body)[wire.HEADER.size:]
        for cut in range(len(payload)):
            with pytest.raises(WireProtocolError):
                wire.decode_bytes(reframe(payload[:cut]))
        for bit in range(len(payload) * 8):
            flipped = bytearray(payload)
            flipped[bit // 8] ^= 1 << (bit % 8)
            try:
                assert isinstance(wire.decode_bytes(reframe(bytes(flipped))),
                                  dict)
            except WireProtocolError:
                pass

    def test_unknown_body_kind_is_refused(self):
        payload = wire.encode_frame(VALID_BODIES[0])[wire.HEADER.size:]
        with pytest.raises(WireProtocolError, match="kind"):
            wire.decode_bytes(reframe(b"\x09" + payload[1:]))
        with pytest.raises(WireProtocolError, match="kind"):
            wire.decode_bytes(reframe(b""))

    def test_trailing_bytes_are_refused(self):
        for body in VALID_BODIES:
            payload = wire.encode_frame(body)[wire.HEADER.size:]
            with pytest.raises(WireProtocolError, match="trailing"):
                wire.decode_bytes(reframe(payload + b"\x00"))
        frame = wire.encode_frame(VALID_BODIES[0])
        with pytest.raises(WireProtocolError, match="after the end"):
            wire.decode_bytes(frame + frame)

    def test_old_json_protocol_is_refused(self):
        payload = json.dumps({"op": "ping", "id": "x", "args": {}}).encode()
        old = wire.HEADER.pack(b"DW", len(payload), zlib.crc32(payload))
        with pytest.raises(WireProtocolError, match="magic"):
            wire.decode_bytes(old + payload)

    def test_bad_string_or_codec_tag_is_refused(self):
        request = wire.encode_frame(wire.request("ping", "x"))
        payload = bytearray(request[wire.HEADER.size:])
        payload[wire._REQUEST.size] = 0xFF  # first byte of the op name
        with pytest.raises(WireProtocolError, match="UnicodeDecodeError"):
            wire.decode_bytes(reframe(bytes(payload)))
        response = wire.encode_frame(wire.ok_response("x", None))
        payload = bytearray(response[wire.HEADER.size:])
        payload[-1] = 0x7F  # the result's type tag
        with pytest.raises(WireProtocolError, match="tag"):
            wire.decode_bytes(reframe(bytes(payload)))

    def test_unencodable_body_is_a_codec_error(self):
        with pytest.raises(CodecError, match="set"):
            wire.encode_frame(wire.request("insert", "r", {"key": {1, 2}}))
        with pytest.raises(CodecError):
            wire.encode_frame(wire.request("ping", "r", budget="soon"))
        with pytest.raises(CodecError):
            wire.encode_frame(wire.ok_response("r", object()))


# ----------------------------------------------------------------------
# circuit breakers
# ----------------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(shard_id=2, failure_threshold=3,
                                 reset_timeout=1.0, clock=clock)
        assert breaker.state == CLOSED
        for _ in range(3):
            breaker.allow()
            breaker.record_failure()
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError) as info:
            breaker.allow()
        assert info.value.shard_id == 2
        assert 0.0 < info.value.retry_after <= 1.0

    def test_success_resets_the_failure_count(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(1.5)
        assert breaker.state == HALF_OPEN
        breaker.allow()  # the probe
        with pytest.raises(CircuitOpenError):
            breaker.allow()  # a second concurrent call is rejected

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(1.5)
        breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.stats()["closes"] == 1

    def test_probe_failure_reopens_for_another_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(1.5)
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(0.5)
        with pytest.raises(CircuitOpenError):
            breaker.allow()

    def test_release_reopens_a_half_open_probe_without_bias(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(1.5)
        breaker.allow()  # the probe is admitted...
        breaker.release()  # ...but ends inconclusively (connection died)
        # Neither closed (nothing proved the shard healthy) nor wedged:
        # another full cooldown, failure streak untouched.
        assert breaker.state == OPEN
        assert breaker.stats()["consecutive_failures"] == 1
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        clock.advance(1.5)
        breaker.allow()  # a fresh probe slot exists: not wedged

    def test_release_in_closed_is_a_no_op(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        breaker.record_failure()
        breaker.allow()
        breaker.release()
        stats = breaker.stats()
        assert breaker.state == CLOSED
        # A connection-scoped fault must not reset the failure streak
        # the way record_success() would.
        assert stats["consecutive_failures"] == 1
        assert stats["releases"] == 1


class CountingLock:
    """A mutex that counts its acquisitions."""

    def __init__(self):
        self._lock = threading.Lock()
        self.acquisitions = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquisitions += 1
        return self

    def __exit__(self, *exc):
        self._lock.release()


class TestBreakerFastPath:
    def test_closed_admission_and_clean_success_skip_the_mutex(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        breaker._mutex = mutex = CountingLock()
        for _ in range(5):
            breaker.allow()
            breaker.record_success()
        assert mutex.acquisitions == 0
        assert breaker.stats()["closes"] == 0

    def test_every_state_change_takes_the_mutex(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=1.0,
                                 clock=clock)
        breaker._mutex = mutex = CountingLock()
        breaker.record_failure()  # count a failure
        breaker.allow()  # still closed: no mutex
        breaker.record_success()  # a failure to reset
        assert mutex.acquisitions == 2
        assert breaker.stats()["consecutive_failures"] == 0
        breaker.record_failure()
        breaker.record_failure()  # trips
        assert breaker.state == OPEN
        clock.advance(1.5)
        before = mutex.acquisitions
        breaker.allow()  # open -> half-open probe
        breaker.record_success()  # half-open -> closed
        assert mutex.acquisitions - before == 2
        assert breaker.stats()["closes"] == 1


# ----------------------------------------------------------------------
# the sharded store: routing + partial-failure degradation
# ----------------------------------------------------------------------


@pytest.fixture
def store():
    sharded = ShardedDenseFile.build(num_shards=4, key_space=1000,
                                     capacity_hint=512)
    yield sharded
    sharded.close()


@pytest.fixture
def populated(store):
    for key in range(0, 1000, 10):
        store.insert(key, f"v{key}")
    return store


class TestShardedStore:
    def test_operations_route_across_all_shards(self, populated):
        assert len(populated) == 100
        for key in (0, 250, 500, 990):
            assert populated.search(key).key == key
        sizes = [len(shard) for shard in populated.shards]
        assert all(size > 0 for size in sizes)
        assert sum(sizes) == 100

    def test_scan_stitches_shards_in_key_order(self, populated):
        result = populated.scan(240, 10)
        assert result.complete and not result.partial
        assert [record.key for record in result] == list(range(240, 340, 10))

    def test_range_spans_shard_boundaries(self, populated):
        result = populated.range(200, 600)
        assert result.complete
        keys = [record.key for record in result]
        assert keys == sorted(keys)
        assert keys[0] == 200 and keys[-1] == 600

    def test_down_shard_rejects_writes_with_its_key_ranges(self, populated):
        populated.mark_down(1)
        victim = populated.shard_map.range_of(1)
        with pytest.raises(ShardUnavailableError) as info:
            populated.insert(victim.lo, "nope")
        assert info.value.shard_ids == (1,)
        assert info.value.mode == "down"
        ((lo, hi),) = info.value.key_ranges
        assert lo == victim.lo and hi == victim.hi

    def test_surviving_shards_keep_serving(self, populated):
        populated.mark_down(1)
        dead = populated.shard_map.range_of(1)
        for key in (0, 990):
            assert populated.search(key).key == key
        populated.insert(1, "still-writable")
        assert populated.search(1).value == "still-writable"
        # The dead shard's reads fail fast and typed.
        with pytest.raises(ShardUnavailableError):
            populated.search(dead.lo)

    def test_scan_through_a_hole_reports_partial(self, populated):
        populated.mark_down(1)
        dead = populated.shard_map.range_of(1)
        result = populated.scan(0, 100)
        assert result.partial and not result.complete
        assert result.unavailable == ((dead.lo, dead.hi),)
        # Every returned record is from a live shard.
        assert all(
            not (dead.lo <= record.key < dead.hi) for record in result
        )

    def test_count_range_refuses_rather_than_undercounts(self, populated):
        populated.mark_down(1)
        dead = populated.shard_map.range_of(1)
        with pytest.raises(ShardUnavailableError):
            populated.count_range(dead.lo - 5, dead.lo + 5)
        # A range that avoids the hole still counts exactly.
        assert populated.count_range(0, 99) == 10

    def test_degraded_shard_serves_reads_rejects_writes(self, populated):
        populated.mark_degraded(2)
        key = populated.shard_map.range_of(2).lo
        probe = ((key // 10) + 1) * 10  # a populated key inside shard 2
        assert populated.search(probe).key == probe
        with pytest.raises(ShardUnavailableError) as info:
            populated.insert(key + 3, "nope")
        assert info.value.mode == "degraded"

    def test_revive_restores_service(self, populated):
        populated.mark_down(3)
        populated.revive(3)
        key = populated.shard_map.range_of(3).lo
        populated.insert(key + 1, "back")
        assert populated.search(key + 1).value == "back"
        health = populated.health()[3]
        assert health["state"] == "up"
        assert health["downs"] == 1 and health["revives"] == 1

    def test_len_skips_down_shards(self, populated):
        before = len(populated)
        populated.mark_down(0)
        assert len(populated) < before
        populated.revive(0)
        assert len(populated) == before

    def test_duplicate_and_missing_keys_stay_typed(self, populated):
        with pytest.raises(DuplicateKeyError):
            populated.insert(0, "again")
        with pytest.raises(RecordNotFoundError):
            populated.delete(5)

    def test_build_rejects_nonsense(self):
        with pytest.raises(ConfigurationError):
            ShardedDenseFile.build(num_shards=0, key_space=100)


# ----------------------------------------------------------------------
# idempotency table
# ----------------------------------------------------------------------


@pytest.fixture
def events_built(monkeypatch):
    """A list that grows by one for every ``threading.Event`` built."""
    built = []
    real_event = threading.Event

    def counting_event():
        built.append(1)
        return real_event()

    monkeypatch.setattr(threading, "Event", counting_event)
    return built


def _record(table, token, outcome):
    """Claim ``token`` and record its definite ``outcome``."""
    assert table.reserve(token) == ("execute", None)
    table.finish(token, outcome)


class TestIdempotencyTable:
    def test_records_and_replays(self):
        table = IdempotencyTable()
        assert table.peek("c0:t0") is None
        _record(table, "c0:t0", {"ok": True})
        assert table.reserve("c0:t0") == ("replay", {"ok": True})
        assert table.hits == 1

    def test_peek_does_not_count_a_hit(self):
        table = IdempotencyTable()
        _record(table, "t", {"ok": True})
        assert table.peek("t") == {"ok": True}
        assert table.hits == 0

    def test_bounded_capacity_evicts_oldest(self):
        table = IdempotencyTable(capacity=2)
        _record(table, "a", {"n": 1})
        _record(table, "b", {"n": 2})
        _record(table, "c", {"n": 3})
        assert len(table) == 2
        assert table.peek("a") is None
        assert table.peek("c") == {"n": 3}
        assert table.evictions == 1

    def test_reserve_owns_then_waits_then_replays(self):
        table = IdempotencyTable()
        claim, payload = table.reserve("t")
        assert claim == "execute" and payload is None
        # A duplicate arriving while the first attempt executes must
        # wait, never run the op a second time.
        dup, event = table.reserve("t")
        assert dup == "wait" and not event.is_set()
        table.finish("t", {"ok": True})
        assert event.is_set()
        assert table.reserve("t") == ("replay", {"ok": True})
        assert table.waits == 1

    def test_event_is_built_only_for_a_waiting_duplicate(self, events_built):
        table = IdempotencyTable()
        assert table.reserve("t") == ("execute", None)
        table.finish("t", {"ok": True})
        assert events_built == []  # no duplicate, no Event
        assert table.reserve("u")[0] == "execute"
        first = table.reserve("u")
        second = table.reserve("u")
        assert first[0] == second[0] == "wait"
        assert first[1] is second[1] and len(events_built) == 1
        table.finish("u", None)
        assert first[1].is_set()

    def test_finish_without_outcome_frees_the_token(self):
        table = IdempotencyTable()
        claim, _ = table.reserve("t")
        assert claim == "execute"
        table.finish("t", None)  # the attempt ended not-applied
        assert table.peek("t") is None
        claim, _ = table.reserve("t")
        assert claim == "execute"  # a retry may still execute


# ----------------------------------------------------------------------
# client <-> server over the in-process channel
# ----------------------------------------------------------------------


@pytest.fixture
def cluster():
    sharded = ShardedDenseFile.build(num_shards=3, key_space=300,
                                     capacity_hint=256)
    server = ClusterServer(sharded)
    client = ClusterClient(LocalChannel(server.handle_frame),
                           retry_policy=RetryPolicy(max_attempts=3))
    yield sharded, server, client
    client.close()
    sharded.close()


class TestClientServer:
    def test_stats_is_the_registry_snapshot_and_keeps_no_cycle(self):
        """The ``stats`` op answers with the server's registry snapshot,
        and the registry holds the server weakly: a server whose
        counters were read is freed by reference counting alone."""
        import gc
        import weakref

        sharded = ShardedDenseFile.build(num_shards=2, key_space=100,
                                         capacity_hint=64)
        server = ClusterServer(sharded)
        client = ClusterClient(LocalChannel(server.handle_frame))
        assert client.ping() is True
        assert client.stats() == {
            "cluster.server.requests": 2,
            "cluster.server.errors": 0,
            "cluster.server.dedup_replays": 0,
            "cluster.idempotency.hits": 0,
            "cluster.idempotency.evictions": 0,
            "cluster.idempotency.waits": 0,
        }
        client.close()
        ref = weakref.ref(server)
        gc.disable()
        try:
            del client, server
            assert ref() is None
        finally:
            gc.enable()
            sharded.close()

    def test_stats_report_a_token_evicted_past_capacity(self):
        """Three write tokens through a two-token table: the oldest is
        evicted, and the ``stats`` op says so; replaying the newest
        counts a hit."""
        sharded = ShardedDenseFile.build(num_shards=2, key_space=100,
                                         capacity_hint=64)
        server = ClusterServer(sharded, idempotency_capacity=2)
        client = ClusterClient(LocalChannel(server.handle_frame))
        try:
            tokens = [client.new_token() for _ in range(3)]
            for key, token in zip((10, 20, 30), tokens):
                client.insert_with_token(key, f"v{key}", token=token)
            stats = client.stats()
            assert stats["cluster.idempotency.evictions"] == 1
            assert stats["cluster.idempotency.hits"] == 0
            client.insert_with_token(30, "v30", token=tokens[2])
            assert client.stats()["cluster.idempotency.hits"] == 1
            assert len(client) == 3
        finally:
            client.close()
            sharded.close()

    def test_full_operation_surface(self, cluster):
        _, _, client = cluster
        assert client.ping() is True
        for key in range(0, 300, 20):
            client.insert(key, f"v{key}")
        assert len(client) == 15
        assert client.search(40).value == "v40"
        assert client.search(41) is None
        removed = client.delete(40)
        assert removed.key == 40 and removed.value == "v40"
        assert client.search(40) is None
        scan = client.scan(0, 5)
        assert [record.key for record in scan] == [0, 20, 60, 80, 100]
        window = client.range(100, 200)
        assert [record.key for record in window] == [100, 120, 140, 160, 180, 200]
        assert client.count_range(0, 299) == 14

    def test_one_clock_reading_per_attempt(self, cluster):
        sharded, server, _ = cluster
        clock = FakeClock()
        reads = []

        def counting_clock():
            reads.append(1)
            return clock()

        class Recorder:
            def __init__(self, inner, failures=0):
                self.inner = inner
                self.failures = failures
                self.sent = []

            def request(self, frame, timeout=None):
                self.sent.append((wire.decode_bytes(frame), timeout))
                if self.failures:
                    self.failures -= 1
                    raise TransientNetworkError("blip")
                return self.inner.request(frame, timeout)

            def close(self):
                pass

        channel = Recorder(LocalChannel(server.handle_frame))
        client = ClusterClient(channel, default_timeout=5.0,
                               clock=counting_clock)
        client.prime(sharded.shard_map)
        reads.clear()
        client.insert(7, "x")
        # One reading builds the budget, one serves the attempt.
        assert len(reads) == 2
        body, timeout = channel.sent[-1]
        assert body["budget"] == timeout == 5.0
        channel.failures = 1
        reads.clear()
        clock.advance(1.0)
        assert client.search(7).value == "x"
        # The budget, one per attempt, and the retry loop's own check
        # of the budget before it retries.
        assert len(reads) == 4
        assert [sent[0]["budget"] for sent in channel.sent[-2:]] == [5.0, 5.0]

    def test_primed_shard_map_is_read_without_the_mutex(self, cluster):
        sharded, _, client = cluster
        client.prime(sharded.shard_map)
        client._mutex = mutex = CountingLock()
        client.insert(5, "v")
        assert client.search(5).value == "v"
        assert client.shard_map is sharded.shard_map
        assert mutex.acquisitions == 0

    def test_hello_primes_the_shard_map(self, cluster):
        sharded, _, client = cluster
        assert client.shard_map.num_shards == 3
        for key in (0, 150, 299):
            assert client.shard_map.shard_for(key) == sharded.shard_map.shard_for(key)

    def test_typed_errors_cross_the_wire(self, cluster):
        _, _, client = cluster
        client.insert(7)
        with pytest.raises(DuplicateKeyError):
            client.insert(7)
        with pytest.raises(RecordNotFoundError):
            client.delete(8)

    def test_shard_unavailable_detail_survives_serialization(self, cluster):
        sharded, _, client = cluster
        client.kill_shard(1)
        victim = sharded.shard_map.range_of(1)
        with pytest.raises(ShardUnavailableError) as info:
            client.insert(victim.lo)
        assert info.value.shard_ids == (1,)
        assert info.value.key_ranges == ((victim.lo, victim.hi),)
        assert info.value.mode == "down"

    def test_partial_scan_markers_cross_the_wire(self, cluster):
        sharded, _, client = cluster
        for key in range(0, 300, 20):
            client.insert(key)
        client.kill_shard(1)
        dead = sharded.shard_map.range_of(1)
        result = client.scan(0, 15)
        assert result.partial
        assert result.unavailable == ((dead.lo, dead.hi),)

    def test_kill_and_revive_round_trip(self, cluster):
        _, _, client = cluster
        assert client.kill_shard(2) == "down"
        assert client.degrade_shard(0) == "degraded"
        states = [entry["state"] for entry in client.health()]
        assert states == ["degraded", "up", "down"]
        assert client.revive_shard(2) == "up"
        assert client.revive_shard(0) == "up"

    def test_retried_write_applies_at_most_once(self, cluster):
        sharded, server, _ = cluster
        body = wire.request("insert", "c9:r1", {"key": 42, "value": "x"},
                            token="c9:t1")
        first = server.handle_body(body)
        assert first["ok"]
        # The retry carries the same token under a new correlation id.
        retry = wire.request("insert", "c9:r2", {"key": 42, "value": "x"},
                             token="c9:t1")
        second = server.handle_body(retry)
        assert second["ok"] and second["replayed"]
        assert second["id"] == "c9:r2"
        assert sharded.search(42).value == "x"
        assert server.dedup_replays == 1

    def test_domain_errors_are_definite_outcomes(self, cluster):
        _, server, client = cluster
        client.insert(5)
        body = wire.request("insert", "r1", {"key": 5}, token="dup:t1")
        first = server.handle_body(body)
        assert first["error"] == "DuplicateKeyError"
        # Replayed, not re-executed: same typed error comes back.
        second = server.handle_body(
            wire.request("insert", "r2", {"key": 5}, token="dup:t1")
        )
        assert second["error"] == "DuplicateKeyError"
        assert second["replayed"]

    def test_not_applied_failures_are_never_recorded(self, cluster):
        _, server, client = cluster
        client.kill_shard(0)
        body = wire.request("insert", "r1", {"key": 0}, token="na:t1")
        response = server.handle_body(body)
        assert response["error"] == "ShardUnavailableError"
        # Absence from the table is the proof of non-application — and
        # leaves the token free to succeed after the shard revives.
        assert server.tokens.peek("na:t1") is None
        client.revive_shard(0)
        retry = server.handle_body(
            wire.request("insert", "r2", {"key": 0}, token="na:t1")
        )
        assert retry["ok"] and "replayed" not in retry

    def test_transient_faults_are_absorbed_by_retry(self, cluster):
        _, server, _ = cluster

        class FlakyChannel:
            def __init__(self, inner, failures):
                self.inner = inner
                self.failures = failures

            def request(self, frame, timeout=None):
                if self.failures > 0:
                    self.failures -= 1
                    raise TransientNetworkError("injected blip")
                return self.inner.request(frame, timeout)

            def close(self):
                self.inner.close()

        client = ClusterClient(
            FlakyChannel(LocalChannel(server.handle_frame), failures=2),
            retry_policy=RetryPolicy(max_attempts=4),
        )
        client.insert(77, "made-it")
        assert client.search(77).value == "made-it"
        assert client.client_stats()["cluster.client.retries"] == 2

    def test_budget_spent_surfaces_as_operation_timeout(self, cluster):
        _, server, _ = cluster

        class BlackHole:
            def request(self, frame, timeout=None):
                raise TransientNetworkError("dropped")

            def close(self):
                pass

        slept = []
        client = ClusterClient(
            BlackHole(),
            retry_policy=RetryPolicy(max_attempts=10, base_delay=1.0),
            sleep=slept.append,
        )
        client.prime(ShardMap.uniform(3, 300))
        with pytest.raises(OperationTimeout):
            client.search(1, timeout=0.2)
        # The 1s backoff would overrun the 0.2s budget: fail, don't sleep.
        assert slept == []

    def test_breaker_opens_after_repeated_shard_failures(self, cluster):
        sharded, server, client = cluster
        client.kill_shard(1)
        victim = sharded.shard_map.range_of(1).lo
        for _ in range(5):
            with pytest.raises(ShardUnavailableError):
                client.search(victim)
        # The breaker now fails fast locally without touching the wire.
        before = server.requests
        with pytest.raises(CircuitOpenError) as info:
            client.search(victim)
        assert server.requests == before
        assert info.value.shard_id == 1
        # Other shards' breakers stay closed and keep serving.
        client.insert(0, "fine")
        assert client.search(0).value == "fine"

    def test_probe_domain_error_closes_instead_of_wedging(self):
        # Regression: a half-open probe whose outcome is a domain error
        # (the shard ANSWERED, just unhappily) must report an outcome
        # to the breaker, or the probe slot leaks and every later call
        # to a recovered shard raises CircuitOpenError forever.
        clock = FakeClock()
        sharded = ShardedDenseFile.build(num_shards=2, key_space=100)
        server = ClusterServer(sharded)
        client = ClusterClient(
            LocalChannel(server.handle_frame),
            retry_policy=RetryPolicy(max_attempts=1),
            breaker_threshold=1, breaker_reset=1.0, clock=clock,
        )
        try:
            client.prime(sharded.shard_map)
            sharded.mark_down(0)
            with pytest.raises(ShardUnavailableError):
                client.delete(0)
            assert client.breaker(0).state == OPEN
            sharded.revive(0)
            clock.advance(1.5)
            # The probe is a delete of a missing key: a definite answer
            # from a healthy shard, so the breaker closes.
            with pytest.raises(RecordNotFoundError):
                client.delete(0)
            assert client.breaker(0).state == CLOSED
            client.insert(0, "ok")  # would be CircuitOpenError if wedged
            assert client.search(0).value == "ok"
        finally:
            client.close()
            sharded.close()

    def test_probe_network_error_reopens_instead_of_closing(self):
        # Regression: a half-open probe that dies with a connection
        # reset proved nothing — it must NOT close the circuit and
        # resume full traffic, and must not reset the failure streak.
        clock = FakeClock()
        sharded = ShardedDenseFile.build(num_shards=2, key_space=100)
        server = ClusterServer(sharded)

        class Flaky:
            def __init__(self, inner):
                self.inner = inner
                self.fail_next = False

            def request(self, frame, timeout=None):
                if self.fail_next:
                    self.fail_next = False
                    raise TransientNetworkError("probe reset")
                return self.inner.request(frame, timeout)

            def close(self):
                self.inner.close()

        channel = Flaky(LocalChannel(server.handle_frame))
        client = ClusterClient(
            channel,
            retry_policy=RetryPolicy(max_attempts=1),
            breaker_threshold=1, breaker_reset=1.0, clock=clock,
        )
        try:
            client.prime(sharded.shard_map)
            sharded.mark_down(0)
            with pytest.raises(ShardUnavailableError):
                client.search(0)
            assert client.breaker(0).state == OPEN
            clock.advance(1.5)
            channel.fail_next = True
            with pytest.raises(TransientNetworkError):
                client.search(0)
            breaker = client.breaker(0)
            assert breaker.state == OPEN
            assert breaker.stats()["consecutive_failures"] == 1
            with pytest.raises(CircuitOpenError):
                client.search(0)
        finally:
            client.close()
            sharded.close()

    def test_spent_client_budget_never_touches_the_breaker(self, cluster):
        # Regression: a budget that expired before any network I/O is
        # the CLIENT's timeout; feeding it to record_failure() could
        # trip a healthy shard's breaker without ever contacting it.
        _, server, client = cluster
        shard_id = client.shard_map.shard_for(1)
        before = server.requests
        with pytest.raises(OperationTimeout):
            client.search(1, timeout=0.0)
        stats = client.breaker(shard_id).stats()
        assert client.breaker(shard_id).state == CLOSED
        assert stats["consecutive_failures"] == 0
        assert server.requests == before  # the wire was never touched

    def test_malformed_requests_get_typed_responses(self, cluster):
        # Regression: a missing args key or a non-numeric budget used
        # to escape handle_body as KeyError/TypeError and kill the
        # connection thread with no response at all.
        _, server, _ = cluster
        response = server.handle_body({"op": "insert", "id": "r1"})
        assert response["ok"] is False
        assert response["error"] == "WireProtocolError"
        assert response["id"] == "r1"
        response = server.handle_body(
            {"op": "ping", "id": "r2", "budget": "soon"}
        )
        assert response["error"] == "WireProtocolError"
        response = server.handle_body({"op": "search", "id": "r3", "args": [1]})
        assert response["error"] == "WireProtocolError"
        # A malformed mutating request must not burn its token either.
        response = server.handle_body(
            {"op": "insert", "id": "r4", "token": "m:t1"}
        )
        assert response["error"] == "WireProtocolError"
        assert server.tokens.peek("m:t1") is None
        # The dispatcher survived all of it.
        assert server.handle_body({"op": "ping", "id": "r5"})["result"] == "pong"

    def test_writes_without_duplicates_build_no_event(self, cluster,
                                                       events_built):
        _, server, client = cluster
        for key in range(0, 300, 30):
            client.insert(key, "v")
        assert client.delete(30).key == 30
        assert events_built == []
        assert server.tokens.waits == 0

    @pytest.mark.parametrize("value", [{1, 2}, object()],
                             ids=["set", "object"])
    def test_unencodable_argument_fails_typed_once(self, cluster, value):
        _, server, client = cluster
        shard_id = client.shard_map.shard_for(5)
        breaker = client.breaker(shard_id).stats()
        requests = client.channel.requests
        served = server.requests
        with pytest.raises(CodecError):
            client.insert(5, value)
        assert client.counters.retries == 0
        assert client.breaker(shard_id).stats() == breaker
        assert client.channel.requests == requests
        assert server.requests == served

    def test_unroutable_key_is_a_usage_error(self, cluster):
        _, _, client = cluster
        with pytest.raises(UsageError, match=r"key \(1, 2\).*cuts \[100, 200\]"):
            client.insert((1, 2), "v")
        assert client.counters.retries == 0

    def test_racing_duplicates_execute_each_token_once(self):
        # Eight threads, more than the cores, send the same tokened
        # insert at once, token after token.  Whichever claim each
        # duplicate gets (replay, wait on the lazily built event, or
        # execute), every token executes exactly once and every
        # attempt answers ok.
        sharded = ShardedDenseFile.build(num_shards=1, key_space=100)
        server = ClusterServer(sharded)
        executed = []
        original = server._dispatch

        def counting_dispatch(op, args, deadline):
            executed.append(args["key"])
            return original(op, args, deadline)

        server._dispatch = counting_dispatch
        threads, tokens = 8, 60
        barrier = threading.Barrier(threads)
        failures = []

        def worker():
            for key in range(tokens):
                barrier.wait(5.0)
                response = server.handle_body(wire.request(
                    "insert", f"r{key}", {"key": key}, token=f"race:t{key}"
                ))
                if not response["ok"]:
                    failures.append(response)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
            sharded.close()
        assert not any(thread.is_alive() for thread in workers)
        assert failures == []
        assert sorted(executed) == list(range(tokens))
        assert server.dedup_replays == (threads - 1) * tokens

    def test_duplicate_token_waits_for_in_flight_first_attempt(self):
        # Regression: check-then-execute on the idempotency table let a
        # retry racing a still-executing first attempt double-execute —
        # for a delete, the retry then recorded RecordNotFoundError as
        # the token's definite outcome even though the delete applied.
        sharded = ShardedDenseFile.build(num_shards=1, key_space=100)
        server = ClusterServer(sharded)
        sharded.insert(7, "x")
        entered = threading.Event()
        release = threading.Event()
        original = server._dispatch

        def slow_dispatch(op, args, deadline):
            if op == "delete":
                entered.set()
                assert release.wait(5.0)
            return original(op, args, deadline)

        server._dispatch = slow_dispatch
        results = {}

        def run(name, request_id):
            results[name] = server.handle_body(
                wire.request("delete", request_id, {"key": 7},
                             token="race:t1")
            )

        try:
            first = threading.Thread(target=run, args=("first", "r1"))
            first.start()
            assert entered.wait(5.0)
            # The retry arrives while the first attempt is mid-execute.
            second = threading.Thread(target=run, args=("second", "r2"))
            second.start()
            time.sleep(0.05)  # let the retry reach the reservation
            release.set()
            first.join(5.0)
            second.join(5.0)
        finally:
            release.set()
            sharded.close()
        assert results["first"]["ok"]
        assert results["first"]["result"] == [7, "x"]
        # The retry replayed the applied delete — it did not re-execute
        # and fabricate a RecordNotFoundError.
        assert results["second"]["ok"]
        assert results["second"]["replayed"]
        assert results["second"]["id"] == "r2"
        assert server.dedup_replays == 1


# ----------------------------------------------------------------------
# client <-> server over real TCP
# ----------------------------------------------------------------------


class TestTcpTransport:
    def test_end_to_end_over_sockets(self):
        sharded = ShardedDenseFile.build(num_shards=3, key_space=300)
        server = ClusterServer(sharded)
        host, port = server.start()
        try:
            with ClusterClient.connect(host, port) as client:
                assert client.ping() is True
                for key in range(0, 300, 30):
                    client.insert(key, f"v{key}")
                assert len(client) == 10
                assert client.search(90).value == "v90"
                assert client.delete(90).key == 90
                # Admin ops and degradation work over the wire too.
                client.kill_shard(1)
                dead = client.shard_map.range_of(1)
                with pytest.raises(ShardUnavailableError):
                    client.insert(dead.lo)
                result = client.scan(0, 10)
                assert result.partial
        finally:
            server.stop()
            sharded.close()

    def test_two_clients_get_distinct_identities(self):
        sharded = ShardedDenseFile.build(num_shards=2, key_space=100)
        server = ClusterServer(sharded)
        host, port = server.start()
        try:
            with ClusterClient.connect(host, port) as a, \
                    ClusterClient.connect(host, port) as b:
                assert a.client_id != b.client_id
                a.insert(1)
                b.insert(2)
                assert a.search(2).key == 2
                assert b.search(1).key == 1
        finally:
            server.stop()
            sharded.close()

    def test_connection_refused_is_transient(self):
        # Nothing listens on the ephemeral port the kernel just released.
        sharded = ShardedDenseFile.build(num_shards=1, key_space=10)
        server = ClusterServer(sharded)
        host, port = server.start()
        server.stop()
        sharded.close()
        client = ClusterClient(
            __import__("repro.cluster.transport", fromlist=["SocketChannel"])
            .SocketChannel(host, port, connect_timeout=0.5),
            retry_policy=RetryPolicy(max_attempts=2),
        )
        client.prime(ShardMap.uniform(1, 10))
        with pytest.raises(TransientNetworkError):
            client.ping()


class TestSocketFraming:
    """One read per frame must still cope with any split of the stream."""

    @staticmethod
    def one_shot_server(reply):
        """A listener that answers one request frame via ``reply``."""
        listener = socket.create_server(("127.0.0.1", 0))
        done = threading.Event()

        def serve():
            conn, _ = listener.accept()
            with conn:
                (frame,), _rest = recv_frames(conn)
                reply(conn, wire.decode_bytes(frame))
                done.wait(5.0)  # keep the connection open until checked
            listener.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return listener.getsockname(), done, thread

    def test_response_sent_one_byte_per_send_is_decoded(self):
        def reply(conn, request):
            response = wire.encode_frame(
                wire.ok_response(request["id"], list(range(50)))
            )
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for index in range(len(response)):
                conn.send(response[index : index + 1])

        (host, port), done, thread = self.one_shot_server(reply)
        channel = SocketChannel(host, port)
        try:
            raw = channel.request(
                wire.encode_frame(wire.request("ping", "r1")), timeout=5.0
            )
            assert wire.decode_bytes(raw) == wire.ok_response(
                "r1", list(range(50))
            )
        finally:
            done.set()
            channel.close()
            thread.join(5.0)

    def test_bytes_past_the_response_are_refused(self):
        def reply(conn, request):
            response = wire.encode_frame(wire.ok_response(request["id"], 1))
            conn.sendall(response + response)

        (host, port), done, thread = self.one_shot_server(reply)
        channel = SocketChannel(host, port)
        try:
            with pytest.raises(WireProtocolError, match="past the end"):
                channel.request(
                    wire.encode_frame(wire.request("ping", "r1")), timeout=5.0
                )
            assert channel._sock is None  # torn down, next call reconnects
        finally:
            done.set()
            channel.close()
            thread.join(5.0)

    @pytest.fixture
    def served(self):
        sharded = ShardedDenseFile.build(num_shards=2, key_space=100)
        server = ClusterServer(sharded)
        host, port = server.start()
        conn = socket.create_connection((host, port), timeout=5.0)
        yield conn, sharded
        conn.close()
        server.stop()
        sharded.close()

    @staticmethod
    def read_responses(conn, count):
        frames, pending = [], b""
        while len(frames) < count:
            more, pending = recv_frames(conn, pending)
            frames.extend(more)
        assert pending == b"" and len(frames) == count
        return [wire.decode_bytes(frame) for frame in frames]

    def test_coalesced_requests_are_answered_in_order(self, served):
        conn, sharded = served
        insert = wire.request("insert", "r1", {"key": 5, "value": b"v"},
                              token="co:t1")
        search = wire.request("search", "r2", {"key": 5})
        conn.sendall(wire.encode_frame(insert) + wire.encode_frame(search))
        first, second = self.read_responses(conn, 2)
        assert first == wire.ok_response("r1", None)
        assert second == wire.ok_response("r2", [5, b"v"])
        assert sharded.search(5).value == b"v"

    def test_frames_before_a_bad_header_are_served_then_dropped(self, served):
        conn, _ = served
        frame = wire.encode_frame(wire.request("ping", "r1"))
        conn.sendall(frame + b"XX" + frame[2:])
        (response,) = self.read_responses(conn, 1)
        assert response == wire.ok_response("r1", "pong")
        assert conn.recv(64) == b""  # the server dropped the stream

    def test_request_sent_one_byte_per_send_is_served(self, served):
        conn, _ = served
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        frame = wire.encode_frame(wire.request("ping", "r1"))
        for index in range(len(frame)):
            conn.send(frame[index : index + 1])
        (response,) = self.read_responses(conn, 1)
        assert response == wire.ok_response("r1", "pong")

    def test_unencodable_result_is_typed_and_the_connection_survives(self):
        sharded = ShardedDenseFile.build(num_shards=2, key_space=100)
        sharded.insert(5, {1, 2})  # in-process: no wire to refuse the set
        server = ClusterServer(sharded)
        host, port = server.start()
        try:
            with ClusterClient.connect(host, port, default_timeout=5.0) as client:
                with pytest.raises(CodecError, match="set"):
                    client.search(5)
                assert client.counters.retries == 0
                client.insert(6, "ok")
                assert client.search(6).value == "ok"
                assert client.channel.connects == 1
        finally:
            server.stop()
            sharded.close()


class TestKernelTimeouts:
    """Socket timeouts armed in the kernel, once per budget step."""

    @staticmethod
    def scripted_peer(answer_from):
        """A listener that holds connections ``0 .. answer_from - 1``
        open without a word and answers one ping on each later one."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.1)
        stop = threading.Event()

        def serve():
            held = []
            accepted = 0
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                conn.settimeout(5.0)
                held.append(conn)
                accepted += 1
                if accepted > answer_from:
                    (frame,), _rest = recv_frames(conn)
                    request = wire.decode_bytes(frame)
                    conn.sendall(wire.encode_frame(
                        wire.ok_response(request["id"], "pong")))
            for conn in held:
                conn.close()
            listener.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()

        def close():
            stop.set()
            thread.join(5.0)
            assert not thread.is_alive()

        return listener.getsockname(), close

    @staticmethod
    def trickling_peer(gap):
        """A listener that answers one ping a byte at a time, ``gap``
        seconds apart."""
        listener = socket.create_server(("127.0.0.1", 0))
        done = threading.Event()

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                (frame,), _rest = recv_frames(conn)
                response = wire.encode_frame(
                    wire.ok_response(wire.decode_bytes(frame)["id"], "pong"))
                for index in range(len(response)):
                    if done.wait(gap):
                        break
                    try:
                        conn.send(response[index : index + 1])
                    except OSError:
                        break  # the client gave up and closed
            listener.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()

        def close():
            done.set()
            thread.join(5.0)
            assert not thread.is_alive()

        return listener.getsockname(), close

    @staticmethod
    def slow_reader(start, gap, size=16384):
        """A listener whose one connection reads nothing for ``start``
        seconds, then ``size`` bytes every ``gap`` seconds, and never
        answers."""
        listener = socket.create_server(("127.0.0.1", 0))
        done = threading.Event()

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(0.5)
                done.wait(start)
                while not done.wait(gap):
                    try:
                        if not conn.recv(size):
                            break
                    except OSError:
                        continue  # nothing arrived within 0.5 s
            listener.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()

        def close():
            done.set()
            thread.join(5.0)
            assert not thread.is_alive()

        return listener.getsockname(), close

    @staticmethod
    def receive_timeouts(monkeypatch):
        """Record the socket's armed SO_RCVTIMEO as each response is read."""
        seen = []
        original = SocketChannel._read_response

        def spying(channel, sock, *rest):
            raw = sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, 16)
            seconds, micros = struct.unpack("@ll", raw)
            seen.append(seconds + micros / 1e6)
            return original(channel, sock, *rest)

        monkeypatch.setattr(SocketChannel, "_read_response", spying)
        return seen

    #: A request far larger than the socket buffers between the two
    #: ends (its bytes need not be a valid frame: the peer never
    #: parses them).
    BIG = bytes(16 * 1024 * 1024)

    PING = wire.encode_frame(wire.request("ping", "r1"))

    def test_a_silent_peer_times_out_within_the_budget(self):
        address, close = self.scripted_peer(answer_from=99)
        channel = SocketChannel(*address)
        try:
            started = time.monotonic()
            with pytest.raises(TransientNetworkError) as raised:
                channel.request(self.PING, timeout=0.3)
            elapsed = time.monotonic() - started
            assert 0.3 - 0.01 <= elapsed <= 0.3 + 0.5
            assert isinstance(raised.value.__cause__, BlockingIOError)
            assert channel._sock is None  # torn down for a clean retry
        finally:
            channel.close()
            close()

    def test_a_trickled_response_cannot_stretch_the_budget(self):
        # 25 bytes 0.1 s apart would take 2.5 s; each read after the
        # first is armed with what is left of the 0.3 s.
        address, close = self.trickling_peer(gap=0.1)
        channel = SocketChannel(*address)
        try:
            started = time.monotonic()
            with pytest.raises(TransientNetworkError):
                channel.request(self.PING, timeout=0.3)
            assert 0.3 - 0.01 <= time.monotonic() - started <= 0.3 + 0.5
        finally:
            channel.close()
            close()

    @pytest.mark.parametrize("gap", [99.0, 0.02], ids=["never", "trickle"])
    def test_a_peer_that_does_not_read_cannot_stretch_the_budget(self, gap):
        # A send blocked on a full buffer times out after its armed
        # budget; the rest of the frame is armed with what is left.
        # A peer that reads a little every 20 ms would otherwise let
        # each partial send wait the whole budget again.
        address, close = self.slow_reader(start=0.0, gap=gap)
        channel = SocketChannel(*address)
        try:
            started = time.monotonic()
            with pytest.raises(TransientNetworkError):
                channel.request(self.BIG, timeout=0.3)
            assert 0.3 - 0.01 <= time.monotonic() - started <= 0.3 + 0.5
        finally:
            channel.close()
            close()

    def test_a_slow_send_leaves_the_read_only_what_is_left(self):
        # The peer drains the request from 0.6 s on and never answers:
        # the read is armed with the 0.4 s left, not the full second.
        address, close = self.slow_reader(start=0.6, gap=0.001, size=1 << 20)
        channel = SocketChannel(*address)
        try:
            started = time.monotonic()
            with pytest.raises(TransientNetworkError):
                channel.request(self.BIG, timeout=1.0)
            assert 1.0 - 0.01 <= time.monotonic() - started <= 1.0 + 0.3
        finally:
            channel.close()
            close()

    def test_a_platform_without_a_timeval_is_refused(self, monkeypatch):
        from repro.cluster import transport

        monkeypatch.setattr(transport.sys, "platform", "win32")
        with pytest.raises(ConfigurationError, match="struct timeval"):
            SocketChannel("127.0.0.1", 1)
        sharded = ShardedDenseFile.build(num_shards=1, key_space=10)
        try:
            with pytest.raises(ConfigurationError, match="struct timeval"):
                ClusterServer(sharded).start()
        finally:
            sharded.close()
        with socket.socket() as sock:
            with pytest.raises(ConfigurationError, match="struct timeval"):
                transport.arm_timeouts(sock, 1000)

    def test_a_budget_under_one_step_is_armed_never_as_zero(self, monkeypatch):
        seen = self.receive_timeouts(monkeypatch)
        address, close = self.scripted_peer(answer_from=99)
        channel = SocketChannel(*address)
        try:
            for budget in (0.005, 1e-9):
                with pytest.raises(TransientNetworkError):
                    channel.request(self.PING, timeout=budget)
            # The kernel keeps whole scheduler ticks, so the read-back
            # may exceed the armed value by one tick, but never reads
            # zero, which would mean "wait forever".
            assert len(seen) == 2
            assert all(0.0 < armed < 0.05 for armed in seen)
        finally:
            channel.close()
            close()

    def test_no_budget_leaves_no_kernel_timeout(self, monkeypatch):
        seen = self.receive_timeouts(monkeypatch)
        address, close = self.scripted_peer(answer_from=0)
        channel = SocketChannel(*address)
        try:
            raw = channel.request(self.PING, timeout=None)
            assert wire.decode_bytes(raw)["result"] == "pong"
            assert seen == [0.0]
            assert channel.arms == 0
        finally:
            channel.close()
            close()

    def test_a_stream_on_the_default_budget_arms_once(self):
        sharded = ShardedDenseFile.build(num_shards=2, key_space=1000)
        server = ClusterServer(sharded)
        host, port = server.start()
        # A frozen client clock: every call sees the same 30 s budget.
        client = ClusterClient(SocketChannel(host, port),
                               default_timeout=30.0, clock=FakeClock())
        try:
            for key in range(100):
                client.insert(key, key)
            for key in range(100):
                assert client.search(key).value == key
            assert client.channel.arms == 1
            assert client.channel.connects == 1
        finally:
            client.close()
            server.stop()
            sharded.close()

    def test_kernel_timeout_rounds_down_to_its_step(self):
        from repro.cluster.transport import TIMEOUT_STEP_US, kernel_timeout_us

        assert kernel_timeout_us(None) == 0
        assert kernel_timeout_us(29.999_999) == 29_990_000
        assert kernel_timeout_us(0.019_999) == 10_000
        assert kernel_timeout_us(0.009_999) == 9_999
        assert kernel_timeout_us(1e-9) == 1
        for budget in (0.0, 1e-7, 0.003, 0.01, 0.25, 30.0):
            armed = kernel_timeout_us(budget)
            assert armed > 0
            assert armed <= max(budget * 1e6, 1)
            assert armed > budget * 1e6 - TIMEOUT_STEP_US

    def test_a_rebuilt_connection_is_armed_again(self):
        address, close = self.scripted_peer(answer_from=1)
        channel = SocketChannel(*address)
        try:
            with pytest.raises(TransientNetworkError):
                channel.request(self.PING, timeout=0.2)
            raw = channel.request(self.PING, timeout=0.2)
            assert wire.decode_bytes(raw)["result"] == "pong"
            assert channel.connects == 2
            assert channel.arms == 2
        finally:
            channel.close()
            close()

    def test_the_server_drops_an_idle_connection(self, monkeypatch):
        from repro.cluster import server as server_module

        monkeypatch.setattr(server_module, "IDLE_TIMEOUT", 0.2)
        sharded = ShardedDenseFile.build(num_shards=1, key_space=10)
        server = ClusterServer(sharded)
        host, port = server.start()
        try:
            with socket.create_connection((host, port), timeout=5.0) as conn:
                conn.sendall(self.PING)
                (frame,), _ = recv_frames(conn)
                assert wire.decode_bytes(frame)["result"] == "pong"
                started = time.monotonic()
                assert conn.recv(64) == b""  # closed by the server
                assert 0.15 <= time.monotonic() - started < 3.0
        finally:
            server.stop()
            sharded.close()


# ----------------------------------------------------------------------
# seeded network faults
# ----------------------------------------------------------------------


class TestNetFaults:
    def test_plan_replays_byte_identically(self):
        plan_a = NetFaultPlan(seed=9, drop_rate=0.3, delay_rate=0.3)
        plan_b = NetFaultPlan(seed=9, drop_rate=0.3, delay_rate=0.3)
        draws_a = [plan_a.draw() for _ in range(50)]
        assert draws_a == [plan_b.draw() for _ in range(50)]
        assert any(kind is not None for kind, _ in draws_a)

    def test_disabled_plan_injects_nothing(self):
        plan = NetFaultPlan(seed=1)
        assert not plan.enabled
        assert all(plan.draw() == (None, 0.0) for _ in range(20))

    def test_drop_loses_the_request_entirely(self, cluster_pair):
        server, client = cluster_pair(NetFaultPlan(seed=0, drop_rate=1.0,
                                                   max_faults=1))
        token = client.new_token()
        with pytest.raises(TransientNetworkError):
            client.insert_with_token(3, token=token, timeout=0.5)
        # The request never reached the server: provably not applied.
        assert server.tokens.peek(token) is None
        assert server.store.search(3) is None

    def test_drop_after_delivers_then_loses_the_response(self, cluster_pair):
        server, client = cluster_pair(NetFaultPlan(seed=0, drop_after_rate=1.0,
                                                   max_faults=1))
        token = client.new_token()
        with pytest.raises(TransientNetworkError):
            client.insert_with_token(3, token=token, timeout=0.5)
        # The write WAS applied; the idempotency table is the witness.
        assert server.tokens.peek(token) is not None
        assert server.store.search(3).key == 3

    def test_retry_rides_through_drop_after_exactly_once(self, cluster_pair):
        server, client = cluster_pair(
            NetFaultPlan(seed=0, drop_after_rate=1.0, max_faults=1),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        client.insert(3, "once")
        assert server.store.search(3).value == "once"
        assert server.dedup_replays == 1  # the retry was replayed, not re-run

    def test_truncated_response_is_a_wire_error_then_retried(self, cluster_pair):
        server, client = cluster_pair(
            NetFaultPlan(seed=0, truncate_rate=1.0, max_faults=1),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        client.insert(5)
        assert server.store.search(5).key == 5

    @pytest.fixture
    def cluster_pair(self):
        built = []

        def factory(plan, retry_policy=None):
            sharded = ShardedDenseFile.build(num_shards=2, key_space=100)
            server = ClusterServer(sharded)
            channel = ChaosChannel(LocalChannel(server.handle_frame), plan)
            client = ClusterClient(
                channel,
                retry_policy=retry_policy or RetryPolicy(max_attempts=1),
            )
            client.prime(sharded.shard_map)
            built.append((sharded, client))
            return server, client

        yield factory
        for sharded, client in built:
            client.close()
            sharded.close()


# ----------------------------------------------------------------------
# the chaos harness
# ----------------------------------------------------------------------


class TestChaosHarness:
    def test_clean_run_holds_the_trichotomy(self):
        report = run_chaos(ChaosConfig(seed=11, total_ops=60, threads=2))
        assert report.ok, report.summary()
        # The schedule rounds ops up to fill its batches.
        assert report.ops_issued >= 60
        assert report.outcomes.get("ok", 0) > 0

    def test_chaos_runs_are_deterministic(self):
        config = dict(seed=13, total_ops=40, threads=2, drop_rate=0.1,
                      drop_after_rate=0.1, delay_rate=0.05)
        a = run_chaos(ChaosConfig(**config))
        b = run_chaos(ChaosConfig(**config))
        assert a.digest == b.digest
        assert a.outcomes == b.outcomes
        assert a.faults == b.faults

    def test_storm_resolves_every_ambiguous_write(self):
        report = run_chaos(ChaosConfig(
            seed=5, total_ops=80, threads=3,
            drop_rate=0.08, drop_after_rate=0.08, delay_rate=0.08,
            duplicate_rate=0.08, reorder_rate=0.08, truncate_rate=0.08,
        ))
        assert report.ok, report.summary()
        assert report.ambiguous_writes == (
            report.resolved_applied + report.proven_not_applied
        )

    def test_kill_shard_mid_run_degrades_gracefully(self):
        report = run_chaos(ChaosConfig(
            seed=7, total_ops=80, threads=3, kill_at=2, kill_shard_id=1,
        ))
        assert report.ok, report.summary()
        # Surviving ranges kept serving after the kill.
        assert report.post_kill_successes > 0

    def test_sweep_covers_every_fault_family(self):
        names = [name for name, _ in SWEEP_PROFILES]
        assert "storm" in names and "kill-shard" in names
        results = run_sweep(seed=3, total_ops=30, threads=2,
                            profiles=SWEEP_PROFILES[:2])
        assert [name for name, _ in results] == names[:2]
        assert all(report.ok for _, report in results)

    def test_report_is_json_ready(self):
        report = run_chaos(ChaosConfig(seed=1, total_ops=20, threads=2))
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["ops_issued"] >= 20
        import json

        json.dumps(payload)  # must not raise

    def test_config_rejects_nonsense(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig(threads=0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(op_timeout=0.0)
