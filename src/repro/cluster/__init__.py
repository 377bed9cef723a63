"""Fault-tolerant sharded cluster front-end for the dense file.

This package scales the paper's single dense sequential file out to a
range-sharded cluster and makes the network between client and server a
first-class, testable failure domain:

:mod:`~repro.cluster.sharding`
    Key-range shard maps (who owns which slice of the keyspace).
:mod:`~repro.cluster.store`
    :class:`ShardedDenseFile` — N thread-safe shards behind one router,
    with per-shard health and honest partial results.
:mod:`~repro.cluster.wire`
    The length-prefixed framed protocol (magic + length + CRC-32 +
    a binary body whose values use the page codec) with correlation
    ids and idempotency tokens.
:mod:`~repro.cluster.transport`
    :class:`SocketChannel` (real TCP) and :class:`LocalChannel`
    (in-process, byte-identical dispatch) client transports.
:mod:`~repro.cluster.server`
    :class:`ClusterServer` — the dispatcher, the idempotency table,
    and the TCP accept loop behind ``repro serve``.
:mod:`~repro.cluster.breaker`
    Per-shard circuit breakers (closed / open / half-open).
:mod:`~repro.cluster.client`
    :class:`ClusterClient` — deadline-aware retries with seeded jitter,
    breaker gating, at-most-once writes via idempotency tokens.
:mod:`~repro.cluster.netfaults`
    Seeded network fault plans and the :class:`ChaosChannel`.
:mod:`~repro.cluster.chaos`
    The chaos harness behind ``repro chaos``: proves every operation
    ends in success, a typed failure within its deadline, or a
    provably-not-applied write.
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .chaos import ChaosConfig, ChaosReport, run_chaos, run_sweep
from .client import ClusterClient
from .netfaults import ChaosChannel, NetFaultPlan
from .server import ClusterServer, IdempotencyTable
from .sharding import ShardMap, ShardRange
from .store import ScanResult, ShardedDenseFile
from .transport import Channel, LocalChannel, SocketChannel
from .wire import MAX_FRAME, decode_bytes, decode_frame, encode_frame

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "CircuitBreaker",
    "ChaosConfig",
    "ChaosReport",
    "run_chaos",
    "run_sweep",
    "ClusterClient",
    "ChaosChannel",
    "NetFaultPlan",
    "ClusterServer",
    "IdempotencyTable",
    "ShardMap",
    "ShardRange",
    "ScanResult",
    "ShardedDenseFile",
    "Channel",
    "LocalChannel",
    "SocketChannel",
    "MAX_FRAME",
    "encode_frame",
    "decode_frame",
    "decode_bytes",
]
