"""Keys and values keep their exact types across the cluster wire.

Every key family of ``test_key_types.py`` and every value type the page
codec supports goes through insert, search, range and delete, both
in-process (``LocalChannel``) and over a loopback TCP socket.  A value
that compares equal but comes back as another type (a tuple as a list,
bytes as str) is a failure, on the client and in the server's store.
"""

from fractions import Fraction

import pytest

from repro import DenseSequentialFile
from repro.cluster import (
    ClusterClient,
    ClusterServer,
    LocalChannel,
    ShardMap,
    ShardedDenseFile,
)
from repro.concurrent.file import ThreadSafeDenseFile

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
