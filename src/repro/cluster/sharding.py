"""Key-range shard maps: who owns which slice of the keyspace.

A cluster splits one logical dense file into N contiguous key ranges,
each served by its own :class:`~repro.concurrent.file.ThreadSafeDenseFile`
over its own store.  The :class:`ShardMap` is the routing table both
sides share: the server routes incoming operations with it, and the
client downloads it in the ``hello`` handshake so it can keep one
circuit breaker per shard and name the affected ranges when a shard is
unavailable.

Ranges are half-open ``[lo, hi)``; the first shard additionally owns
everything below its ``lo`` and the last everything at or above its
``hi``, so *every* key routes somewhere and a routing miss is
impossible by construction.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from ..core.errors import ConfigurationError, UsageError


@dataclass(frozen=True)
class ShardRange:
    """One shard's slice of the keyspace: ``[lo, hi)``."""

    shard_id: int
    lo: Any
    hi: Any

    def describe(self) -> str:
        """Compact rendering for error messages and ``repro info``."""
        return f"shard {self.shard_id} [{self.lo}, {self.hi})"


class ShardMap:
    """Routes keys and key ranges to shard ids.

    Built from ``cuts`` — the N-1 interior boundary keys, strictly
    increasing — plus the overall ``[lo, hi)`` envelope used only for
    describing the outermost ranges.  Routing is a ``bisect`` over the
    cuts: O(log N) per key, no per-shard scan.
    """

    def __init__(self, cuts: Sequence[Any], lo: Any = None, hi: Any = None):
        self.cuts: List[Any] = list(cuts)
        for left, right in zip(self.cuts, self.cuts[1:]):
            if not left < right:
                raise ConfigurationError(
                    f"shard cuts must be strictly increasing, got "
                    f"{left!r} before {right!r}"
                )
        self.lo = lo
        self.hi = hi

    # -- construction ---------------------------------------------------

    @classmethod
    def uniform(cls, num_shards: int, key_space: int) -> "ShardMap":
        """Split ``range(key_space)`` into ``num_shards`` equal ranges."""
        if num_shards < 1:
            raise ConfigurationError("a cluster needs at least one shard")
        if key_space < num_shards:
            raise ConfigurationError(
                f"key space {key_space} cannot feed {num_shards} shards"
            )
        step = key_space / num_shards
        cuts = [int(step * index) for index in range(1, num_shards)]
        return cls(cuts, lo=0, hi=key_space)

    # -- routing --------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """How many shards this map routes across."""
        return len(self.cuts) + 1

    def shard_for(self, key: Any) -> int:
        """The shard id owning ``key``.

        A key that does not compare with the cuts (a tuple against int
        cuts, say) has no owner and raises :class:`UsageError`.
        """
        try:
            return bisect.bisect_right(self.cuts, key)
        except TypeError as error:
            raise UsageError(
                f"key {key!r} cannot be routed by the shard map with cuts "
                f"{self.cuts!r}: {error}"
            ) from error

    def shards_for_range(self, lo_key: Any, hi_key: Any) -> List[int]:
        """Every shard id intersecting ``[lo_key, hi_key]`` in key order."""
        first = self.shard_for(lo_key)
        last = self.shard_for(hi_key)
        return list(range(first, last + 1))

    def range_of(self, shard_id: int) -> ShardRange:
        """The ``[lo, hi)`` slice shard ``shard_id`` owns."""
        if not 0 <= shard_id < self.num_shards:
            raise ConfigurationError(
                f"shard {shard_id} not in a {self.num_shards}-shard map"
            )
        lo = self.lo if shard_id == 0 else self.cuts[shard_id - 1]
        hi = self.hi if shard_id == self.num_shards - 1 else self.cuts[shard_id]
        return ShardRange(shard_id, lo, hi)

    def ranges(self) -> List[ShardRange]:
        """Every shard's slice, in shard-id order."""
        return [self.range_of(shard_id) for shard_id in range(self.num_shards)]

    # -- wire round trip ------------------------------------------------

    def to_wire(self) -> dict:
        """The description shipped in the ``hello`` handshake.

        The cuts and the envelope are keys, and the wire codec carries
        them with their types intact.
        """
        return {"cuts": self.cuts, "lo": self.lo, "hi": self.hi}

    @classmethod
    def from_wire(cls, payload: dict) -> "ShardMap":
        """Rebuild a map the server described over the wire."""
        return cls(payload["cuts"], lo=payload.get("lo"), hi=payload.get("hi"))

    def key_ranges(self, shard_ids: Sequence[int]) -> Tuple[Tuple[Any, Any], ...]:
        """``(lo, hi)`` tuples for ``shard_ids`` (for error payloads)."""
        return tuple(
            (self.range_of(shard_id).lo, self.range_of(shard_id).hi)
            for shard_id in shard_ids
        )
