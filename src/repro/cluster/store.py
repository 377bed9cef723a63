"""The range-sharded store: N dense files behind one routing facade.

:class:`ShardedDenseFile` splits the keyspace across N shards — each a
:class:`~repro.concurrent.file.ThreadSafeDenseFile` over its own store
— and routes every operation by the shared
:class:`~repro.cluster.sharding.ShardMap`.  Point operations touch
exactly one shard; stream scans fan out across the intersecting shards
in key order and merge (shards own disjoint sorted ranges, so the merge
is a concatenation).

**Partial-failure degradation** is the design center.  Each shard has a
health state (``up`` / ``degraded`` / ``down``), tracked explicitly and
updated by the failure paths:

* a ``down`` shard serves nothing: point operations fail *immediately*
  with :class:`~repro.core.errors.ShardUnavailableError` naming the
  affected key range — no queueing, no hanging;
* a ``degraded`` shard (read-only, e.g. opened with
  ``on_corruption="degrade"``) serves reads but rejects writes the
  same way (``mode="degraded"``);
* every *other* shard keeps serving reads and writes — one failed
  shard never takes the cluster down;
* stream scans that cross a ``down`` shard do not block and do not
  pretend: they return a :class:`ScanResult` with ``partial=True`` and
  the exact unavailable key ranges, so the caller knows which slice of
  the answer is missing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..concurrent.deadline import Deadline
from ..concurrent.file import ThreadSafeDenseFile
from ..core.dense_file import DenseSequentialFile
from ..core.errors import (
    ConfigurationError,
    ReadOnlyError,
    ShardUnavailableError,
)
from ..core.params import ceil_log2
from ..obs import Number
from ..records import Record
from ..storage.backend import MemoryStore, PageStore
from .sharding import ShardMap

#: Health states a shard can be in.
UP, DEGRADED, DOWN = "up", "degraded", "down"


@dataclass(frozen=True)
class ScanResult:
    """A stream-scan answer that is honest about holes.

    ``records`` is everything the available shards returned, in key
    order.  When a ``down`` shard intersected the request, ``partial``
    is ``True`` and ``unavailable`` lists its ``(lo, hi)`` key ranges —
    an explicit marker, never a silent gap.
    """

    records: Tuple[Record, ...]
    partial: bool = False
    unavailable: Tuple[Tuple[Any, Any], ...] = ()

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def complete(self) -> bool:
        """Whether every intersecting shard answered."""
        return not self.partial


@dataclass
class ShardHealth:
    """One shard's health record (state + transition counters)."""

    shard_id: int
    state: str = UP
    downs: int = 0
    degrades: int = 0
    revives: int = 0
    rejected_writes: int = 0
    rejected_reads: int = 0

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready health record for ``health`` RPCs and reports."""
        return {
            "shard_id": self.shard_id,
            "state": self.state,
            "downs": self.downs,
            "degrades": self.degrades,
            "revives": self.revives,
            "rejected_writes": self.rejected_writes,
            "rejected_reads": self.rejected_reads,
        }


def _shard_geometry(capacity_hint: int) -> Tuple[int, int, int]:
    """An (M, d, D) per shard that holds ``capacity_hint`` keys with slack."""
    d = 8
    num_pages = max(16, -(-capacity_hint // d) * 2)
    D = d + 3 * ceil_log2(num_pages) + 4
    return num_pages, d, D


class ShardedDenseFile:
    """Route one logical dense file across N range shards.

    Parameters
    ----------
    shards:
        One :class:`~repro.concurrent.file.ThreadSafeDenseFile` (or any
        object with its query/update surface) per shard, indexed by
        shard id.
    shard_map:
        The routing table; must have exactly ``len(shards)`` ranges.
    default_timeout:
        Budget applied to operations that pass neither ``timeout=`` nor
        ``deadline=`` (``None`` = wait forever).
    """

    def __init__(
        self,
        shards: List[Any],
        shard_map: ShardMap,
        default_timeout: Optional[float] = None,
    ):
        if shard_map.num_shards != len(shards):
            raise ConfigurationError(
                f"{len(shards)} shards but the map routes "
                f"{shard_map.num_shards} ranges"
            )
        self.shards = list(shards)
        self.shard_map = shard_map
        self.default_timeout = default_timeout
        self._mutex = threading.Lock()
        self._health = [ShardHealth(shard_id) for shard_id in range(len(shards))]

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        num_shards: int,
        key_space: int,
        capacity_hint: int = 2048,
        store_factory: Optional[Callable[[int, int], PageStore]] = None,
        default_timeout: Optional[float] = None,
        shed_load: bool = False,
        max_in_flight: Optional[int] = None,
    ) -> "ShardedDenseFile":
        """A memory-backed cluster: N shards over ``range(key_space)``.

        ``store_factory(shard_id, num_pages)`` overrides the backing
        store per shard (the chaos harness injects fault stacks here).
        ``capacity_hint`` sizes each shard for that many live records.
        """
        shard_map = ShardMap.uniform(num_shards, key_space)
        num_pages, d, D = _shard_geometry(capacity_hint)
        shards: List[ThreadSafeDenseFile] = []
        for shard_id in range(num_shards):
            store = (
                store_factory(shard_id, num_pages)
                if store_factory is not None
                else MemoryStore(num_pages)
            )
            dense = DenseSequentialFile(num_pages, d, D, store=store)
            shards.append(
                ThreadSafeDenseFile(
                    dense,
                    default_timeout=default_timeout,
                    shed_load=shed_load,
                    max_in_flight=max_in_flight,
                )
            )
        return cls(shards, shard_map, default_timeout=default_timeout)

    # -- health ---------------------------------------------------------

    def health(self) -> List[Dict[str, object]]:
        """Every shard's health record, in shard-id order."""
        with self._mutex:
            return [record.snapshot() for record in self._health]

    def state_of(self, shard_id: int) -> str:
        """The health state of one shard."""
        with self._mutex:
            return self._health[shard_id].state

    def mark_down(self, shard_id: int) -> None:
        """Take a shard out of service (crash, partition, kill)."""
        with self._mutex:
            record = self._health[shard_id]
            if record.state != DOWN:
                record.state = DOWN
                record.downs += 1

    def mark_degraded(self, shard_id: int) -> None:
        """Degrade a shard to read-only service."""
        with self._mutex:
            record = self._health[shard_id]
            if record.state != DEGRADED:
                record.state = DEGRADED
                record.degrades += 1

    def revive(self, shard_id: int) -> None:
        """Return a shard to full service."""
        with self._mutex:
            record = self._health[shard_id]
            if record.state != UP:
                record.state = UP
                record.revives += 1

    def _refuse(self, shard_id: int, write: bool) -> ShardUnavailableError:
        with self._mutex:
            record = self._health[shard_id]
            if write:
                record.rejected_writes += 1
            else:
                record.rejected_reads += 1
            mode = record.state
        owned = self.shard_map.range_of(shard_id)
        kind = "write" if write else "read"
        return ShardUnavailableError(
            f"{kind} refused: {owned.describe()} is {mode} "
            "(other key ranges are still served)",
            shard_ids=(shard_id,),
            key_ranges=((owned.lo, owned.hi),),
            mode=mode,
        )

    def _check_route(self, shard_id: int, write: bool) -> Any:
        """The shard for an operation, or raise if it cannot serve it."""
        state = self.state_of(shard_id)
        if state == DOWN or (write and state == DEGRADED):
            raise self._refuse(shard_id, write)
        return self.shards[shard_id]

    # -- point operations (exactly one shard) ---------------------------

    def insert(
        self,
        key: Any,
        value: Any = None,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Insert a record on the owning shard (or refuse immediately)."""
        shard_id = self.shard_map.shard_for(key)
        shard = self._check_route(shard_id, write=True)
        try:
            shard.insert(key, value, timeout=timeout, deadline=deadline)
        except ReadOnlyError as error:
            self.mark_degraded(shard_id)
            raise self._refuse(shard_id, write=True) from error

    def delete(
        self,
        key: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Record:
        """Delete and return the record on the owning shard."""
        shard_id = self.shard_map.shard_for(key)
        shard = self._check_route(shard_id, write=True)
        try:
            return shard.delete(key, timeout=timeout, deadline=deadline)
        except ReadOnlyError as error:
            self.mark_degraded(shard_id)
            raise self._refuse(shard_id, write=True) from error

    def search(
        self,
        key: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> Optional[Record]:
        """Point lookup on the owning shard (down shards refuse)."""
        shard_id = self.shard_map.shard_for(key)
        shard = self._check_route(shard_id, write=False)
        return shard.search(key, timeout=timeout, deadline=deadline)

    # -- fan-out operations (one or more shards) ------------------------

    def scan(
        self,
        start_key: Any,
        count: int,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> ScanResult:
        """Up to ``count`` records from ``start_key``, across shards.

        Walks the shards in key order from the owner of ``start_key``;
        a ``down`` shard contributes an unavailable range (and flips
        ``partial``) instead of blocking the whole scan.
        """
        budget = Deadline.resolve(timeout, deadline, self.default_timeout)
        collected: List[Record] = []
        holes: List[Tuple[Any, Any]] = []
        shard_id = self.shard_map.shard_for(start_key)
        while shard_id < self.shard_map.num_shards and len(collected) < count:
            if self.state_of(shard_id) == DOWN:
                owned = self.shard_map.range_of(shard_id)
                holes.append((owned.lo, owned.hi))
                with self._mutex:
                    self._health[shard_id].rejected_reads += 1
            else:
                collected.extend(
                    self.shards[shard_id].scan(
                        start_key, count - len(collected), deadline=budget
                    )
                )
            shard_id += 1
        return ScanResult(
            records=tuple(collected[:count]),
            partial=bool(holes),
            unavailable=tuple(holes),
        )

    def range(
        self,
        lo_key: Any,
        hi_key: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> ScanResult:
        """All records with ``lo_key <= key <= hi_key``, across shards."""
        budget = Deadline.resolve(timeout, deadline, self.default_timeout)
        collected: List[Record] = []
        holes: List[Tuple[Any, Any]] = []
        for shard_id in self.shard_map.shards_for_range(lo_key, hi_key):
            if self.state_of(shard_id) == DOWN:
                owned = self.shard_map.range_of(shard_id)
                holes.append((owned.lo, owned.hi))
                with self._mutex:
                    self._health[shard_id].rejected_reads += 1
            else:
                collected.extend(
                    self.shards[shard_id].range(lo_key, hi_key, deadline=budget)
                )
        return ScanResult(
            records=tuple(collected),
            partial=bool(holes),
            unavailable=tuple(holes),
        )

    def count_range(
        self,
        lo_key: Any,
        hi_key: Any,
        *,
        timeout: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> int:
        """Records in ``[lo_key, hi_key]``; refuses if a shard is down.

        A count has no honest partial answer, so a ``down`` shard in
        the range raises :class:`ShardUnavailableError` immediately.
        """
        budget = Deadline.resolve(timeout, deadline, self.default_timeout)
        shard_ids = self.shard_map.shards_for_range(lo_key, hi_key)
        down = [sid for sid in shard_ids if self.state_of(sid) == DOWN]
        if down:
            raise ShardUnavailableError(
                f"count refused: shards {down} are down",
                shard_ids=tuple(down),
                key_ranges=self.shard_map.key_ranges(down),
                mode=DOWN,
            )
        return sum(
            self.shards[sid].count_range(lo_key, hi_key, deadline=budget)
            for sid in shard_ids
        )

    def __len__(self) -> int:
        """Live records across every shard that is not down."""
        return sum(
            len(self.shards[sid])
            for sid in range(self.shard_map.num_shards)
            if self.state_of(sid) != DOWN
        )

    # -- lifecycle and introspection ------------------------------------

    def store_stats(
        self,
        into: Optional[Dict[str, Number]] = None,
        *,
        deadline: Optional[Deadline] = None,
    ) -> Dict[str, Number]:
        """Every shard's counter snapshot but a down one's, merged by
        each registration's rule (counters summed, the
        ``core.balance_headroom`` gauge the least), into ``into`` when
        given.  Each shard is read under its read lock within one
        budget."""
        budget = Deadline.resolve(None, deadline, self.default_timeout)
        flat: Dict[str, Number] = {} if into is None else into
        for shard_id, shard in enumerate(self.shards):
            if self.state_of(shard_id) != DOWN:
                shard.store_stats(flat, deadline=budget)
        return flat

    def validate(self) -> None:
        """Validate every available shard's structural invariants."""
        for shard_id, shard in enumerate(self.shards):
            if self.state_of(shard_id) != DOWN:
                shard.validate()

    def close(self) -> None:
        """Close every shard (down shards included; close is idempotent)."""
        for shard in self.shards:
            shard.close()


# Re-exported convenience: the unavailable states (tests and the chaos
# harness compare against these instead of string literals).
STATES = (UP, DEGRADED, DOWN)
