"""An in-memory page: a key-sorted slice of a sequential file.

A page keeps two parallel *columns* — one plain list of keys and one of
values — and materializes :class:`~repro.records.Record` objects only
when a caller actually asks for them (scans, deletes returning the
victim, snapshots).  Every mutation is a ``bisect`` plus C-level list
surgery with no per-record object allocation, and batch moves between
two pages (``take_*_into``) are single slice operations.  Any mutually
comparable key type works — heterogeneous keys (Fractions, tuples) live
in the columns just fine.

The capacity ``D`` of the paper is enforced *softly*: the structures above
may let a page transiently exceed ``D`` records within a command, because
the paper's guarantee (``BALANCE(d, D)``) only binds at the end of each
insertion/deletion command.  The invariant checkers assert the hard bound
at those points.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable, Iterator, List, Optional

from ..core.errors import DuplicateKeyError, RecordNotFoundError, UsageError
from ..records import Record


class Page:
    """A sorted, soft-capacity container of records, stored as columns."""

    __slots__ = ("_keys", "_values")

    def __init__(self, records: Optional[Iterable[Record]] = None):
        self._keys: List[Any] = []
        self._values: List[Any] = []
        if records:
            for record in records:
                self.insert(record)

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Record]:
        return map(Record, self._keys, self._values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Page({len(self._keys)} records)"

    @property
    def is_empty(self) -> bool:
        return not self._keys

    @property
    def min_key(self) -> Any:
        """Smallest key on the page (raises on an empty page)."""
        return self._keys[0]

    @property
    def max_key(self) -> Any:
        """Largest key on the page (raises on an empty page)."""
        return self._keys[-1]

    def records(self) -> List[Record]:
        """Materialize the records in key order (a fresh list)."""
        return list(map(Record, self._keys, self._values))

    def contains(self, key: Any) -> bool:
        """Whether a record with ``key`` is on the page."""
        index = bisect_left(self._keys, key)
        return index < len(self._keys) and self._keys[index] == key

    def get(self, key: Any) -> Optional[Record]:
        """Return the record with ``key`` or ``None``."""
        keys = self._keys
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            return Record(key, self._values[index])
        return None

    def insert(self, record: Record) -> int:
        """Insert ``record`` preserving key order; return its position.

        Raises
        ------
        DuplicateKeyError
            If a record with the same key is already on the page.
        """
        return self.insert_kv(record.key, record.value)

    def insert_kv(self, key: Any, value: Any = None) -> int:
        """Insert a record given as its fields; return its position.

        The hot-path form: no :class:`Record` is built.  The returned
        index lets the page file skip its directory resync when the
        insert did not change the page minimum (index > 0).
        """
        keys = self._keys
        index = bisect_left(keys, key)
        if index < len(keys) and keys[index] == key:
            raise DuplicateKeyError(key)
        keys.insert(index, key)
        self._values.insert(index, value)
        return index

    def remove(self, key: Any) -> Record:
        """Remove and return the record with ``key``.

        Raises
        ------
        RecordNotFoundError
            If no record with ``key`` is on the page.
        """
        keys = self._keys
        index = bisect_left(keys, key)
        if index >= len(keys) or keys[index] != key:
            raise RecordNotFoundError(key)
        del keys[index]
        return Record(key, self._values.pop(index))

    def replace(self, record: Record) -> Record:
        """Swap in ``record`` for the existing record with the same key."""
        keys = self._keys
        index = bisect_left(keys, record.key)
        if index >= len(keys) or keys[index] != record.key:
            raise RecordNotFoundError(record.key)
        values = self._values
        old = Record(keys[index], values[index])
        values[index] = record.value
        return old

    def take_lowest(self, count: int) -> List[Record]:
        """Remove and return the ``count`` lowest-keyed records."""
        count = min(count, len(self._keys))
        taken = list(map(Record, self._keys[:count], self._values[:count]))
        del self._keys[:count]
        del self._values[:count]
        return taken

    def take_highest(self, count: int) -> List[Record]:
        """Remove and return the ``count`` highest-keyed records."""
        count = min(count, len(self._keys))
        if count == 0:
            return []
        taken = list(map(Record, self._keys[-count:], self._values[-count:]))
        del self._keys[-count:]
        del self._values[-count:]
        return taken

    def extend_low(self, records: List[Record]) -> None:
        """Prepend records whose keys all precede the page's current keys."""
        if not records:
            return
        if self._keys and records[-1].key >= self._keys[0]:
            raise UsageError("extend_low would break key order")
        self._keys[:0] = [record.key for record in records]
        self._values[:0] = [record.value for record in records]

    def extend_high(self, records: List[Record]) -> None:
        """Append records whose keys all follow the page's current keys."""
        if not records:
            return
        if self._keys and records[0].key <= self._keys[-1]:
            raise UsageError("extend_high would break key order")
        self._keys.extend(record.key for record in records)
        self._values.extend(record.value for record in records)

    def clear(self) -> List[Record]:
        """Remove and return every record on the page."""
        taken = list(map(Record, self._keys, self._values))
        self._keys = []
        self._values = []
        return taken

    # -- page-to-page batch moves (SHIFT) -------------------------------

    def take_lowest_into(self, dest: "Page", count: int) -> int:
        """Move the ``count`` lowest records onto the top of ``dest``.

        Slice-level equivalent of ``dest.extend_high(self.take_lowest(
        count))`` — same validation, same final state, two C-level slice
        moves and no :class:`Record` materialization.  Returns the
        number of records moved.
        """
        count = min(count, len(self._keys))
        if count == 0:
            return 0
        keys = self._keys[:count]
        if dest._keys and keys[0] <= dest._keys[-1]:
            raise UsageError("extend_high would break key order")
        dest._keys += keys
        dest._values += self._values[:count]
        del self._keys[:count]
        del self._values[:count]
        return count

    def take_highest_into(self, dest: "Page", count: int) -> int:
        """Move the ``count`` highest records under the bottom of ``dest``."""
        count = min(count, len(self._keys))
        if count == 0:
            return 0
        keys = self._keys[-count:]
        if dest._keys and keys[-1] >= dest._keys[0]:
            raise UsageError("extend_low would break key order")
        dest._keys[:0] = keys
        dest._values[:0] = self._values[-count:]
        del self._keys[-count:]
        del self._values[-count:]
        return count
