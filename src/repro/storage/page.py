"""An in-memory page: a key-sorted slice of a sequential file.

A page keeps two parallel *columns* — one plain list of keys and one of
values — and materializes :class:`~repro.records.Record` objects only
when a caller actually asks for them (scans, deletes returning the
victim, snapshots).  Every mutation is a ``bisect`` plus C-level list
surgery with no per-record object allocation, and batch moves between
two pages (``take_*_into``) are single slice operations.  Queries that
look inside a page (a rank, a successor) bisect the key column and
build records only for the slice they return, in one C-level pass.  Any
mutually comparable key type works — heterogeneous keys (Fractions,
tuples) live in the columns just fine.

A page read by a scan keeps its records as a third slot: an immutable
tuple that :meth:`Page.rows` builds once and every column mutation
drops.  A stream retrieval reads each page many times between two
updates of it, so the rows are built once per mutation instead of once
per read.  Only scans fill the slot; :meth:`Page.records` copies it when
present and otherwise builds a fresh list without keeping it, so a file
iterated once (a snapshot, a final check) holds no second copy of its
records.

The capacity ``D`` of the paper is enforced *softly*: the structures above
may let a page transiently exceed ``D`` records within a command, because
the paper's guarantee (``BALANCE(d, D)``) only binds at the end of each
insertion/deletion command.  The invariant checkers assert the hard bound
at those points.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from ..core.errors import DuplicateKeyError, RecordNotFoundError, UsageError
from ..records import Record

#: Typed ``Any``: called as ``_tuple_new(Record, (key, value))`` it
#: returns a ``Record``, which the checker cannot infer through ``map``.
_tuple_new: Any = tuple.__new__


def _records(keys: Iterable[Any], values: Iterable[Any]) -> Iterator[Record]:
    """Records over two parallel columns, built at C level.

    ``tuple.__new__(Record, (key, value))`` makes the same instance as
    ``Record(key, value)`` without the named tuple's Python-level
    ``__new__``, which costs more than the tuple itself.
    """
    return map(_tuple_new, repeat(Record), zip(keys, values))


class Page:
    """A sorted, soft-capacity container of records, stored as columns."""

    __slots__ = ("_keys", "_values", "_rows")

    def __init__(self, records: Optional[Iterable[Record]] = None):
        self._keys: List[Any] = []
        self._values: List[Any] = []
        #: The records as built by :meth:`rows`; ``None`` once a
        #: mutation changed the columns.
        self._rows: Optional[Tuple[Record, ...]] = None
        if records:
            for record in records:
                self.insert(record)

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Record]:
        return _records(self._keys, self._values)

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

    def rows(self) -> Tuple[Record, ...]:
        """The records in key order, kept until the next mutation.

        The scans' read: the first call after a mutation builds the
        tuple from the columns and stores it, later calls return the
        same tuple.  Two readers that build it at once (the memory
        stacks admit readers together) store equal tuples, so the one
        attribute store needs no lock of its own: the columns change
        only under the writer's exclusive lock.
        """
        rows = self._rows
        if rows is None:
            rows = self._rows = tuple(_records(self._keys, self._values))
        return rows

    def records(self) -> List[Record]:
        """The records in key order (a fresh list).

        Copies the rows a scan has cached; otherwise builds the list
        from the columns and leaves the cache empty.
        """
        rows = self._rows
        if rows is not None:
            return list(rows)
        return list(_records(self._keys, self._values))

    def rank(self, key: Any) -> int:
        """Number of records on the page with key strictly below ``key``."""
        return bisect_left(self._keys, key)

    def count_between(self, lo_key: Any, hi_key: Any) -> int:
        """Number of records with ``lo_key <= key <= hi_key``."""
        keys = self._keys
        return max(0, bisect_right(keys, hi_key) - bisect_left(keys, lo_key))

    def record_at(self, index: int) -> Record:
        """The record at position ``index`` (negative counts from the top)."""
        return Record(self._keys[index], self._values[index])

    def successor(self, key: Any) -> Optional[Record]:
        """Smallest record with key strictly above ``key``, or ``None``."""
        index = bisect_right(self._keys, key)
        if index < len(self._keys):
            return self.record_at(index)
        return None

    def predecessor(self, key: Any) -> Optional[Record]:
        """Largest record with key strictly below ``key``, or ``None``."""
        index = bisect_left(self._keys, key)
        if index:
            return self.record_at(index - 1)
        return None

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
        self._rows = None
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
        self._rows = None
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
        self._rows = None
        values[index] = record.value
        return old

    def extend_high(self, records: List[Record]) -> None:
        """Append records whose keys all follow the page's current keys."""
        if not records:
            return
        if self._keys and records[0].key <= self._keys[-1]:
            raise UsageError("extend_high would break key order")
        self._rows = None
        self._keys.extend(record.key for record in records)
        self._values.extend(record.value for record in records)

    def clear(self) -> List[Record]:
        """Remove and return every record on the page."""
        taken = self.records()
        self._rows = None
        self._keys = []
        self._values = []
        return taken

    # -- page-to-page batch moves (SHIFT) -------------------------------

    def take_lowest_into(self, dest: "Page", count: int) -> int:
        """Move the ``count`` lowest records onto the top of ``dest``.

        The records keep their order above ``dest``'s keys (the same
        check as :meth:`extend_high`), through two C-level slice moves
        and no :class:`Record` materialization.  Returns the number of
        records moved.
        """
        count = min(count, len(self._keys))
        if count == 0:
            return 0
        keys = self._keys[:count]
        if dest._keys and keys[0] <= dest._keys[-1]:
            raise UsageError("take_lowest_into would break key order")
        self._rows = dest._rows = None
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
            raise UsageError("take_highest_into would break key order")
        self._rows = dest._rows = None
        dest._keys[:0] = keys
        dest._values[:0] = self._values[-count:]
        del self._keys[-count:]
        del self._values[-count:]
        return count
