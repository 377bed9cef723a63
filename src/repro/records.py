"""The record model shared by every file structure in this package.

The paper manipulates records identified by a totally ordered key,
``KEY(R)``, stored at a page address ``ADD(R)``.  We model a record as an
immutable ``(key, value)`` pair; keys must be mutually comparable (ints,
floats, strings, tuples, ...) and unique within a file.
"""

from __future__ import annotations

from itertools import compress, islice
from operator import eq, itemgetter
from typing import Any, Iterable, List, NamedTuple

from .core.errors import DuplicateKeyError


class Record(NamedTuple):
    """An immutable keyed record.

    Attributes
    ----------
    key:
        The ordering key, ``KEY(R)`` in the paper.  Any totally ordered
        Python value works as long as all keys in one file are mutually
        comparable.
    value:
        Opaque payload carried along with the key.  ``None`` by default
        so key-only workloads stay cheap.
    """

    key: Any
    value: Any = None


#: Typed ``Any``: called as ``_tuple_new(Record, (key, value))`` it
#: returns a ``Record``, which the checker cannot infer through ``map``.
_tuple_new: Any = tuple.__new__


def ensure_record(item: Any) -> Record:
    """Coerce ``item`` into a :class:`Record`.

    Accepts an existing :class:`Record`, a ``(key, value)`` pair, or a
    bare key (which becomes ``Record(key, None)``).
    """
    if isinstance(item, Record):
        return item
    if isinstance(item, tuple) and len(item) == 2:
        return _tuple_new(Record, item)  # Record(*item), built at C level
    return Record(item)


def sorted_records(items: Iterable[Any]) -> List[Record]:
    """``items`` coerced by :func:`ensure_record`, in ascending key order."""
    return sorted(map(ensure_record, items), key=itemgetter(0))


def unique_sorted_records(items: Iterable[Any]) -> List[Record]:
    """:func:`sorted_records`, refusing a repeated key.

    Raises :class:`~repro.core.errors.DuplicateKeyError` naming the first
    repeated key; every ``bulk_load`` checks its input here before it
    touches the file, so a refused load leaves the file empty.
    """
    records = sorted_records(items)
    keys = list(map(itemgetter(0), records))
    # Sorted, so a repeated key sits next to its twin.
    for key in compress(keys, map(eq, keys, islice(keys, 1, None))):
        raise DuplicateKeyError(key)
    return records
