"""One counter registry per built stack.

A stack — a dense file, a journaled file, a cluster server or a cluster
client — owns one :class:`Metrics`.  When the stack is built it
registers each of its components once, under the component's layer
name: its module path under ``repro`` (``storage.backend``,
``storage.bufferpool``, ``storage.wal``, ``concurrent.rwlock``,
``cluster.server`` ...), the names ``bench/spans.py`` traces.  Each
class declares its counters once, as a ``COUNTERS`` tuple of attribute
names.  The component's own ``stats()`` is :func:`view` over those
names, and :meth:`Metrics.snapshot` reads the same attributes of every
registered component into one flat ``{"layer.counter": number}`` dict.

Counters stay plain attribute increments on the hot path; nothing here
runs until a snapshot is asked for.  Configuration (a backend's name,
a path, a capacity, a seed) and state words (a breaker's ``state``)
are attributes of their objects, not counters.

There is no module-level registry: two stacks in one process (two
shards, a test's file beside the harness's) never share a counter, and
a stack's registry goes away with the stack.  The registry refers to
its components; no component refers back, so it adds no reference
cycle.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

Number = Union[int, float]


def view(source: object, names: Sequence[str]) -> Dict[str, Number]:
    """``{name: source.name}`` for each declared counter, in order."""
    return {name: getattr(source, name) for name in names}


class Metrics:
    """The declared counters of one stack, read only on :meth:`snapshot`."""

    def __init__(self) -> None:
        self._entries: List[Tuple[str, object, Tuple[str, ...]]] = []

    def register(self, layer: str, source: object, names: Sequence[str]) -> None:
        """Report ``source``'s attributes ``names`` under ``layer``.

        A layer registered more than once (one breaker per shard)
        reports the sum of its components' counters.
        """
        self._entries.append((layer, source, tuple(names)))

    def snapshot(self) -> Dict[str, Number]:
        """Every registered counter as one flat ``{"layer.name": n}`` dict."""
        flat: Dict[str, Number] = {}
        for layer, source, names in self._entries:
            for name in names:
                key = f"{layer}.{name}"
                flat[key] = flat.get(key, 0) + getattr(source, name)
        return flat
