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

Each registration carries a merge rule, for when one name is read more
than once: two breakers of one client, or the shards of a cluster
merged into one view.  Counters are summed (:data:`SUM`, the default);
a gauge registers with the rule its meaning needs — the engine's
``balance_headroom`` takes the least reading (:data:`MIN`), the
tightest shard, and a peak (a lock's ``max_queue_depth``) the greatest
(:data:`MAX`).  An instantaneous gauge (a lock's ``active_readers``)
registers with :data:`LOCAL`: its own stack's snapshot reports it, and
a merged view leaves it out, since no sum, least or greatest of two
stacks' current readings means anything (and a shard read for the view
would count the read itself).

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

import operator
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]
#: How two readings of one name combine.
Merge = Callable[[Number, Number], Number]
#: The counters' rule: readings add up.
SUM: Merge = operator.add


def _least(first: Number, second: Number) -> Number:
    """A headroom gauge's rule: the least reading stands for all."""
    return first if first <= second else second


MIN: Merge = _least


def _greatest(first: Number, second: Number) -> Number:
    """A peak's rule: the greatest reading stands for all."""
    return first if first >= second else second


MAX: Merge = _greatest
#: An instantaneous gauge's rule: reported by its own stack's snapshot,
#: left out when merged into another's.
LOCAL: Optional[Merge] = None


def view(source: object, names: Sequence[str]) -> Dict[str, Number]:
    """``{name: source.name}`` for each declared counter, in order."""
    return {name: getattr(source, name) for name in names}


class Metrics:
    """The declared counters of one stack, read only on :meth:`snapshot`."""

    def __init__(self) -> None:
        self._entries: List[
            Tuple[str, object, Tuple[str, ...], Optional[Merge]]
        ] = []

    def register(
        self,
        layer: str,
        source: object,
        names: Sequence[str],
        merge: Optional[Merge] = SUM,
    ) -> None:
        """Report ``source``'s attributes ``names`` under ``layer``.

        A name read more than once (one breaker per shard, a layer of
        every shard) reports ``merge`` over its readings: their sum by
        default.  With :data:`LOCAL` the names are left out of a
        snapshot merged ``into`` another.
        """
        self._entries.append((layer, source, tuple(names), merge))

    def snapshot(
        self, into: Optional[Dict[str, Number]] = None
    ) -> Dict[str, Number]:
        """Every registered counter as one flat ``{"layer.name": n}`` dict.

        With ``into``, the readings are merged into that snapshot (of
        another stack, say) by this registry's rules, and it is
        returned; :data:`LOCAL` gauges are left out of it.
        """
        flat: Dict[str, Number] = {} if into is None else into
        for layer, source, names, merge in self._entries:
            if merge is None:
                if into is not None:
                    continue
                merge = SUM
            for name in names:
                key = f"{layer}.{name}"
                value = getattr(source, name)
                flat[key] = merge(flat[key], value) if key in flat else value
        return flat
