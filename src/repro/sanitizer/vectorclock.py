"""Vector clocks: the partial order behind happens-before reasoning.

A :class:`VectorClock` maps thread indices to event counters.  Clock
``a`` *dominates* clock ``b`` when every component of ``a`` is at least
the matching component of ``b`` — meaning everything ``b`` had observed
when it was taken had already been observed at ``a``.  The sanitizer
threads these clocks through lock release/acquire pairs: a release
publishes the releasing thread's clock into the lock, an acquire joins
the lock's clock into the acquirer, so any two accesses bracketed by
the same lock become ordered even when the lockset heuristic cannot
name the protecting lock.

Individual accesses are summarized FastTrack-style as *epochs* — a
``(thread_index, counter)`` pair — which :meth:`VectorClock.observed`
checks against a later thread's clock in O(1) instead of comparing
whole clocks.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: One access, compressed: (thread index, that thread's counter).
Epoch = Tuple[int, int]


class VectorClock:
    """A thread-index → counter map with join/tick/dominate operations."""

    __slots__ = ("_counts",)

    def __init__(self, counts: Optional[Dict[int, int]] = None):
        self._counts: Dict[int, int] = dict(counts) if counts else {}

    def copy(self) -> "VectorClock":
        """An independent snapshot of this clock."""
        return VectorClock(self._counts)

    def get(self, thread_index: int) -> int:
        """The counter for ``thread_index`` (0 when never observed)."""
        return self._counts.get(thread_index, 0)

    def tick(self, thread_index: int) -> None:
        """Advance ``thread_index``'s own component by one event."""
        self._counts[thread_index] = self._counts.get(thread_index, 0) + 1

    def join(self, other: "VectorClock") -> None:
        """Pointwise maximum: absorb everything ``other`` has observed."""
        counts = self._counts
        for index, count in other._counts.items():
            if count > counts.get(index, 0):
                counts[index] = count

    def epoch(self, thread_index: int) -> Epoch:
        """This clock's current epoch for ``thread_index``."""
        return (thread_index, self.get(thread_index))

    def observed(self, epoch: Epoch, thread_index: int) -> bool:
        """Whether ``epoch`` happens-before the owner of this clock.

        True when the epoch belongs to ``thread_index`` itself (program
        order) or when this clock has absorbed the epoch's counter via
        some chain of release/acquire joins.
        """
        owner, count = epoch
        return owner == thread_index or self.get(owner) >= count

    def dominates(self, other: "VectorClock") -> bool:
        """Whether every component of ``self`` >= the one in ``other``."""
        return all(
            self.get(index) >= count
            for index, count in other._counts.items()
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"T{index}:{count}"
            for index, count in sorted(self._counts.items())
        )
        return f"VectorClock({{{inner}}})"
