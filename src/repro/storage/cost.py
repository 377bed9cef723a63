"""Cost model and counters for simulated auxiliary-memory accesses.

The paper's complexity results are stated in *page accesses*: every read
or write of one page of auxiliary memory counts one unit.  For the
stream-retrieval comparison against B-trees (Sections 4-5 of the paper)
that flat model is not enough, because the whole argument is that a
sequential file pays far less *disk-arm movement* than a B-tree when
consecutive keys are scanned.  :class:`CostModel` therefore charges

``cost(access) = transfer_cost + seek_cost(distance)``

where ``distance`` is how far the simulated arm must travel from the
previously accessed page.  Accessing the next consecutive page costs only
the transfer; a random probe additionally pays ``seek_base`` plus a term
linear in the distance, capped at ``seek_max``.  Setting
``seek_base = seek_per_page = 0`` recovers the paper's pure
page-access-count model, which is the default used by the maintenance
benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostModel:
    """Parametric access-cost model for a simulated disk.

    Parameters
    ----------
    transfer_cost:
        Cost charged for every page read or written, regardless of arm
        position.  This is the paper's "page access" unit.
    seek_base:
        Fixed cost added whenever the arm must move at all (the page
        accessed is not the page under the head and not adjacent to it).
    seek_per_page:
        Additional cost per page of arm travel distance.
    seek_max:
        Upper bound on the seek component, mimicking a bounded-stroke
        disk arm.  ``0`` means "no cap".
    contiguous_window:
        Accesses within this many pages of the previous access are
        considered part of the same sequential sweep and pay no seek.
        The default of 1 means "the next or previous page is free";
        Willard's remark that CONTROL 2 "accesses consecutive pages in
        one fell swoop" corresponds to this window.
    """

    transfer_cost: float = 1.0
    seek_base: float = 0.0
    seek_per_page: float = 0.0
    seek_max: float = 0.0
    contiguous_window: int = 1

    def seek_cost(self, distance: int) -> float:
        """Return the arm-movement cost of a jump of ``distance`` pages."""
        if distance <= self.contiguous_window:
            return 0.0
        cost = self.seek_base + self.seek_per_page * distance
        if self.seek_max > 0:
            cost = min(cost, self.seek_max)
        return cost

    def access_cost(self, previous_page: int, page: int) -> float:
        """Return the total cost of touching ``page`` after ``previous_page``.

        ``previous_page`` may be ``-1`` to indicate a cold arm, which is
        charged a full base seek (but no distance term).
        """
        if previous_page < 0:
            return self.transfer_cost + self.seek_base
        distance = abs(page - previous_page)
        return self.transfer_cost + self.seek_cost(distance)


#: The paper's cost model: one unit per page access, seeks are free.
PAGE_ACCESS_MODEL = CostModel()

#: A disk-like model used by the stream-retrieval benchmarks.  The exact
#: constants are not from the paper (it reports none); they encode the
#: qualitative regime the paper argues from: a seek costs about an order
#: of magnitude more than a sequential transfer.
DISK_ARM_MODEL = CostModel(
    transfer_cost=1.0,
    seek_base=10.0,
    seek_per_page=0.01,
    seek_max=25.0,
    contiguous_window=1,
)


@dataclass
class AccessStats:
    """Mutable accumulator of access counts and modelled cost.

    One instance is owned by each :class:`~repro.storage.disk.SimulatedDisk`;
    engines expose it through their public ``stats`` attribute.  The
    ``checkpoint``/``delta`` pair lets a caller measure the cost of a
    single operation without resetting global counters.
    """

    reads: int = 0
    writes: int = 0
    seeks: int = 0
    cost: float = 0.0
    _marks: dict = field(default_factory=dict)

    #: The meter's counters in a registry (layer ``storage.disk``).
    COUNTERS = ("reads", "writes", "seeks", "cost")

    @property
    def page_accesses(self) -> int:
        """Total page accesses (reads plus writes) so far."""
        return self.reads + self.writes

    def checkpoint(self, name: str = "default") -> None:
        """Remember the current counters under ``name``."""
        self._marks[name] = (self.reads, self.writes, self.seeks, self.cost)

    def delta(self, name: str = "default") -> "AccessStats":
        """Return a snapshot of counters accumulated since ``checkpoint``."""
        reads, writes, seeks, cost = self._marks.get(name, (0, 0, 0, 0.0))
        return AccessStats(
            reads=self.reads - reads,
            writes=self.writes - writes,
            seeks=self.seeks - seeks,
            cost=self.cost - cost,
        )

    def reset(self) -> None:
        """Zero every counter and forget all checkpoints."""
        self.reads = 0
        self.writes = 0
        self.seeks = 0
        self.cost = 0.0
        self._marks.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AccessStats(reads={self.reads}, writes={self.writes}, "
            f"seeks={self.seeks}, cost={self.cost:.1f})"
        )
