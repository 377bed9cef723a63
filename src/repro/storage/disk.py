"""A simulated auxiliary-memory device addressed in whole pages.

This is the substrate under every file structure in the repository: the
dense sequential file, the B-tree, the overflow file and the PMA all
charge their page touches to a :class:`SimulatedDisk`.  The disk knows
nothing about records; it only meters accesses through a
:class:`~repro.storage.cost.CostModel`, tracks the simulated arm
position, and optionally records an access trace.
"""

from __future__ import annotations

from typing import Optional

from ..core.errors import ConfigurationError
from .cost import AccessStats, CostModel, PAGE_ACCESS_MODEL
from .tracing import READ, WRITE, AccessTrace


class SimulatedDisk:
    """Page-granular access meter with a movable arm.

    Parameters
    ----------
    num_pages:
        Size of the address space; page numbers run from 1 to
        ``num_pages`` inclusive (the paper numbers pages from 1).
        Structures that allocate pages dynamically (the B-tree) may pass
        ``num_pages=0`` and grow the device with :meth:`extend`.
    model:
        The :class:`CostModel` used to price each access.
    trace:
        Optional :class:`AccessTrace`; a disabled trace is created when
        omitted.
    """

    def __init__(
        self,
        num_pages: int,
        model: CostModel = PAGE_ACCESS_MODEL,
        trace: Optional[AccessTrace] = None,
    ):
        if num_pages < 0:
            raise ConfigurationError("num_pages must be non-negative")
        self.num_pages = num_pages
        self.model = model
        self.stats = AccessStats()
        self.trace = trace if trace is not None else AccessTrace()
        self._arm = -1  # -1 = arm parked / position unknown
        # CostModel is frozen; flatten its fields onto the instance so
        # the per-access accounting below costs one attribute hop each.
        self._transfer_cost = model.transfer_cost
        self._seek_base = model.seek_base
        self._seek_per_page = model.seek_per_page
        self._seek_max = model.seek_max
        self._window = model.contiguous_window

    @property
    def arm_position(self) -> int:
        """Page currently under the simulated head (-1 if parked)."""
        return self._arm

    def park(self) -> None:
        """Forget the arm position (next access pays a full base seek)."""
        self._arm = -1

    def extend(self, extra_pages: int) -> int:
        """Grow the address space; return the first newly valid page."""
        if extra_pages <= 0:
            raise ConfigurationError("extra_pages must be positive")
        first_new = self.num_pages + 1
        self.num_pages += extra_pages
        return first_new

    def _check(self, page: int) -> None:
        if not 1 <= page <= self.num_pages:
            raise IndexError(
                f"page {page} out of range [1, {self.num_pages}]"
            )

    def read(self, page: int) -> None:
        """Charge one read of ``page``."""
        if not 1 <= page <= self.num_pages:
            self._check(page)
        stats = self.stats
        stats.reads += 1
        # The cost model's math, inlined: read/write sit on the hot path
        # of every logical page touch, so it is folded in here (the
        # meters match ``model.access_cost`` byte for byte).
        arm = self._arm
        if arm < 0:
            stats.cost += self._transfer_cost + self._seek_base
            stats.seeks += 1
        else:
            distance = page - arm
            if distance < 0:
                distance = -distance
            if distance <= self._window:
                stats.cost += self._transfer_cost
            else:
                seek = self._seek_base + self._seek_per_page * distance
                seek_max = self._seek_max
                if seek_max > 0 and seek > seek_max:
                    seek = seek_max
                stats.cost += self._transfer_cost + seek
                stats.seeks += 1
        if self.trace.enabled:
            self.trace.record(READ, page)
        self._arm = page

    def read2(self, page: int) -> None:
        """Charge two consecutive reads of ``page`` in one call.

        The exact pattern of every one-page update command (the step-1
        verification read followed by the mutation read).  After the
        first access the arm sits on ``page``, so the second read is a
        pure transfer; every meter and trace entry matches two separate
        :meth:`read` calls bit for bit.
        """
        if not 1 <= page <= self.num_pages:
            self._check(page)
        stats = self.stats
        stats.reads += 2
        arm = self._arm
        if arm < 0:
            stats.cost += self._transfer_cost + self._seek_base
            stats.seeks += 1
        else:
            distance = page - arm
            if distance < 0:
                distance = -distance
            if distance <= self._window:
                stats.cost += self._transfer_cost
            else:
                seek = self._seek_base + self._seek_per_page * distance
                seek_max = self._seek_max
                if seek_max > 0 and seek > seek_max:
                    seek = seek_max
                stats.cost += self._transfer_cost + seek
                stats.seeks += 1
        stats.cost += self._transfer_cost  # second read: distance 0
        trace = self.trace
        if trace.enabled:
            trace.record(READ, page)
            trace.record(READ, page)
        self._arm = page

    def move_charge(self, source: int, dest: int) -> None:
        """Charge ``read(source); write(dest); write(source)`` in one call.

        The exact access pattern of a one-hop record move (SHIFT's
        workhorse): read the source, write the moved records into the
        destination, write the shrunk source back.  The two writes sit
        at the same distance ``|dest - source|``, so their seek cost is
        computed once and applied twice; every meter, seek count and
        trace entry matches the three separate calls bit for bit, and
        the arm ends on ``source`` exactly as the unfused sequence
        leaves it.
        """
        if not 1 <= source <= self.num_pages:
            self._check(source)
        if not 1 <= dest <= self.num_pages:
            self._check(dest)
        stats = self.stats
        stats.reads += 1
        stats.writes += 2
        arm = self._arm
        if arm < 0:
            stats.cost += self._transfer_cost + self._seek_base
            stats.seeks += 1
        else:
            distance = source - arm
            if distance < 0:
                distance = -distance
            if distance <= self._window:
                stats.cost += self._transfer_cost
            else:
                seek = self._seek_base + self._seek_per_page * distance
                seek_max = self._seek_max
                if seek_max > 0 and seek > seek_max:
                    seek = seek_max
                stats.cost += self._transfer_cost + seek
                stats.seeks += 1
        distance = dest - source
        if distance < 0:
            distance = -distance
        if distance <= self._window:
            stats.cost += 2 * self._transfer_cost
        else:
            seek = self._seek_base + self._seek_per_page * distance
            seek_max = self._seek_max
            if seek_max > 0 and seek > seek_max:
                seek = seek_max
            stats.cost += 2 * (self._transfer_cost + seek)
            stats.seeks += 2
        trace = self.trace
        if trace.enabled:
            trace.record(READ, source)
            trace.record(WRITE, dest)
            trace.record(WRITE, source)
        self._arm = source

    def write(self, page: int) -> None:
        """Charge one write of ``page``."""
        if not 1 <= page <= self.num_pages:
            self._check(page)
        stats = self.stats
        stats.writes += 1
        # Same inlined accounting as read; see the comment there.
        arm = self._arm
        if arm < 0:
            stats.cost += self._transfer_cost + self._seek_base
            stats.seeks += 1
        else:
            distance = page - arm
            if distance < 0:
                distance = -distance
            if distance <= self._window:
                stats.cost += self._transfer_cost
            else:
                seek = self._seek_base + self._seek_per_page * distance
                seek_max = self._seek_max
                if seek_max > 0 and seek > seek_max:
                    seek = seek_max
                stats.cost += self._transfer_cost + seek
                stats.seeks += 1
        if self.trace.enabled:
            self.trace.record(WRITE, page)
        self._arm = page

    def reset_stats(self) -> None:
        """Zero the meters without moving the arm."""
        self.stats.reset()
        self.trace.clear()
