"""Density parameters and the exact-arithmetic ``g(v, r)`` thresholds.

Section 3 of the paper defines, for a calibrator node ``v`` at depth
``Depth(v)`` (the root has depth 0) and a real ``r``::

    g(v, r) = d + (Depth(v) + r - 1) / ceil(log2 M) * (D - d)
    p(v)    = N_v / M_v

and the file is ``BALANCE(d, D)`` when every node has ``p(v) <= g(v, 1)``.
CONTROL 2 only ever compares ``p(v)`` against ``g(v, r)`` for
``r in {0, 1/3, 2/3, 1}``.  Writing ``r = j/3`` with integer
``j in {0, 1, 2, 3}`` and ``L = ceil(log2 M)``, the comparison
``p(v) >= g(v, j/3)`` is equivalent to the all-integer test::

    3 * L * N_v  >=  (3 * L * d + (3 * Depth(v) + j - 3) * (D - d)) * M_v

:class:`DensityParams` exposes exactly these integer predicates, so the
control path contains no floating point at all.  That is what makes the
Figure 4 trace reproduction bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigurationError

#: Safety coefficient for the default ``J``.  The paper proves that
#: ``J = 90 * ceil(log^2 M) / (D - d)`` is adequate and remarks that a
#: sharper proof reduces the constant by at least one order of magnitude
#: ("typically J should be about 18"); benchmarks/test_j_sensitivity.py
#: measures where the practical threshold falls.
DEFAULT_J_COEFFICIENT = 9


def ceil_log2(m: int) -> int:
    """Return ``ceil(log2 m)`` for ``m >= 1`` (0 for ``m == 1``)."""
    if m < 1:
        raise ConfigurationError("m must be >= 1")
    return max(0, (m - 1).bit_length())


def recommended_j(num_pages: int, slack: int, coefficient: int = DEFAULT_J_COEFFICIENT) -> int:
    """The default shift budget ``J ~ coefficient * log^2 M / (D - d)``."""
    log_m = max(1, ceil_log2(num_pages))
    return max(1, math.ceil(coefficient * log_m * log_m / slack))


@dataclass(frozen=True)
class DensityParams:
    """Immutable ``(d, D)``-density configuration for an ``M``-page file.

    Every predicate sees a node only as its shape ``(depth, pages)``, so
    CONTROL 2 evaluates each threshold once per shape, not per node.

    Parameters
    ----------
    num_pages:
        ``M``, the number of consecutive pages.
    d:
        Average-density bound: the file may hold at most ``N = d * M``
        records.
    D:
        Hard per-page record capacity.
    j:
        CONTROL 2's per-command shift budget.  ``None`` selects
        :func:`recommended_j`.
    j_coefficient:
        Coefficient used when ``j`` is ``None``.
    """

    num_pages: int
    d: int
    D: int
    j: Optional[int] = None
    j_coefficient: int = DEFAULT_J_COEFFICIENT
    log_m: int = field(init=False)

    def __post_init__(self):
        if self.num_pages < 2:
            raise ConfigurationError("num_pages (M) must be at least 2")
        if self.d < 1:
            raise ConfigurationError("d must be at least 1")
        if self.D <= self.d:
            raise ConfigurationError("D must exceed d")
        if self.j is not None and self.j < 1:
            raise ConfigurationError("J must be at least 1")
        object.__setattr__(self, "log_m", ceil_log2(self.num_pages))

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    @property
    def slack(self) -> int:
        """``D - d``, the density slack that pays for maintenance."""
        return self.D - self.d

    @property
    def max_records(self) -> int:
        """``N = d * M``, the cardinality cap of Theorem 5.5."""
        return self.d * self.num_pages

    @property
    def shift_budget(self) -> int:
        """The effective ``J`` (explicit or recommended)."""
        if self.j is not None:
            return self.j
        return recommended_j(self.num_pages, self.slack, self.j_coefficient)

    @property
    def worst_case_bound(self) -> int:
        """``3·J + 2·⌈log₂M⌉ + 4``: most accesses of one CONTROL 2 command.

        The concrete ceiling behind Theorem 5.5, which bounds every
        CONTROL 2 command by O(log²M/(D−d)) page accesses: at most
        ``J`` SHIFTs of at most three accesses each, plus an
        ``O(log M)`` allowance for the update search and the command's
        own page changes.  The tests and EXPs that check the theorem
        assert ``worst_case_accesses <= worst_case_bound``.
        """
        return 3 * self.shift_budget + 2 * self.log_m + 4

    @property
    def satisfies_slack_condition(self) -> bool:
        """Whether ``D - d > 3 * ceil(log2 M)`` (equation 5.1) holds."""
        return self.slack > 3 * self.log_m

    @property
    def macro_block_factor(self) -> int:
        """Least ``K`` with ``K * (D - d) > 3 * ceil(log2 M)`` (eq. 5.3)."""
        return (3 * self.log_m) // self.slack + 1

    # ------------------------------------------------------------------
    # exact threshold predicates: r = thirds / 3
    # ------------------------------------------------------------------

    def _coefficient(self, depth: int, thirds: int) -> int:
        """``3 L g(v, thirds/3)`` as an exact integer, times nothing else.

        Returns ``3*L*d + (3*depth + thirds - 3) * (D - d)``, so that
        ``p(v) >= g(v, thirds/3)`` iff ``3*L*N_v >= coefficient * M_v``.
        """
        return 3 * self.log_m * self.d + (3 * depth + thirds - 3) * self.slack

    def density_at_least(self, count: int, pages: int, depth: int, thirds: int) -> bool:
        """Exact test of ``p(v) >= g(v, thirds/3)``."""
        return 3 * self.log_m * count >= self._coefficient(depth, thirds) * pages

    def density_at_most(self, count: int, pages: int, depth: int, thirds: int) -> bool:
        """Exact test of ``p(v) <= g(v, thirds/3)``."""
        return 3 * self.log_m * count <= self._coefficient(depth, thirds) * pages

    def density_exceeds(self, count: int, pages: int, depth: int, thirds: int) -> bool:
        """Exact test of ``p(v) > g(v, thirds/3)`` (BALANCE violation at thirds=3)."""
        return 3 * self.log_m * count > self._coefficient(depth, thirds) * pages

    def balance_ceiling(self, pages: int, depth: int) -> int:
        """``⌊g(v, 1) · M_v⌋``: the most records BALANCE lets a node hold.

        ``N_v <= balance_ceiling`` iff ``p(v) <= g(v, 1)``; computed
        from the integer coefficient, never from a float.
        """
        return self._coefficient(depth, 3) * pages // (3 * self.log_m)

    def threshold_count(self, pages: int, depth: int, thirds: int) -> int:
        """Smallest integer ``N`` with ``N / pages >= g(depth, thirds/3)``.

        At ``thirds=0`` this is SHIFT's guard capacity: how many records
        a node holds when ``p(x) >= g(x, 0)`` first becomes true.  Never
        negative.
        """
        numerator = self._coefficient(depth, thirds) * pages
        denominator = 3 * self.log_m
        return max(0, -(-numerator // denominator))

    def g_value(self, depth: int, thirds: int) -> float:
        """``g`` as a float, for reporting only (never for control flow)."""
        return self.d + (depth + thirds / 3.0 - 1.0) * self.slack / self.log_m

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DensityParams(M={self.num_pages}, d={self.d}, D={self.D}, "
            f"J={self.shift_budget}, logM={self.log_m})"
        )
