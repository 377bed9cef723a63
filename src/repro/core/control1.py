"""CONTROL 1: the amortized baseline algorithm of Section 3.

After the shared step 1 (insert/delete plus counter updates), CONTROL 1
checks whether any calibrator node now violates ``BALANCE(d, D)``
(``p(v) > g(v, 1)``).  If so, it takes the *highest* violating node
``v`` and redistributes all records under ``v``'s father evenly, at a
cost of ``O(M_{f_v})`` page accesses.  Itai, Konheim and Rodeh showed
the amortized cost of this style of rebalance is
``O(log^2 M / (D - d))``; its worst case, however, is ``O(M)`` — the
spike CONTROL 2 exists to remove, and the contrast our worst-case
benchmark (EXP-W1) measures.
"""

from __future__ import annotations

from typing import Optional

from .engine import BaseEngine


class Control1Engine(BaseEngine):
    """The paper's amortized algorithm, CONTROL 1."""

    algorithm_name = "CONTROL 1"

    #: Number of step-B rebalances performed (diagnostics).
    rebalances = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rebalances = 0
        self.largest_rebalance = 0

    def _highest_violator(self, page: int) -> Optional[int]:
        """The least-depth node on the page's path with ``p(v) > g(v, 1)``.

        Only nodes on the affected leaf-to-root path can have changed, so
        only they can newly violate.  ``path_from_leaf`` is leaf-first;
        we scan it root-first and return the first violation.
        """
        tree = self.calibrator
        for node in reversed(tree.path_from_leaf(page)):
            if self.params.density_exceeds(
                tree.count[node], tree.pages_in(node), tree.depth[node], 3
            ):
                return node
        return None

    def _rebalance(self, violator: int) -> None:
        tree = self.calibrator
        father = tree.parent[violator]
        if father < 0:
            # p(root) > g(root, 1) = d means the cardinality cap was
            # breached, which BaseEngine.insert prevents up front.
            raise AssertionError("root violation implies size > d*M")
        lo_page, hi_page = tree.lo[father], tree.hi[father]
        # Redistribution only touches [lo_page, hi_page], so the moved-
        # record diff needs just that slice, not all M occupancies.
        span_pages = range(lo_page, hi_page + 1)
        before = [self.pagefile.page_len(p) for p in span_pages]
        span = self.pagefile.redistribute(lo_page, hi_page)
        after = [self.pagefile.page_len(p) for p in span_pages]
        moved = sum(
            abs(after[index] - before[index]) for index in range(len(after))
        ) // 2
        self.records_moved_total += moved
        # The records stayed inside RANGE(father): only its subtree's
        # counters change.
        tree.recount(father, after)
        self.rebalances += 1
        self.largest_rebalance = max(self.largest_rebalance, span)

    def _apply_insert(self, page: int) -> None:
        self.calibrator.add(page, 1)
        violator = self._highest_violator(page)
        if violator is not None:
            self._rebalance(violator)

    def _apply_delete(self, page: int) -> None:
        self.calibrator.add(page, -1)
        # Deletions only lower densities; BALANCE(d, D) has no lower
        # bound, so there is nothing to repair.
