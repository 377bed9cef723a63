"""The calibrator: a binary tree of page ranges with rank counters.

Section 3 of the paper defines the calibrator as a binary tree whose
root spans pages ``[1, M]``, whose internal nodes split their range at
``floor((A- + A+) / 2)``, and whose leaves span a single page.  Each
node ``v`` stores a rank counter ``N_v`` = number of records whose page
address lies in ``RANGE(v)``.

This implementation stores the tree in parallel arrays indexed by a
dense integer node id (0 is the root).  Besides the counters it
maintains, per node, a *flag* bit (CONTROL 2's ``WARNING`` state) and a
subtree count of flagged nodes, which makes the paper's ``SELECT``
queries ("lowest ancestor with a flagged proper descendant", "deepest
flagged descendant") cheap without scanning the whole tree.

The calibrator lives in core memory; none of its operations charge page
accesses.  That matches the paper, which treats the calibrator walk as
negligible next to the data-page accesses it meters.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import ConfigurationError, UsageError


class CalibratorTree:
    """Binary range tree over pages ``1..M`` with rank counters."""

    def __init__(self, num_pages: int):
        if num_pages < 1:
            raise ConfigurationError("num_pages must be >= 1")
        self.num_pages = num_pages
        # Every internal node has two sons, so M leaves make 2M - 1 nodes.
        nodes = 2 * num_pages - 1
        self.lo: List[int] = [1] * nodes
        self.hi: List[int] = [num_pages] * nodes
        self.depth: List[int] = [0] * nodes
        self.parent: List[int] = [-1] * nodes
        self.left: List[int] = [-1] * nodes
        self.right: List[int] = [-1] * nodes
        self.count: List[int] = [0] * nodes
        self.flag: List[bool] = [False] * nodes
        #: Flagged nodes in each node's subtree, the node included.
        self.flags_below: List[int] = [0] * nodes
        #: The currently flagged node ids as a set.  CONTROL 2 keeps at
        #: most a handful of warnings alive at a time, so SELECT-style
        #: queries scan this set instead of walking the tree.
        self.flagged_set: set = set()
        self.leaf_of_page: List[int] = [-1] * (num_pages + 1)
        #: Leaf-to-root path per page, leaf first, as immutable tuples.
        #: The tree's shape never changes after construction, so the
        #: paths are precomputed once; ``path_from_leaf`` and ``add``
        #: (both on the per-command hot path) read them instead of
        #: chasing ``parent`` pointers on every call.
        self.paths: List[Tuple[int, ...]] = [()] * (num_pages + 1)
        self._build()

    def _build(self) -> None:
        """Number the nodes in preorder, in one loop over the ids.

        A subtree over ``n`` pages has ``2n - 1`` nodes, so a right son
        comes ``2 * (left son's pages)`` ids after its father.  Fathers
        precede sons, so each node's range, depth and path (its id, then
        its father's path) are set before the loop reaches it.
        """
        lo, hi, depth, parent = self.lo, self.hi, self.depth, self.parent
        left, right = self.left, self.right
        upward: List[Tuple[int, ...]] = [(0,)] * len(lo)  # path per node
        for node in range(len(lo)):
            node_lo, node_hi, path = lo[node], hi[node], upward[node]
            if node_lo == node_hi:
                self.leaf_of_page[node_lo] = node
                self.paths[node_lo] = path
                continue
            mid = (node_lo + node_hi) // 2
            left_son = node + 1
            right_son = node + 2 * (mid - node_lo + 1)
            left[node], right[node] = left_son, right_son
            lo[left_son], hi[left_son] = node_lo, mid
            lo[right_son], hi[right_son] = mid + 1, node_hi
            parent[left_son] = parent[right_son] = node
            depth[left_son] = depth[right_son] = depth[node] + 1
            upward[left_son] = (left_son,) + path
            upward[right_son] = (right_son,) + path

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------

    @property
    def root(self) -> int:
        return 0

    def __len__(self) -> int:
        return len(self.lo)

    def is_leaf(self, node: int) -> bool:
        """Whether ``node`` spans a single page."""
        return self.left[node] < 0

    def is_root(self, node: int) -> bool:
        """Whether ``node`` is the root (depth 0)."""
        return self.parent[node] < 0

    def is_right_child(self, node: int) -> bool:
        """``DIR(v)`` of the paper: True when ``v`` is a right son."""
        parent = self.parent[node]
        if parent < 0:
            raise UsageError("the root has no direction")
        return self.right[parent] == node

    def pages_in(self, node: int) -> int:
        """``M_v``: the number of pages in the node's range."""
        return self.hi[node] - self.lo[node] + 1

    def contains_page(self, node: int, page: int) -> bool:
        """Whether ``page`` lies in ``RANGE(node)``."""
        return self.lo[node] <= page <= self.hi[node]

    def iter_nodes(self) -> Iterator[int]:
        """Iterate every node id (preorder of construction)."""
        return iter(range(len(self.lo)))

    def path_from_leaf(self, page: int) -> List[int]:
        """Node ids from the page's leaf up to (and including) the root."""
        return list(self.paths[page])

    def nodes_separating(self, dest_page: int, source_page: int) -> List[int]:
        """The paper's ``UP`` set for a SHIFT.

        Returns every node ``x`` with ``dest_page in RANGE(x)`` but
        ``source_page not in RANGE(x)``: the nodes on the leaf-to-root
        path of ``dest_page`` strictly below the least common ancestor
        of the two pages, ordered leaf-first.
        """
        # SHIFT's reference: CONTROL 2 fuses this walk into its own.
        nodes = []
        lo = self.lo
        hi = self.hi
        parent = self.parent
        node = self.leaf_of_page[dest_page]
        while node >= 0 and not lo[node] <= source_page <= hi[node]:
            nodes.append(node)
            node = parent[node]
        return nodes

    # ------------------------------------------------------------------
    # rank counters
    # ------------------------------------------------------------------

    def add(self, page: int, delta: int) -> None:
        """Add ``delta`` records at ``page``.

        Updates every counter on the leaf-to-root path (the counters the
        paper says "require change"), leaf first.
        """
        count = self.count
        if delta >= 0:
            for node in self.paths[page]:
                count[node] += delta
            return
        for node in self.paths[page]:
            updated = count[node] + delta
            if updated < 0:
                raise UsageError(f"negative rank counter at node {node}")
            count[node] = updated

    def recount(self, node: int, occupancies: Sequence[int]) -> None:
        """Set the counters of ``node``'s subtree in one bottom-up pass.

        ``occupancies[i]`` is the record count of page ``lo[node] + i``.
        The subtree holds the ids ``node .. node + 2*M_v - 2``: each leaf
        takes its page's count, then each internal node, in reverse id
        order (sons first), the sum of its sons.
        """
        first = self.lo[node]
        pages = self.hi[node] - first + 1
        if len(occupancies) != pages:
            raise UsageError(f"need one occupancy per page of node {node}")
        count = self.count
        for page, occupancy in enumerate(occupancies, first):
            count[self.leaf_of_page[page]] = occupancy
        left, right = self.left, self.right
        for inner in range(node + 2 * pages - 2, node - 1, -1):
            son = left[inner]
            if son >= 0:
                count[inner] = count[son] + count[right[inner]]

    def transfer(self, source_page: int, dest_page: int, moved: int) -> List[int]:
        """Account for ``moved`` records moving between two pages.

        Returns the node ids whose counters changed (those on exactly one
        of the two leaf-to-root paths).  CONTROL 2's SHIFT moves its
        counters itself; this is the reference it must equal.
        """
        count = self.count
        dest_nodes = self.nodes_separating(dest_page, source_page)
        changed = list(dest_nodes)
        for node in dest_nodes:
            count[node] += moved
        for node in self.nodes_separating(source_page, dest_page):
            updated = count[node] - moved
            if updated < 0:
                raise UsageError(f"negative rank counter at node {node}")
            count[node] = updated
            changed.append(node)
        return changed

    def leaf_count(self, page: int) -> int:
        """Rank counter of the leaf covering ``page``."""
        return self.count[self.leaf_of_page[page]]

    def count_before(self, page: int) -> int:
        """Records on the pages strictly left of ``page``.

        One root-to-leaf walk: every left sibling the walk passes by
        contributes its whole counter, so the cost is ``O(log M)``
        whatever the number of pages.
        """
        left = self.left
        node = 0
        total = 0
        while left[node] >= 0:
            child = left[node]
            if page <= self.hi[child]:
                node = child
            else:
                total += self.count[child]
                node = self.right[node]
        return total

    def page_of_rank(self, rank: int) -> Tuple[int, int]:
        """The page holding the record of 0-based ``rank``, and its slot.

        One root-to-leaf walk steered by the counters; requires
        ``0 <= rank < count[root]``.  Returns ``(page, position)`` with
        ``position`` the record's index on that page.
        """
        left = self.left
        node = 0
        while left[node] >= 0:
            child = left[node]
            if rank < self.count[child]:
                node = child
            else:
                rank -= self.count[child]
                node = self.right[node]
        return self.lo[node], rank

    # ------------------------------------------------------------------
    # flags (CONTROL 2 warning states)
    # ------------------------------------------------------------------

    def set_flag(self, node: int, value: bool) -> None:
        """Raise or lower the flag bit, maintaining subtree flag counts."""
        if self.flag[node] == value:
            return
        self.flag[node] = value
        if value:
            self.flagged_set.add(node)
            delta = 1
        else:
            self.flagged_set.discard(node)
            delta = -1
        cursor = node
        while cursor >= 0:
            self.flags_below[cursor] += delta
            cursor = self.parent[cursor]

    def clear_flags(self) -> None:
        """Lower every flag and zero the subtree flag counts."""
        for node in range(len(self.flag)):
            self.flag[node] = False
            self.flags_below[node] = 0
        self.flagged_set.clear()

    def any_flagged(self) -> bool:
        """Whether any node currently holds a raised flag."""
        return self.flags_below[self.root] > 0

    def flagged_nodes(self) -> List[int]:
        """List of node ids currently flagged, in id order."""
        return sorted(self.flagged_set)

    def lowest_ancestor_with_flagged_proper_descendant(
        self, page: int
    ) -> Optional[int]:
        """SELECT step 1: walk up from the page's leaf.

        Returns the lowest ancestor ``alpha`` of the leaf such that some
        *proper* descendant of ``alpha`` is flagged, or ``None`` when no
        flags are raised anywhere on the path (equivalently: anywhere,
        once the root is reached).
        """
        node = self.leaf_of_page[page]
        while node >= 0:
            proper = self.flags_below[node] - (1 if self.flag[node] else 0)
            if proper > 0:
                return node
            node = self.parent[node]
        return None

    def deepest_flagged_descendant(self, node: int) -> Optional[int]:
        """SELECT step 2: the deepest flagged node in ``node``'s subtree.

        Ties on depth break toward the smaller page range start (the
        paper's smallest-``A-`` rule).  The scan runs over the current
        flagged set — CONTROL 2 holds only a handful of warnings at a
        time — rather than traversing the subtree; at equal depth the
        ranges of two nodes are disjoint, so (depth desc, lo asc) picks
        the same unique winner the left-first tree walk used to find.
        """
        lo = self.lo
        hi = self.hi
        depth = self.depth
        node_lo = lo[node]
        node_hi = hi[node]
        best = -1
        best_depth = -1
        best_lo = 0
        for candidate in self.flagged_set:
            candidate_lo = lo[candidate]
            if candidate_lo < node_lo or hi[candidate] > node_hi:
                continue  # not in the subtree
            candidate_depth = depth[candidate]
            if candidate_depth > best_depth or (
                candidate_depth == best_depth and candidate_lo < best_lo
            ):
                best = candidate
                best_depth = candidate_depth
                best_lo = candidate_lo
        return best if best >= 0 else None

    # ------------------------------------------------------------------
    # debugging helpers
    # ------------------------------------------------------------------

    def describe(self, node: int) -> Tuple[int, int, int, int]:
        """Return ``(lo, hi, depth, count)`` for one node."""
        return (self.lo[node], self.hi[node], self.depth[node], self.count[node])
