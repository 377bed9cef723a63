"""A disk-resident B+-tree baseline.

Sections 4 and 5 of the paper contrast CONTROL 2 with B-trees: B-trees
may win on update cost, but scanning a *stream* of consecutive keys from
a B-tree pays disk-arm movement because logically adjacent leaves need
not be physically adjacent.  This module implements a full B+-tree over
the same :class:`~repro.storage.disk.SimulatedDisk` substrate — splits,
borrows and merges included — with pages allocated in creation order, so
that after a mixed update history the leaf chain is physically scattered
exactly the way the paper's argument assumes.

Every node occupies one disk page; descending the tree charges one read
per level and structural changes charge one write per touched node.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.errors import (
    ConfigurationError,
    DuplicateKeyError,
    RecordNotFoundError,
    UsageError,
)
from ..records import Record, unique_sorted_records
from ..storage.cost import CostModel, PAGE_ACCESS_MODEL
from ..storage.disk import SimulatedDisk


class _Node:
    """One B+-tree node, resident on a single disk page."""

    __slots__ = ("page", "is_leaf", "keys", "children", "records", "next_leaf")

    def __init__(self, page: int, is_leaf: bool):
        self.page = page
        self.is_leaf = is_leaf
        self.keys: List = []          # separators (internal) or record keys (leaf)
        self.children: List[int] = []  # child page ids (internal only)
        self.records: List[Record] = []  # leaf only
        self.next_leaf: int = 0        # leaf chain (0 = end)


class BPlusTree:
    """A B+-tree with configurable fanout and leaf capacity.

    Parameters
    ----------
    fanout:
        Maximum number of children of an internal node (>= 3).
    leaf_capacity:
        Maximum records per leaf (>= 2); pass the dense file's ``D`` for
        an apples-to-apples page size.
    """

    algorithm_name = "B+-tree"

    def __init__(
        self,
        fanout: int = 8,
        leaf_capacity: int = 8,
        model: CostModel = PAGE_ACCESS_MODEL,
        cache_internal_nodes: bool = False,
    ):
        if fanout < 3:
            raise ConfigurationError("fanout must be at least 3")
        if leaf_capacity < 2:
            raise ConfigurationError("leaf_capacity must be at least 2")
        self.fanout = fanout
        self.leaf_capacity = leaf_capacity
        #: When True, internal-node touches are free: they model a
        #: buffer pool pinning the (small) upper levels, the same
        #: assumption under which the dense file's calibrator and page
        #: directory live in core.  Leaf touches always charge.
        self.cache_internal_nodes = cache_internal_nodes
        self.disk = SimulatedDisk(0, model)
        self._nodes: Dict[int, _Node] = {}
        self.root_page = self._allocate(is_leaf=True).page
        self.size = 0
        self.height = 1

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    @property
    def stats(self):
        return self.disk.stats

    def __len__(self) -> int:
        return self.size

    def _allocate(self, is_leaf: bool) -> _Node:
        page = self.disk.extend(1)
        node = _Node(page, is_leaf)
        self._nodes[page] = node
        return node

    def _load(self, page: int) -> _Node:
        node = self._nodes[page]
        if node.is_leaf or not self.cache_internal_nodes:
            self.disk.read(page)
        return node

    def _store(self, node: _Node) -> None:
        if node.is_leaf or not self.cache_internal_nodes:
            self.disk.write(node.page)

    def _free(self, node: _Node) -> None:
        # Freed pages are not recycled: creation order defines physical
        # layout, and holes only make the seek picture milder.
        del self._nodes[node.page]

    @property
    def _min_leaf(self) -> int:
        return self.leaf_capacity // 2

    @property
    def _min_keys(self) -> int:
        return (self.fanout - 1) // 2

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def _descend_to_leaf(self, key) -> _Node:
        node = self._load(self.root_page)
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            node = self._load(node.children[index])
        return node

    def search(self, key) -> Optional[Record]:
        """Return the record with ``key`` or ``None`` (one read per level)."""
        leaf = self._descend_to_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.records[index]
        return None

    def __contains__(self, key) -> bool:
        return self.search(key) is not None

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert(self, key, value=None) -> None:
        """Insert a record, splitting nodes upward as needed."""
        record = Record(key, value)
        split = self._insert(self.root_page, record)
        if split is not None:
            separator, right_page = split
            old_root = self.root_page
            new_root = self._allocate(is_leaf=False)
            new_root.keys = [separator]
            new_root.children = [old_root, right_page]
            self.root_page = new_root.page
            self._store(new_root)
            self.height += 1
        self.size += 1

    def _insert(self, page: int, record: Record) -> Optional[Tuple[object, int]]:
        node = self._load(page)
        if node.is_leaf:
            index = bisect.bisect_left(node.keys, record.key)
            if index < len(node.keys) and node.keys[index] == record.key:
                raise DuplicateKeyError(record.key)
            node.keys.insert(index, record.key)
            node.records.insert(index, record)
            if len(node.keys) <= self.leaf_capacity:
                self._store(node)
                return None
            return self._split_leaf(node)
        index = bisect.bisect_right(node.keys, record.key)
        split = self._insert(node.children[index], record)
        if split is None:
            return None
        separator, right_page = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right_page)
        if len(node.keys) < self.fanout:
            self._store(node)
            return None
        return self._split_internal(node)

    def _split_leaf(self, node: _Node) -> Tuple[object, int]:
        sibling = self._allocate(is_leaf=True)
        mid = len(node.keys) // 2
        sibling.keys = node.keys[mid:]
        sibling.records = node.records[mid:]
        del node.keys[mid:]
        del node.records[mid:]
        sibling.next_leaf = node.next_leaf
        node.next_leaf = sibling.page
        self._store(node)
        self._store(sibling)
        return sibling.keys[0], sibling.page

    def _split_internal(self, node: _Node) -> Tuple[object, int]:
        sibling = self._allocate(is_leaf=False)
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        sibling.keys = node.keys[mid + 1 :]
        sibling.children = node.children[mid + 1 :]
        del node.keys[mid:]
        del node.children[mid + 1 :]
        self._store(node)
        self._store(sibling)
        return separator, sibling.page

    # ------------------------------------------------------------------
    # deletion (with borrow / merge rebalancing)
    # ------------------------------------------------------------------

    def delete(self, key) -> Record:
        """Delete ``key``, borrowing/merging to repair underflows."""
        removed = self._delete(self.root_page, key)
        root = self._nodes[self.root_page]
        if not root.is_leaf and len(root.children) == 1:
            # Collapse a root left with a single child.
            only_child = root.children[0]
            self._free(root)
            self.root_page = only_child
            self.height -= 1
        self.size -= 1
        return removed

    def _delete(self, page: int, key) -> Record:
        node = self._load(page)
        if node.is_leaf:
            index = bisect.bisect_left(node.keys, key)
            if index >= len(node.keys) or node.keys[index] != key:
                raise RecordNotFoundError(key)
            node.keys.pop(index)
            removed = node.records.pop(index)
            self._store(node)
            return removed
        index = bisect.bisect_right(node.keys, key)
        removed = self._delete(node.children[index], key)
        self._fix_underflow(node, index)
        return removed

    def _underflowing(self, child: _Node) -> bool:
        if child.is_leaf:
            return len(child.keys) < self._min_leaf
        return len(child.keys) < self._min_keys

    def _fix_underflow(self, parent: _Node, index: int) -> None:
        child = self._nodes[parent.children[index]]
        if not self._underflowing(child):
            return
        if index > 0:
            left = self._load(parent.children[index - 1])
            if self._can_lend(left):
                self._borrow_from_left(parent, index, left, child)
                return
        if index + 1 < len(parent.children):
            right = self._load(parent.children[index + 1])
            if self._can_lend(right):
                self._borrow_from_right(parent, index, child, right)
                return
        if index > 0:
            left = self._nodes[parent.children[index - 1]]
            self._merge(parent, index - 1, left, child)
        else:
            right = self._nodes[parent.children[index + 1]]
            self._merge(parent, index, child, right)

    def _can_lend(self, node: _Node) -> bool:
        if node.is_leaf:
            return len(node.keys) > self._min_leaf
        return len(node.keys) > self._min_keys

    def _borrow_from_left(
        self, parent: _Node, index: int, left: _Node, child: _Node
    ) -> None:
        if child.is_leaf:
            child.keys.insert(0, left.keys.pop())
            child.records.insert(0, left.records.pop())
            parent.keys[index - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[index - 1])
            parent.keys[index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())
        self._store(left)
        self._store(child)
        self._store(parent)

    def _borrow_from_right(
        self, parent: _Node, index: int, child: _Node, right: _Node
    ) -> None:
        if child.is_leaf:
            child.keys.append(right.keys.pop(0))
            child.records.append(right.records.pop(0))
            parent.keys[index] = right.keys[0]
        else:
            child.keys.append(parent.keys[index])
            parent.keys[index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))
        self._store(right)
        self._store(child)
        self._store(parent)

    def _merge(self, parent: _Node, index: int, left: _Node, right: _Node) -> None:
        """Fold ``right`` into ``left``; ``index`` is left's child slot."""
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.records.extend(right.records)
            left.next_leaf = right.next_leaf
        else:
            left.keys.append(parent.keys[index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(index)
        parent.children.pop(index + 1)
        self._store(left)
        self._store(parent)
        self._free(right)

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------

    def range_scan(self, lo_key, hi_key) -> Iterator[Record]:
        """Stream records in ``[lo_key, hi_key]`` following the leaf chain."""
        leaf = self._descend_to_leaf(lo_key)
        while True:
            for record_key, record in zip(leaf.keys, leaf.records):
                if record_key < lo_key:
                    continue
                if record_key > hi_key:
                    return
                yield record
            if not leaf.next_leaf:
                return
            leaf = self._load(leaf.next_leaf)

    def scan_count(self, start_key, count: int) -> List[Record]:
        """Return up to ``count`` records with key >= ``start_key``."""
        result: List[Record] = []
        leaf = self._descend_to_leaf(start_key)
        while len(result) < count:
            for record_key, record in zip(leaf.keys, leaf.records):
                if record_key >= start_key and len(result) < count:
                    result.append(record)
            if not leaf.next_leaf or len(result) >= count:
                return result
            leaf = self._load(leaf.next_leaf)
        return result

    # ------------------------------------------------------------------
    # bulk load
    # ------------------------------------------------------------------

    def bulk_load(self, records, fill_factor: float = 0.75) -> None:
        """Build the tree bottom-up from sorted records.

        Leaves are allocated consecutively (a freshly loaded B+-tree *is*
        physically sequential; only subsequent updates scatter it).
        """
        if self.size:
            raise UsageError("bulk_load requires an empty tree")
        loaded = unique_sorted_records(records)
        if not loaded:
            return
        per_leaf = max(1, min(self.leaf_capacity, int(self.leaf_capacity * fill_factor)))
        # Replace the initial empty root.
        self._free(self._nodes[self.root_page])
        leaves: List[_Node] = []
        for start in range(0, len(loaded), per_leaf):
            chunk = loaded[start : start + per_leaf]
            leaf = self._allocate(is_leaf=True)
            leaf.records = list(chunk)
            leaf.keys = [record.key for record in chunk]
            if leaves:
                leaves[-1].next_leaf = leaf.page
            leaves.append(leaf)
            self._store(leaf)
        level: List[_Node] = leaves
        self.height = 1
        while len(level) > 1:
            parents: List[_Node] = []
            group = max(2, self.fanout - 1)
            for start in range(0, len(level), group):
                chunk = level[start : start + group]
                if len(chunk) == 1 and parents:
                    # Avoid a 1-child internal node: attach to the
                    # previous parent instead.
                    parents[-1].children.append(chunk[0].page)
                    parents[-1].keys.append(self._subtree_min(chunk[0]))
                    self._store(parents[-1])
                    continue
                parent = self._allocate(is_leaf=False)
                parent.children = [node.page for node in chunk]
                parent.keys = [
                    self._subtree_min(node) for node in chunk[1:]
                ]
                parents.append(parent)
                self._store(parent)
            level = parents
            self.height += 1
        self.root_page = level[0].page
        self.size = len(loaded)

    def _subtree_min(self, node: _Node):
        while not node.is_leaf:
            node = self._nodes[node.children[0]]
        return node.keys[0]

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def leaf_pages_in_order(self) -> List[int]:
        """Physical page numbers of the leaves in key order."""
        node = self._nodes[self.root_page]
        while not node.is_leaf:
            node = self._nodes[node.children[0]]
        pages = []
        while True:
            pages.append(node.page)
            if not node.next_leaf:
                return pages
            node = self._nodes[node.next_leaf]

    def check_invariants(self) -> None:
        """Structural self-check used by the test suite."""
        count = self._check_node(self.root_page, None, None, is_root=True)
        if count != self.size:
            raise AssertionError(
                f"tree holds {count} records but size says {self.size}"
            )

    def _check_node(self, page: int, lo, hi, is_root: bool = False) -> int:
        node = self._nodes[page]
        keys = node.keys
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise AssertionError(f"unsorted keys in page {page}")
        for key in keys:
            if lo is not None and key < lo:
                raise AssertionError(f"key {key} below bound in page {page}")
            if hi is not None and key >= hi:
                raise AssertionError(f"key {key} above bound in page {page}")
        if node.is_leaf:
            if not is_root and len(keys) < self._min_leaf:
                raise AssertionError(f"leaf underflow in page {page}")
            if len(keys) > self.leaf_capacity:
                raise AssertionError(f"leaf overflow in page {page}")
            return len(keys)
        if not is_root and len(keys) < self._min_keys:
            raise AssertionError(f"internal underflow in page {page}")
        if len(keys) >= self.fanout:
            raise AssertionError(f"internal overflow in page {page}")
        if len(node.children) != len(keys) + 1:
            raise AssertionError(f"child/key mismatch in page {page}")
        total = 0
        bounds = [lo] + list(keys) + [hi]
        for child, (child_lo, child_hi) in zip(
            node.children, zip(bounds[:-1], bounds[1:])
        ):
            total += self._check_node(child, child_lo, child_hi)
        return total
