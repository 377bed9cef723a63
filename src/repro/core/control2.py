"""CONTROL 2: worst-case insertion/deletion in dense sequential files.

This module implements Section 4 of the paper exactly: the ``WARNING``
flags, the ``DEST``/``SOURCE`` sweep pointers, the three subroutines
``SHIFT``, ``SELECT`` and ``ACTIVATE`` (with both roll-back rules), and
the four-step mainline of Figure 2.  Every density comparison goes
through the exact integer predicates of
:class:`~repro.core.params.DensityParams`, which is what lets the test
suite reproduce the paper's Example 5.2 / Figure 4 trace bit for bit.

Orientation conventions (matching the paper):

* ``DIR(v) = 1`` when ``v`` is a right son; its sweep moves records
  *leftward* (``DEST(v) < SOURCE(v)``).
* ``DIR(v) = 0`` when ``v`` is a left son; its sweep moves records
  *rightward*.
* Both pointers live inside ``RANGE(f_v)``, the range of ``v``'s father.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import sub
from typing import Callable, Dict, List, Optional, Tuple

from ..storage.cost import CostModel, PAGE_ACCESS_MODEL
from ..storage.disk import SimulatedDisk
from .engine import BaseEngine
from .errors import UsageError
from .params import DensityParams
from .trace import STEP_1, STEP_2, STEP_3, STEP_4A, STEP_4B, STEP_4C


def _no_moment(moment: str, engine: "Control2Engine") -> None:
    """The moment listener of an engine that has none."""


class Control2Engine(BaseEngine):
    """The paper's headline algorithm, CONTROL 2."""

    algorithm_name = "CONTROL 2"

    def __init__(
        self,
        params: DensityParams,
        disk: Optional[SimulatedDisk] = None,
        model: CostModel = PAGE_ACCESS_MODEL,
        store=None,
    ):
        super().__init__(params, disk=disk, model=model, store=store)
        #: DEST(v) for every node currently in a warning state.
        self.destinations: Dict[int, int] = {}
        #: SOURCE(v) as of the most recent SHIFT(v) (diagnostics only;
        #: the paper recomputes SOURCE at the start of every SHIFT).
        self.sources: Dict[int, int] = {}
        #: Count of SHIFT calls that found no source page (defensive;
        #: should stay 0 under the paper's preconditions).
        self.stuck_shifts = 0
        #: Count of SHIFT calls executed.
        self.shift_calls = 0
        #: Optional callback ``(moment_type, engine)`` fired after each
        #: algorithm step; used by the MomentRecorder.
        self.moment_listener: Optional[Callable[[str, "Control2Engine"], None]] = None
        self._precompute_thresholds()

    def _precompute_thresholds(self) -> None:
        """Reduce every ``g(v, r)`` comparison to one integer compare.

        A threshold sees a node only as its shape ``(Depth(v), M_v)``,
        and the midpoint split leaves at most two spans per depth.  So
        for each of the ``<= 2 * (ceil(log2 M) + 1)`` shapes and each
        ``thirds`` in {0..3} the exact tests of :class:`DensityParams`
        collapse to one record-count threshold, then spread per node:

        * ``p(v) >= g(v, thirds/3)``  iff  ``N_v >= ceil(rhs / 3L)``
        * ``p(v) <= g(v, thirds/3)``  iff  ``N_v <= floor(rhs / 3L)``

        with ``rhs = coefficient(depth, thirds) * M_v`` and ``3L > 0``.
        Both reductions are exact for integer ``N_v``, so the control
        decisions stay bit-identical to the un-flattened predicates.
        """
        tree = self.calibrator
        params = self.params
        denominator = 3 * params.log_m
        # (depth, M_v - 1) per node id; the set of them is tiny.
        shapes = list(zip(tree.depth, map(sub, tree.hi, tree.lo)))
        distinct = set(shapes)
        self._ge_thresholds: List[List[int]] = []
        self._le_thresholds: List[List[int]] = []
        for thirds in range(4):
            at_least = {}
            at_most = {}
            for shape in distinct:
                depth, span = shape
                rhs = params._coefficient(depth, thirds) * (span + 1)
                at_least[shape] = -(-rhs // denominator)
                at_most[shape] = rhs // denominator
            self._ge_thresholds.append(list(map(at_least.__getitem__, shapes)))
            self._le_thresholds.append(list(map(at_most.__getitem__, shapes)))
        self._shift_budget = params.shift_budget
        #: Per page, the step-3 scan pre-resolved: ``(node, g(v, 2/3))``
        #: for every non-root node on the page's leaf-to-root path (the
        #: root is the last entry of each path and is never activated).
        #: Step 3 then needs one count lookup per node and nothing else.
        #: ``chain[v]`` is ``v``'s pair before its father's chain, so each
        #: node's pair is one tuple shared by every page below it.
        warn_at = self._ge_thresholds[2]
        parent = tree.parent
        chain: List[Tuple[Tuple[int, int], ...]] = [()]
        for node in range(1, len(shapes)):
            chain.append(((node, warn_at[node]),) + chain[parent[node]])
        self._step3_pairs: List[Tuple[Tuple[int, int], ...]] = [()]
        self._step3_pairs += map(chain.__getitem__, tree.leaf_of_page[1:])

    # ------------------------------------------------------------------
    # warning-state helpers
    # ------------------------------------------------------------------

    def is_warning(self, node: int) -> bool:
        """``WARNING(v)`` of the paper."""
        return self.calibrator.flag[node]

    def _density_at_least(self, node: int, thirds: int) -> bool:
        return self.calibrator.count[node] >= self._ge_thresholds[thirds][node]

    def _lower_flag(self, node: int) -> None:
        self.calibrator.set_flag(node, False)
        self.destinations.pop(node, None)
        self.sources.pop(node, None)

    def _lower_flags_if_sparse(self, nodes) -> None:
        """Figure 2 steps 2 / 4c: drop flags where ``p <= g(., 1/3)``."""
        tree = self.calibrator
        if not tree.flags_below[0]:
            return  # no flag anywhere -> nothing can be lowered
        flag = tree.flag
        count = tree.count
        sparse_at = self._le_thresholds[1]
        for node in nodes:
            if flag[node] and count[node] <= sparse_at[node]:
                self._lower_flag(node)

    # ------------------------------------------------------------------
    # ACTIVATE(w)  (Section 4, including both roll-back rules)
    # ------------------------------------------------------------------

    def _activate(self, node: int) -> None:
        """Raise ``node`` into a warning state and roll back conflicting sweeps."""
        tree = self.calibrator
        father = tree.parent[node]
        if father < 0:
            raise UsageError("the root is never activated")
        tree.set_flag(node, True)
        if tree.is_right_child(node):
            self.destinations[node] = tree.lo[father]
        else:
            self.destinations[node] = tree.hi[father]
        self._roll_back_conflicting(father)

    def _roll_back_conflicting(self, father: int) -> None:
        """Apply roll-back rules 0/1 to warning nodes sweeping over ``father``.

        A warning node ``y`` conflicts when ``RANGE(f_y)`` strictly
        contains ``RANGE(f_w)`` and ``DEST(y)`` sits inside the activated
        father's range (exclusive of the far boundary on ``y``'s own
        side).  Rolling ``DEST(y)`` back to the near boundary of
        ``RANGE(f_w)`` puts ``y``'s sweep in position to repair anything
        the new sweep may later undo.

        The candidates, warning nodes whose father is a proper ancestor
        of ``father``, are found by a range test over the flagged set
        (normally 0-2 nodes): ranges nest, and no son's range equals its
        father's.  Each roll-back touches only its own DEST, so the
        order of the set does not matter.
        """
        tree = self.calibrator
        lo, hi, parent = tree.lo, tree.hi, tree.parent
        low = lo[father]
        high = hi[father]
        destinations = self.destinations
        for candidate in tree.flagged_set:
            above = parent[candidate]
            if above < 0 or above == father or lo[above] > low or hi[above] < high:
                continue  # the root, a son of ``father``, or not above it
            dest = destinations.get(candidate)
            if dest is None:
                continue
            if tree.right[above] == candidate:
                # Roll-back rule 1: leftward sweep.
                if low + 1 <= dest <= high:
                    destinations[candidate] = low
            elif low <= dest <= high - 1:
                # Roll-back rule 0: rightward sweep.
                destinations[candidate] = high

    # ------------------------------------------------------------------
    # SELECT(L)
    # ------------------------------------------------------------------

    def _select(self, leaf_page: int) -> Optional[int]:
        """Pick the next node to shift, per the paper's SELECT(L).

        Step 1 finds the lowest ancestor ``alpha`` of the command's leaf
        with a warning proper descendant; step 2 returns the deepest
        warning descendant of ``alpha`` (smallest ``A-`` on depth ties).
        Returns ``None`` when no node is in a warning state.
        """
        alpha = self.calibrator.lowest_ancestor_with_flagged_proper_descendant(
            leaf_page
        )
        if alpha is None:
            return None
        return self.calibrator.deepest_flagged_descendant(alpha)

    # ------------------------------------------------------------------
    # SHIFT(v)
    # ------------------------------------------------------------------

    def _shift(self, node: int) -> Tuple[int, ...]:
        """Perform one SHIFT on warning node ``node``.

        Returns the calibrator nodes whose counters changed (the set step
        4c must re-examine), or ``()`` when no move was attempted.
        Implements the three steps of the paper's SHIFT: recompute
        SOURCE, move the maximal batch of records allowed by the
        ``p(x) >= g(x, 0)`` guards, then advance DEST past the
        least-depth saturated guard node.

        SOURCE is one bisect of the non-empty directory; one walk up
        DEST's path to the common ancestor gives ``UP(v)`` and its
        headroom, and SOURCE's path below it loses the moved records (the
        reference: ``CalibratorTree.nodes_separating``/``transfer``).
        The source's length is its leaf counter (``validate()`` checks).
        """
        self.shift_calls += 1
        tree = self.calibrator
        father = tree.parent[node]
        dest = self.destinations[node]
        lo, hi = tree.lo, tree.hi
        nonempty = self.pagefile._nonempty

        # --- step 1: SOURCE(v), 0 when RANGE(f_v) has none -----------------
        moving_left = tree.right[father] == node  # DIR(v) == 1
        if moving_left:
            index = bisect_right(nonempty, dest)
            source = nonempty[index] if index < len(nonempty) else 0
            if source > hi[father]:
                source = 0
        else:
            index = bisect_left(nonempty, dest)
            source = nonempty[index - 1] if index else 0
            if source < lo[father]:
                source = 0
        if not source:
            # Defensive: no records beyond DEST inside RANGE(f_v).  The
            # paper's preconditions make this unreachable; count it so
            # the test suite can assert that it never fires.
            self.stuck_shifts += 1
            return ()
        self.sources[node] = source

        # --- step 2: bounded record movement ------------------------------
        # g(x, 0) as a record count: a guard's capacity.  UP(v) always
        # holds DEST's leaf, whose room starts the minimum.
        full_at = self._ge_thresholds[0]
        count = tree.count
        up = tree.paths[dest]
        headroom = full_at[up[0]] - count[up[0]]
        for below, guard in enumerate(up):
            if lo[guard] <= source <= hi[guard]:
                break  # the lowest common ancestor: UP(v) is up[:below]
            room = full_at[guard] - count[guard]
            if room < headroom:
                headroom = room
        guards = up[:below]
        down = tree.paths[source]
        losers = down[: len(down) - len(up) + below]
        movable = min(count[down[0]], headroom)
        changed: Tuple[int, ...] = ()
        if movable > 0:
            moved = self.pagefile.move_records(source, dest, movable)
            self.records_moved_total += moved
            for guard in guards:
                count[guard] += moved
            for loser in losers:
                updated = count[loser] - moved
                if updated < 0:
                    raise UsageError(f"negative rank counter at node {loser}")
                count[loser] = updated
            changed = guards + losers

        # --- step 3: advance DEST past the saturated guard ----------------
        for guard in reversed(guards):  # shallowest first
            if count[guard] >= full_at[guard]:  # p(x) >= g(x, 0)
                self.destinations[node] = (
                    hi[guard] + 1 if moving_left else lo[guard] - 1
                )
                break
        return changed

    # ------------------------------------------------------------------
    # the Figure 2 mainline (steps 2-4 after the shared step 1)
    # ------------------------------------------------------------------

    def _run_steps_2_to_4(self, page: int) -> None:
        """Figure 2 steps 2-4 in the paper's order, after ``tree.add``.

        A command that starts with a warning up runs this, and step 4
        is :meth:`_run_step_4_quiet`.  With a moment listener attached it
        is the reference the fused path must match: a moment after each
        step (the Figure 4 trace) and step 4 spelled out.
        """
        tree = self.calibrator
        listener = self.moment_listener or _no_moment
        listener(STEP_1, self)
        # Step 2: lower warning flags that fell to p <= g(., 1/3).
        self._lower_flags_if_sparse(tree.paths[page])
        listener(STEP_2, self)
        # Step 3: raise warnings (deepest first, as in Example 5.2) for
        # non-root, non-warning nodes that reached p >= g(., 2/3).
        count = tree.count
        flag = tree.flag
        for node, warn_limit in self._step3_pairs[page]:
            if count[node] >= warn_limit and not flag[node]:
                self._activate(node)
        listener(STEP_3, self)
        if listener is _no_moment:
            self._run_step_4_quiet(page)
            return
        # Step 4: J iterations of SELECT / SHIFT / flag-lowering.
        for _ in range(self._shift_budget):
            target = self._select(page) if tree.flags_below[0] else None
            listener(STEP_4A, self)
            if target is None:
                break
            changed = self._shift(target)
            listener(STEP_4B, self)
            self._lower_flags_if_sparse(changed)
            listener(STEP_4C, self)

    # -- fused counter bump + maintenance ------------------------------
    #
    # In the flag-free steady state (the overwhelmingly common one: a
    # warning raised by step 3 is resolved by step 4 within the same
    # command) the unfused sequence walks the calibrator path twice —
    # once in ``add`` and once in the step-3 scan — and steps 2 and 4
    # are no-ops.  The overrides below do both walks in one, with the
    # same node order (leaf first, root last) and the same state
    # transitions; any entry flag or attached moment listener falls
    # back to the verbatim sequence.

    def _apply_insert(self, page: int) -> None:
        tree = self.calibrator
        if self.moment_listener is not None or tree.flags_below[0]:
            tree.add(page, 1)
            self._run_steps_2_to_4(page)
            return
        count = tree.count
        flag = tree.flag
        activated = False
        for node, warn_limit in self._step3_pairs[page]:
            updated = count[node] + 1
            count[node] = updated
            if updated >= warn_limit and not flag[node]:
                self._activate(node)
                activated = True
        count[0] += 1  # the root: on every path, never activated
        if activated:
            self._run_step_4_quiet(page)

    def _apply_delete(self, page: int) -> None:
        tree = self.calibrator
        if self.moment_listener is not None or tree.flags_below[0]:
            tree.add(page, -1)
            self._run_steps_2_to_4(page)
            return
        count = tree.count
        flag = tree.flag
        activated = False
        for node, warn_limit in self._step3_pairs[page]:
            updated = count[node] - 1
            if updated < 0:
                raise UsageError(f"negative rank counter at node {node}")
            count[node] = updated
            if updated >= warn_limit and not flag[node]:
                self._activate(node)
                activated = True
        updated = count[0] - 1
        if updated < 0:
            raise UsageError("negative rank counter at node 0")
        count[0] = updated
        if activated:
            self._run_step_4_quiet(page)

    def _run_step_4_quiet(self, page: int) -> None:
        """Figure 2 step 4 with no listener attached, SELECT's
        single-warning case and step 4c inlined."""
        tree = self.calibrator
        flagged = tree.flagged_set
        flag = tree.flag
        count = tree.count
        sparse_at = self._le_thresholds[1]
        for _ in range(self._shift_budget):
            if not flagged:
                break
            # With one warning node W, not the root, SELECT returns W for
            # every leaf: the root has W as a proper descendant, so alpha
            # exists, and W is the only candidate under it.
            target = 0
            if len(flagged) == 1:
                (target,) = flagged
            if not target:
                target = self._select(page)
                if target is None:
                    break
            for node in self._shift(target):
                if flag[node] and count[node] <= sparse_at[node]:
                    self._lower_flag(node)

    def _after_bulk_delete(self, touched_pages) -> None:
        """Bulk analogue of step 2: lower flags over every touched path."""
        seen = set()
        for page in touched_pages:
            for node in self.calibrator.paths[page]:
                if node in seen:
                    break
                seen.add(node)
        self._lower_flags_if_sparse(seen)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def warning_nodes(self) -> List[int]:
        """Node ids currently in a warning state."""
        return self.calibrator.flagged_nodes()
