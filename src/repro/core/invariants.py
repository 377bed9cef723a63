"""Structural invariant checkers for dense sequential files.

Four invariants from Chapter 1 and Section 3 of the paper are asserted:

1. **Sequential order** — ``ADD(R1) <= ADD(R2)`` whenever
   ``KEY(R1) < KEY(R2)`` (condition iii of ``(d, D)``-density).
2. **(d, D)-density** — at most ``N = d*M`` records in total and at most
   ``D`` on any page (conditions i and ii).
3. **BALANCE(d, D)** — ``p(v) <= g(v, 1)`` at every calibrator node,
   the stronger condition CONTROL 1/2 actually maintain.
4. **Counter consistency** — every ``N_v`` equals the number of records
   physically stored in ``RANGE(v)``, and the page directory matches the
   pages.

These checks read state directly (no page-access charges) and are meant
to run at end-of-command moments, which is exactly where the paper's
Theorem 5.5 makes its guarantee.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import InvariantViolationError


def check_sequential_order(pagefile) -> None:
    """Assert global key order across pages and within each page."""
    previous_key = None
    previous_page = None
    for page_number, records in pagefile.snapshot():
        for record in records:
            if previous_key is not None and record.key <= previous_key:
                raise InvariantViolationError(
                    "sequential order violated: key "
                    f"{record.key!r} on page {page_number} follows "
                    f"{previous_key!r} on page {previous_page}"
                )
            previous_key = record.key
            previous_page = page_number


def check_density(pagefile, params) -> None:
    """Assert conditions (i) and (ii) of ``(d, D)``-density."""
    total = 0
    for page_number in range(1, params.num_pages + 1):
        count = pagefile.page_len(page_number)
        total += count
        if count > params.D:
            raise InvariantViolationError(
                f"page {page_number} holds {count} records, exceeding D="
                f"{params.D}"
            )
    if total > params.max_records:
        raise InvariantViolationError(
            f"file holds {total} records, exceeding N = d*M = "
            f"{params.max_records}"
        )


def check_balance(calibrator, params) -> List[int]:
    """Assert ``BALANCE(d, D)``; returns the list of violating nodes.

    Raises on the first violation; the return value (always ``[]`` on
    success) keeps the signature convenient for non-raising probes via
    :func:`balance_violations`.
    """
    violations = balance_violations(calibrator, params)
    if violations:
        node = violations[0]
        lo, hi, depth, count = calibrator.describe(node)
        raise InvariantViolationError(
            f"BALANCE(d,D) violated at node {node} "
            f"(range [{lo},{hi}], depth {depth}): N_v={count}, M_v={hi - lo + 1}"
        )
    return violations


def balance_violations(calibrator, params) -> List[int]:
    """Return every node with ``p(v) > g(v, 1)`` (non-raising probe)."""
    return balance_scan(calibrator, params)[0]


def balance_scan(calibrator, params) -> Tuple[List[int], int]:
    """``(violating nodes, headroom)`` in one pass over the nodes.

    The headroom is the least ``⌊g(v, 1) · M_v⌋ − N_v`` over all nodes:
    how many more records the tightest node takes before BALANCE(d, D)
    breaks.  It is negative exactly when some node violates.
    """
    violating = []
    # No minimum exceeds this start: the root's room is d*M - N.
    headroom = params.max_records
    count, depth, pages_in = calibrator.count, calibrator.depth, calibrator.pages_in
    ceiling = params.balance_ceiling
    for node in calibrator.iter_nodes():
        room = ceiling(pages_in(node), depth[node]) - count[node]
        if room < 0:  # N_v > ⌊g(v,1)·M_v⌋ iff p(v) > g(v, 1)
            violating.append(node)
        if room < headroom:
            headroom = room
    return violating, headroom


def check_counters(pagefile, calibrator) -> None:
    """Assert calibrator counters match the physical page occupancies."""
    for node in calibrator.iter_nodes():
        expected = sum(
            pagefile.page_len(page)
            for page in range(calibrator.lo[node], calibrator.hi[node] + 1)
        )
        if calibrator.count[node] != expected:
            lo, hi, depth, count = calibrator.describe(node)
            raise InvariantViolationError(
                f"rank counter mismatch at node {node} (range [{lo},{hi}]): "
                f"N_v={count} but pages hold {expected}"
            )


def check_directory(pagefile) -> None:
    """Assert the in-core non-empty-page directory matches the pages."""
    expected = [
        page
        for page in range(1, pagefile.num_pages + 1)
        if pagefile.page_len(page) > 0
    ]
    if pagefile.nonempty_pages() != expected:
        raise InvariantViolationError(
            "page directory out of sync with physical pages"
        )


def check_warning_flags(engine) -> None:
    """Assert Fact 5.1 at a flag-stable moment for a CONTROL 2 engine.

    (a) ``p(x) <= g(x, 1/3)`` implies non-warning;
    (b) ``p(x) >= g(x, 2/3)`` at a non-root node implies warning.
    Also asserts every warning node carries a DEST pointer inside its
    father's range.
    """
    tree = engine.calibrator
    params = engine.params
    for node in tree.iter_nodes():
        count = tree.count[node]
        pages = tree.pages_in(node)
        depth = tree.depth[node]
        flagged = tree.flag[node]
        if params.density_at_most(count, pages, depth, 1) and flagged:
            raise InvariantViolationError(
                f"Fact 5.1(a) violated: node {node} is warning with "
                "p(x) <= g(x, 1/3)"
            )
        if (
            tree.parent[node] >= 0
            and params.density_at_least(count, pages, depth, 2)
            and not flagged
        ):
            raise InvariantViolationError(
                f"Fact 5.1(b) violated: node {node} has p(x) >= g(x, 2/3) "
                "but is not warning"
            )
        if flagged:
            dest = engine.destinations.get(node)
            father = tree.parent[node]
            if dest is None:
                raise InvariantViolationError(
                    f"warning node {node} has no DEST pointer"
                )
            if not (tree.lo[father] <= dest <= tree.hi[father]):
                raise InvariantViolationError(
                    f"DEST({node}) = {dest} outside RANGE(f_v) = "
                    f"[{tree.lo[father]}, {tree.hi[father]}]"
                )


def check_engine(engine) -> None:
    """Run every invariant applicable to ``engine``."""
    check_sequential_order(engine.pagefile)
    check_density(engine.pagefile, engine.params)
    check_counters(engine.pagefile, engine.calibrator)
    check_directory(engine.pagefile)
    check_balance(engine.calibrator, engine.params)
    if hasattr(engine, "destinations"):
        check_warning_flags(engine)
    if engine.size != engine.calibrator.count[engine.calibrator.root]:
        raise InvariantViolationError(
            f"engine size {engine.size} disagrees with the root counter "
            f"{engine.calibrator.count[engine.calibrator.root]}"
        )
