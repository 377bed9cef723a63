"""Offline scrub/repair for durable dense files.

:func:`scrub` is the recovery ladder for a file whose physical layer
can no longer be trusted (a torn write, a bit-flip, a crash mid-apply):

1. **Detect** — checksum every page slot of the
   :class:`~repro.storage.ondisk.DiskPagedStore` and collect the
   corrupt page numbers.
2. **Repair** — run the same journal recovery a reopened file runs
   (:meth:`~repro.storage.wal.TransactionJournal.redo`): a *committed*
   journal beside the file is replayed (redo is idempotent), so any
   damaged page whose image was journaled gets its last committed
   contents back, and the journal is retired to the ``.applied`` slot,
   preserving the durable sequence; a torn one is discarded.  Pages still
   corrupt afterwards get a second chance from the *retained applied*
   journal image — the last applied transaction's pages are already on
   the main store, so rewriting them is an idempotent heal for a torn
   or bit-flipped apply write.
3. **Quarantine** — pages still corrupt after both passes have no
   surviving committed image; they are recorded in the report and left untouched
   on disk (no destructive zeroing — the operator may still salvage
   bytes).  Opening the file afterwards requires
   ``PersistentDenseFile.open(path, on_corruption="degrade")``, which
   maps quarantined pages to empty and refuses mutations with
   :class:`~repro.core.errors.ReadOnlyError`.
4. **Verify** — when nothing is quarantined, the file is opened and the
   full structural check runs (sequential order, ``(d, D)``-density,
   ``BALANCE``, calibrator counters, on-disk/in-core agreement); any
   violation is reported rather than raised.

:func:`plan_repairs` decides the rung of each corrupt page up front;
``repro verify`` prints that same plan.  The CLI surfaces the ladder
as ``repro scrub FILE`` (exit 0 when the file ends healthy, 3 when
pages stay quarantined or invariants fail).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence, Tuple


class RepairPlan(NamedTuple):
    """Per corrupt page, the ladder rung that mends it."""

    journal: Tuple[int, ...]  #: rewritten by the pending journal's redo
    heal: Dict[int, bytes]  #: page -> retained applied-journal image
    quarantine: Tuple[int, ...]  #: no surviving committed image


def plan_repairs(path: str, corrupt: Sequence[int]) -> RepairPlan:
    """Decide, without writing anything, how :func:`scrub` mends ``corrupt``.

    A committed journal pending replay rewrites the pages it holds;
    replaying it retires it into the applied slot, so the previously
    retained applied image only heals when no journal is pending.
    """
    from .wal import TransactionJournal

    journal = TransactionJournal.beside(path)
    pending = journal.read_committed()
    images = pending if pending is not None else journal.read_applied() or {}
    covered = {page: images[page] for page in corrupt if page in images}
    return RepairPlan(
        journal=tuple(covered) if pending is not None else (),
        heal=covered if pending is None else {},
        quarantine=tuple(page for page in corrupt if page not in images),
    )


@dataclass
class ScrubReport:
    """Outcome of one :func:`scrub` pass, in ladder order."""

    path: str
    pages_checked: int = 0
    #: Pages that failed their CRC when the scrub started.
    corrupt: Tuple[int, ...] = ()
    #: Whether a committed journal was found and replayed.
    journal_replayed: bool = False
    #: Corrupt pages healed by the journal redo.
    repaired: Tuple[int, ...] = ()
    #: Corrupt pages healed from the retained applied-journal image.
    healed: Tuple[int, ...] = ()
    #: Pages still corrupt after redo (no committed image survives).
    quarantined: Tuple[int, ...] = ()
    #: Structural-invariant failures found on the repaired file.
    invariant_errors: Tuple[str, ...] = ()
    #: Human-readable ladder trace for the CLI.
    log: List[str] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """True when every page verifies and every invariant holds."""
        return not self.quarantined and not self.invariant_errors

    @property
    def degraded(self) -> bool:
        """True when the file must be opened in read-only degraded mode."""
        return bool(self.quarantined)

    def summary(self) -> str:
        """Multi-line report for the CLI."""
        lines = list(self.log)
        if self.healthy:
            verdict = "healthy"
            mended = sorted(set(self.repaired) | set(self.healed))
            if mended:
                verdict += f" (repaired pages {mended})"
        elif self.quarantined:
            verdict = (
                f"DEGRADED: pages {list(self.quarantined)} quarantined; "
                "open read-only with on_corruption='degrade' or restore "
                "from backup"
            )
        else:
            verdict = "UNSOUND: structural invariants failed"
        lines.append(f"scrub verdict: {verdict}")
        return "\n".join(lines)


def scrub(path: str) -> ScrubReport:
    """Run the detect/repair/quarantine/verify ladder over ``path``.

    Safe on healthy files (a no-op that reports ``healthy``) and
    idempotent: a second scrub of a degraded file reports the same
    quarantine set.  Must be run on a *closed* file — it opens the
    store exclusively.
    """
    # Imports are local: repro.persistent imports repro.storage, so a
    # module-level import here would be circular.
    from ..core.errors import ReproError
    from .ondisk import DiskPagedStore
    from .wal import TransactionJournal

    report = ScrubReport(path=path)
    with DiskPagedStore.open(path) as raw:
        report.pages_checked = raw.num_pages
        report.corrupt = tuple(raw.verify_all())
        report.log.append(
            f"checked {report.pages_checked} pages: "
            f"{len(report.corrupt)} corrupt"
            + (f" {list(report.corrupt)}" if report.corrupt else "")
        )

        # Planned before redo(), which retires or discards the journal.
        plan = plan_repairs(path, report.corrupt)
        journal = TransactionJournal.beside(path)
        pending = journal.exists()
        committed = journal.redo(raw)
        if committed is not None:
            report.journal_replayed = True
            report.log.append(
                f"replayed committed journal ({len(committed)} page images)"
            )
        elif pending:
            report.log.append("discarded torn (uncommitted) journal")
        for page, payload in plan.heal.items():
            raw.write_page_payload(page, payload)
        if plan.heal:
            raw.flush()

        still_corrupt = (
            tuple(raw.verify_all())
            if report.corrupt or report.journal_replayed
            else ()
        )
        report.repaired = tuple(
            page for page in plan.journal if page not in still_corrupt
        )
        if report.repaired:
            report.log.append(f"repaired pages {list(report.repaired)}")
        report.healed = tuple(
            page for page in plan.heal if page not in still_corrupt
        )
        if report.healed:
            report.log.append(
                f"healed pages {list(report.healed)} from the retained "
                "applied-journal image"
            )
        report.quarantined = still_corrupt
        if report.quarantined:
            report.log.append(
                f"quarantined pages {list(report.quarantined)}: no "
                "committed journal image to restore from"
            )

    if not report.quarantined:
        from ..persistent import PersistentDenseFile

        try:
            with PersistentDenseFile.open(path) as dense:
                dense.validate()
            report.log.append(
                "structural pass: order, density, BALANCE, calibrator "
                "counters, on-disk agreement all hold"
            )
        except ReproError as error:
            report.invariant_errors = (str(error),)
            report.log.append(f"structural pass FAILED: {error}")
    return report
