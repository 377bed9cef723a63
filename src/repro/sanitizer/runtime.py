"""The race-detection core: lockset state machine + happens-before.

:class:`SanitizerRuntime` is a passive event sink.  The instrumented
lock (:class:`~repro.sanitizer.instrument.SanitizedRWLock`) reports
request/acquire/release events; the instrumented store
(:class:`~repro.sanitizer.instrument.SanitizedStore`) reports one
access event per metered page touch — the same ``get_page``/``put_page``
seam the LNT001 accounting rule guarantees every engine goes through,
so instrumentation coverage is lint-enforced rather than hoped for.

Three detectors run over the event stream:

**Eraser lockset.**  Each shared variable (page) carries a candidate
set C(v) of locks that protected *every* access so far.  A variable is
born VIRGIN, becomes EXCLUSIVE for its first (single-threaded,
initialization) owner, SHARED once a second thread reads it and
SHARED-MODIFIED once a second thread is involved in writing it.  From
the moment a second thread touches the variable, every read refines
C(v) by the locks the reader holds in *any* mode and every write
refines by the locks held in *write* mode (the read-write-lock
refinement from the Eraser paper, §3.4).  An empty C(v) in the
SHARED-MODIFIED state means no single lock protected the variable.

**Vector-clock happens-before.**  Lockset alone over-reports
fork/join- or ordering-based protocols, so an empty lockset is only a
*candidate* race: the access must also be concurrent with a prior
conflicting access.  Each thread carries a
:class:`~repro.sanitizer.vectorclock.VectorClock`; a release publishes
the holder's clock into the lock, an acquire joins it back, and each
variable remembers its last-write epoch and per-thread read epochs
(FastTrack's representation).  A finding is emitted only when the
lockset is empty *and* some prior conflicting epoch is unordered with
the current access — which is what makes the clean tree report exactly
zero findings while the planted unlocked write stays caught under any
interleaving, including a fully sequential one.

**Lock-order graph.**  Every acquisition *request* records a
``held → requested`` edge for each lock the requester already holds —
at request time, before blocking, so a request that deadlocks or times
out still leaves its evidence.  :meth:`SanitizerRuntime.report` then
searches the accumulated digraph for cycles: an ABBA pattern is
reported even when the schedule happened to serialize the two clients,
which is precisely why the planted-deadlock negative control is
deterministic.  Nested acquisition of one non-reentrant lock is
flagged immediately as a self-deadlock.

Determinism: every detector is a function of the *set* of events per
thread, not of their global interleaving, so a fixed seed gives a
fixed verdict.  The runtime serializes its own bookkeeping behind one
internal mutex; it never touches the locks it observes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..obs import Number, view
from .vectorclock import Epoch, VectorClock

#: Access kinds reported by the instrumented store.
READ, WRITE = "read", "write"

#: Lockset states (the Eraser state machine).
VIRGIN, EXCLUSIVE, SHARED, SHARED_MODIFIED = (
    "virgin", "exclusive", "shared", "shared-modified",
)


@dataclass(frozen=True, order=True)
class RaceFinding:
    """One detector verdict: an unprotected access or a lock cycle."""

    kind: str  # "unlocked-access" | "lock-order-cycle" | "self-deadlock"
    resource: str
    detail: str
    threads: Tuple[str, ...] = ()

    def render(self) -> str:
        """One-line rendering for reports and CLI output."""
        who = f" [{', '.join(self.threads)}]" if self.threads else ""
        return f"{self.kind}: {self.resource}: {self.detail}{who}"


@dataclass
class RaceReport:
    """Everything one sanitized run observed, findings first."""

    COUNTERS = (
        "accesses", "lock_events", "threads", "locks", "resources",
        "lock_edges",
    )

    findings: List[RaceFinding] = field(default_factory=list)
    accesses: int = 0
    lock_events: int = 0
    threads: int = 0
    locks: int = 0
    resources: int = 0
    lock_edges: int = 0

    @property
    def ok(self) -> bool:
        """Clean run: no unlocked access, no lock-order cycle."""
        return not self.findings

    def counters(self) -> Dict[str, Number]:
        """The volume counters and the finding count (for StressReport)."""
        return dict(view(self, self.COUNTERS), findings=len(self.findings))

    def summary(self) -> str:
        """Human-readable verdict with the volume counters."""
        verdict = "CLEAN" if self.ok else "RACY"
        lines = [
            f"sanitizer: {verdict} — {self.accesses} accesses / "
            f"{self.lock_events} lock events across {self.threads} "
            f"thread(s), {self.resources} resource(s), "
            f"{self.locks} lock(s)"
        ]
        for finding in self.findings:
            lines.append(f"  RACE: {finding.render()}")
        return "\n".join(lines)


class _ThreadState:
    """Per-thread bookkeeping: label, clock and the stack of held locks."""

    __slots__ = ("index", "label", "clock", "held")

    def __init__(self, index: int):
        self.index = index
        self.label = f"T{index}"
        self.clock = VectorClock()
        self.clock.tick(index)
        #: (lock label, mode) in acquisition order; a lock held in both
        #: modes never happens (FairRWLock is not reentrant).
        self.held: List[Tuple[str, str]] = []

    def held_labels(self, write_only: bool) -> Set[str]:
        return {
            label
            for label, mode in self.held
            if not write_only or mode == WRITE
        }


class _LockState:
    """Per-lock bookkeeping: the clock published by the last releases."""

    __slots__ = ("label", "release_clock")

    def __init__(self, label: str):
        self.label = label
        self.release_clock = VectorClock()


class _VarState:
    """Per-resource lockset state machine plus FastTrack epochs."""

    __slots__ = (
        "state", "owner", "lockset", "last_write", "last_write_label",
        "read_epochs", "reported",
    )

    def __init__(self) -> None:
        self.state = VIRGIN
        self.owner: Optional[int] = None
        #: ``None`` means "not yet constrained" (still single-threaded).
        self.lockset: Optional[Set[str]] = None
        self.last_write: Optional[Epoch] = None
        self.last_write_label = ""
        self.read_epochs: Dict[int, int] = {}
        self.reported = False


class SanitizerRuntime:
    """Collects lock and access events; renders verdicts on demand."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._threads: Dict[threading.Thread, _ThreadState] = {}
        self._locks: Dict[str, _LockState] = {}
        self._vars: Dict[str, _VarState] = {}
        #: held-label -> requested-labels, accumulated at request time.
        self._order_edges: Dict[str, Set[str]] = {}
        self._findings: List[RaceFinding] = []
        self._label_counts: Dict[str, int] = {}
        self._accesses = 0
        self._lock_events = 0

    # -- registration ---------------------------------------------------

    def register_label(self, prefix: str) -> str:
        """A unique instance label (``rwlock``, ``rwlock#2``, ...)."""
        with self._mutex:
            count = self._label_counts.get(prefix, 0) + 1
            self._label_counts[prefix] = count
            return prefix if count == 1 else f"{prefix}#{count}"

    def _thread(self) -> _ThreadState:
        # Keyed by the Thread *object*, not its ident: the OS reuses
        # idents once a thread exits, and the controls deliberately run
        # their clients one-after-another — keeping a strong reference
        # to each Thread guarantees two distinct threads never alias.
        current = threading.current_thread()
        state = self._threads.get(current)
        if state is None:
            state = _ThreadState(len(self._threads))
            self._threads[current] = state
        return state

    def _lock(self, label: str) -> _LockState:
        state = self._locks.get(label)
        if state is None:
            state = _LockState(label)
            self._locks[label] = state
        return state

    # -- lock events ----------------------------------------------------

    def on_acquire_request(self, label: str, mode: str) -> None:
        """A thread is about to block on ``label`` (edge recorded now)."""
        with self._mutex:
            self._lock_events += 1
            thread = self._thread()
            for held_label, _held_mode in thread.held:
                if held_label == label:
                    # FairRWLock is not reentrant: a
                    # nested request waits on itself forever (or until
                    # its deadline).  Deterministic, so report directly.
                    self._findings.append(RaceFinding(
                        kind="self-deadlock",
                        resource=label,
                        detail=(
                            f"nested acquisition of non-reentrant lock "
                            f"{label!r} ({mode}) while already held"
                        ),
                        threads=(thread.label,),
                    ))
                else:
                    self._order_edges.setdefault(
                        held_label, set()
                    ).add(label)

    def on_acquired(self, label: str, mode: str) -> None:
        """``label`` is now held in ``mode``; absorb its release clock."""
        with self._mutex:
            self._lock_events += 1
            thread = self._thread()
            thread.held.append((label, mode))
            thread.clock.join(self._lock(label).release_clock)

    def on_release(self, label: str, mode: str) -> None:
        """``label`` is being released; publish the holder's clock."""
        with self._mutex:
            self._lock_events += 1
            thread = self._thread()
            for position in range(len(thread.held) - 1, -1, -1):
                if thread.held[position][0] == label:
                    del thread.held[position]
                    break
            self._lock(label).release_clock.join(thread.clock)
            thread.clock.tick(thread.index)

    # -- access events --------------------------------------------------

    def on_access(self, resource: str, kind: str) -> None:
        """One metered touch of ``resource`` (``READ`` or ``WRITE``)."""
        with self._mutex:
            self._accesses += 1
            thread = self._thread()
            var = self._vars.get(resource)
            if var is None:
                var = _VarState()
                self._vars[resource] = var
            self._step_lockset(var, thread, resource, kind)
            # Record this access's epoch for later HB checks.
            if kind == WRITE:
                var.last_write = thread.clock.epoch(thread.index)
                var.last_write_label = thread.label
                var.read_epochs.clear()
            else:
                var.read_epochs[thread.index] = thread.clock.get(
                    thread.index
                )

    def _step_lockset(
        self,
        var: _VarState,
        thread: _ThreadState,
        resource: str,
        kind: str,
    ) -> None:
        """Advance the Eraser state machine; report when it empties."""
        if var.state == VIRGIN:
            var.state = EXCLUSIVE
            var.owner = thread.index
            return
        if var.state == EXCLUSIVE and var.owner == thread.index:
            return
        # A second thread is involved: refine the candidate lockset.
        # Reads count locks held in any mode, writes only write-mode
        # holds (a read lock does not order two writers).
        candidate = thread.held_labels(write_only=kind == WRITE)
        if var.lockset is None:
            var.lockset = set(candidate)
        else:
            var.lockset &= candidate
        if var.state == EXCLUSIVE:
            var.state = SHARED
        if kind == WRITE:
            var.state = SHARED_MODIFIED
        if (
            var.state == SHARED_MODIFIED
            and not var.lockset
            and not var.reported
        ):
            conflict = self._concurrent_conflict(var, thread, kind)
            if conflict is not None:
                var.reported = True
                self._findings.append(RaceFinding(
                    kind="unlocked-access",
                    resource=resource,
                    detail=(
                        f"{kind} with empty lockset, concurrent with "
                        f"{conflict}"
                    ),
                    threads=(thread.label,),
                ))

    def _concurrent_conflict(
        self, var: _VarState, thread: _ThreadState, kind: str
    ) -> Optional[str]:
        """A prior conflicting access NOT ordered before this one, if any."""
        write = var.last_write
        if write is not None and not thread.clock.observed(
            write, thread.index
        ):
            return f"{var.last_write_label}'s write"
        if kind == WRITE:
            for reader, count in var.read_epochs.items():
                if not thread.clock.observed((reader, count), thread.index):
                    return f"T{reader}'s read"
        return None

    # -- verdicts -------------------------------------------------------

    def _order_cycles(self) -> List[List[str]]:
        """Distinct cycles in the accumulated lock-order digraph."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[str, int] = {}
        stack: List[str] = []
        cycles: List[List[str]] = []
        seen: Set[Tuple[str, ...]] = set()

        def visit(node: str) -> None:
            color[node] = GRAY
            stack.append(node)
            for succ in sorted(self._order_edges.get(node, ())):
                state = color.get(succ, WHITE)
                if state == GRAY:
                    cycle = stack[stack.index(succ):]
                    pivot = cycle.index(min(cycle))
                    key = tuple(cycle[pivot:] + cycle[:pivot])
                    if key not in seen:
                        seen.add(key)
                        cycles.append(list(key))
                elif state == WHITE:
                    visit(succ)
            stack.pop()
            color[node] = BLACK

        for node in sorted(self._order_edges):
            if color.get(node, WHITE) == WHITE:
                visit(node)
        return cycles

    def report(self) -> RaceReport:
        """Freeze the verdict: access findings plus lock-order cycles."""
        with self._mutex:
            findings = list(self._findings)
            for cycle in self._order_cycles():
                path = " -> ".join(cycle + [cycle[0]])
                findings.append(RaceFinding(
                    kind="lock-order-cycle",
                    resource=cycle[0],
                    detail=f"acquisition order cycle {path}",
                ))
            return RaceReport(
                findings=sorted(findings),
                accesses=self._accesses,
                lock_events=self._lock_events,
                threads=len(self._threads),
                locks=len(self._locks),
                resources=len(self._vars),
                lock_edges=sum(
                    len(out) for out in self._order_edges.values()
                ),
            )
