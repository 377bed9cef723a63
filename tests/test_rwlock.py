"""Units for the concurrency primitives: Deadline, FairRWLock, AdmissionGate."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.concurrent import AdmissionGate, Deadline, FairRWLock
from repro.concurrent.admission import READ, WRITE
from repro.core.errors import OperationTimeout, OverloadError


class FakeClock:
    """A manually advanced monotonic clock for deterministic deadlines."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeadline:
    def test_unbounded_never_expires(self):
        budget = Deadline.unbounded()
        assert not budget.expired
        assert budget.remaining() == float("inf")
        assert budget.wait_budget() is None
        budget.check()  # must not raise

    def test_after_counts_down_on_the_injected_clock(self):
        clock = FakeClock()
        budget = Deadline.after(5.0, clock)
        assert budget.remaining() == pytest.approx(5.0)
        clock.advance(3.0)
        assert budget.remaining() == pytest.approx(2.0)
        assert budget.wait_budget() == pytest.approx(2.0)
        assert not budget.expired
        clock.advance(2.0)
        assert budget.expired
        assert budget.remaining() == 0.0

    def test_check_raises_operation_timeout(self):
        clock = FakeClock()
        budget = Deadline.after(1.0, clock)
        clock.advance(2.0)
        with pytest.raises(OperationTimeout):
            budget.check("unit test")

    def test_left_is_check_and_wait_budget_in_one_reading(self):
        clock = FakeClock()
        assert Deadline.unbounded().left() is None
        budget = Deadline.after(2.0, clock)
        assert budget.left() == pytest.approx(2.0)
        clock.advance(1.5)
        assert budget.left() == pytest.approx(0.5)
        clock.advance(0.5)  # exactly at the deadline: spent, as check says
        with pytest.raises(OperationTimeout):
            budget.check("unit test")
        with pytest.raises(OperationTimeout, match="unit test"):
            budget.left("unit test")

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)

    def test_resolve_precedence(self):
        clock = FakeClock()
        explicit = Deadline.after(9.0, clock)
        # Explicit deadline wins verbatim.
        assert Deadline.resolve(deadline=explicit, clock=clock) is explicit
        # timeout= beats the default.
        assert Deadline.resolve(
            timeout=2.0, default_timeout=8.0, clock=clock
        ).remaining() == pytest.approx(2.0)
        # The default applies when nothing else is given.
        assert Deadline.resolve(
            default_timeout=4.0, clock=clock
        ).remaining() == pytest.approx(4.0)
        # Nothing at all -> unbounded.
        assert Deadline.resolve(clock=clock).expires_at is None

    def test_resolve_rejects_both(self):
        with pytest.raises(ValueError):
            Deadline.resolve(timeout=1.0, deadline=Deadline.unbounded())


class TestFairRWLock:
    def test_readers_share(self):
        lock = FairRWLock()
        lock.acquire_read()
        lock.acquire_read()  # second reader must not block
        lock.release_read()
        lock.release_read()
        assert lock.stats()["readers_served"] == 2

    def test_writer_excludes_everyone(self):
        lock = FairRWLock()
        lock.acquire_write()
        with pytest.raises(OperationTimeout):
            lock.acquire_read(Deadline.after(0.05))
        with pytest.raises(OperationTimeout):
            lock.acquire_write(Deadline.after(0.05))
        lock.release_write()
        assert lock.stats()["timeouts"] == 2

    def test_release_without_acquire_raises(self):
        lock = FairRWLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()

    def test_writer_is_not_starved_by_readers(self):
        """A queued writer blocks readers that arrive after it (FIFO)."""
        lock = FairRWLock()
        lock.acquire_read()
        writer_in = threading.Event()
        late_reader_in = threading.Event()
        order = []

        def writer():
            lock.acquire_write()
            order.append("writer")
            writer_in.set()
            lock.release_write()

        def late_reader():
            lock.acquire_read()
            order.append("reader")
            late_reader_in.set()
            lock.release_read()

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        # Wait until the writer is queued behind the active reader.
        while lock.queue_depth < 1:
            time.sleep(0.001)
        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        while lock.queue_depth < 2:
            time.sleep(0.001)
        # Neither may enter while the first reader holds the lock.
        assert not writer_in.is_set() and not late_reader_in.is_set()
        lock.release_read()
        writer_thread.join(5.0)
        reader_thread.join(5.0)
        # FIFO: the writer, which arrived first, went first.
        assert order == ["writer", "reader"]

    def test_timed_out_waiter_leaves_the_queue(self):
        lock = FairRWLock()
        lock.acquire_write()
        with pytest.raises(OperationTimeout):
            lock.acquire_write(Deadline.after(0.05))
        assert lock.queue_depth == 0
        lock.release_write()
        # The lock still works normally afterwards.
        lock.acquire_read()
        lock.release_read()

    def test_contended_increment_is_exclusive(self):
        lock = FairRWLock()
        counter = {"n": 0}

        def bump():
            for _ in range(200):
                with lock.write_locked():
                    value = counter["n"]
                    time.sleep(0)  # widen the race window
                    counter["n"] = value + 1

        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(4):
                pool.submit(bump)
        assert counter["n"] == 800
        assert lock.stats()["writers_served"] == 800



def _queue_behind(lock, acquire):
    """Start a thread that queues on ``lock``; return (thread, entered)."""
    entered = threading.Event()
    depth = lock.queue_depth

    def run():
        acquire(Deadline.after(10.0))
        entered.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    give_up = time.monotonic() + 5.0
    while lock.queue_depth <= depth:
        assert time.monotonic() < give_up, "the thread never queued"
        time.sleep(0.001)
    return thread, entered


class TestUncontendedPath:
    """The ticket-free entry must admit exactly what the ticket path would."""

    def test_reader_does_not_overtake_a_queued_writer(self):
        lock = FairRWLock()
        lock.acquire_read()
        writer, writer_in = _queue_behind(lock, lock.acquire_write)
        # No writer is active and readers are compatible with the
        # holder, but the queued writer sends this reader to a ticket:
        # with a spent budget it times out instead of entering.
        with pytest.raises(OperationTimeout):
            lock.acquire_read(Deadline.after(0.0))
        stats = lock.stats()
        assert stats["active_readers"] == 1 and stats["queue_depth"] == 1
        lock.release_read()
        writer.join(5.0)
        assert writer_in.is_set()
        lock.release_write()
        assert lock.stats()["writers_served"] == 1

    def test_writer_never_enters_while_readers_are_active(self):
        lock = FairRWLock()
        lock.acquire_read()
        lock.acquire_read()
        with pytest.raises(OperationTimeout):
            lock.acquire_write(Deadline.after(0.0))
        lock.release_read()
        with pytest.raises(OperationTimeout):
            lock.acquire_write(Deadline.after(0.0))
        lock.release_read()
        stats = lock.stats()
        assert stats["writers_served"] == 0 and stats["timeouts"] == 2
        assert stats["queue_depth"] == 0
        lock.acquire_write(Deadline.after(0.0))  # idle again: enters
        assert lock.stats()["writer_active"]

    def test_nobody_enters_beside_an_active_writer(self):
        lock = FairRWLock()
        lock.acquire_write()
        for acquire in (lock.acquire_read, lock.acquire_write):
            with pytest.raises(OperationTimeout):
                acquire(Deadline.after(0.0))
        lock.release_write()
        assert lock.stats()["queue_depth"] == 0

    def test_readers_behind_a_queued_writer_enter_after_it(self):
        lock = FairRWLock()
        lock.acquire_read()
        order = []
        writer, _ = _queue_behind(
            lock, lambda d: (lock.acquire_write(d), order.append("w"),
                             lock.release_write())
        )
        reader, _ = _queue_behind(
            lock, lambda d: (lock.acquire_read(d), order.append("r"),
                             lock.release_read())
        )
        lock.release_read()
        writer.join(5.0)
        reader.join(5.0)
        assert order == ["w", "r"]

    def test_counters_match_the_ticket_path(self):
        # Both locks serve two readers and two writers.  On ``fast``
        # every acquisition is uncontended; on ``ticketed`` one writer
        # and one reader queue behind a holder and enter by ticket.
        # The counters must not tell the two paths apart.
        fast = FairRWLock()
        for acquire, release in (
            (fast.acquire_read, fast.release_read),
            (fast.acquire_write, fast.release_write),
            (fast.acquire_write, fast.release_write),
            (fast.acquire_read, fast.release_read),
        ):
            acquire()
            release()

        ticketed = FairRWLock()
        ticketed.acquire_read()
        writer, _ = _queue_behind(
            ticketed, lambda d: (ticketed.acquire_write(d),
                                 ticketed.release_write())
        )
        ticketed.release_read()
        writer.join(5.0)
        ticketed.acquire_write()
        reader, _ = _queue_behind(
            ticketed, lambda d: (ticketed.acquire_read(d),
                                 ticketed.release_read())
        )
        ticketed.release_write()
        reader.join(5.0)

        assert fast.stats() == ticketed.stats() == {
            "readers_served": 2,
            "writers_served": 2,
            "timeouts": 0,
            "max_queue_depth": 1,
            "active_readers": 0,
            "writer_active": False,
            "queue_depth": 0,
        }
        assert FairRWLock().stats()["max_queue_depth"] == 0

    def test_mixed_stress_keeps_exclusion(self):
        # More threads than cores, a tiny switch interval: readers and
        # writers race through both entry paths.  A writer must be
        # alone; a lost update of the guarded counter or a reader that
        # sees a writer inside would break the asserts.
        lock = FairRWLock()
        inside = {"readers": 0, "writers": 0, "count": 0}
        violations = []

        def writer():
            for _ in range(300):
                lock.acquire_write(Deadline.after(30.0))
                inside["writers"] += 1
                if inside["writers"] != 1 or inside["readers"]:
                    violations.append("writer not alone")
                value = inside["count"]
                time.sleep(0)
                inside["count"] = value + 1
                if inside["writers"] != 1 or inside["readers"]:
                    violations.append("writer not alone")
                inside["writers"] -= 1
                lock.release_write()
                # Pause so the queue drains and the next acquisition
                # often meets readers inside and nobody queued.
                time.sleep(0.0005)

        def reader():
            for _ in range(300):
                lock.acquire_read(Deadline.after(30.0))
                with guard:
                    inside["readers"] += 1
                if inside["writers"]:
                    violations.append("reader beside a writer")
                time.sleep(0.0001)
                if inside["writers"]:
                    violations.append("reader beside a writer")
                with guard:
                    inside["readers"] -= 1
                lock.release_read()

        guard = threading.Lock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer) for _ in range(2)]
            threads += [threading.Thread(target=reader) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert violations == []
        assert inside["count"] == 600
        stats = lock.stats()
        assert stats["writers_served"] == 600
        assert stats["readers_served"] == 1800
        assert not stats["writer_active"] and stats["active_readers"] == 0
        assert stats["queue_depth"] == 0

    def test_release_wakes_the_condition_only_when_someone_waits(self):
        lock = FairRWLock()
        wakes = []
        notify_all = lock._cond.notify_all
        lock._cond.notify_all = lambda: (wakes.append(1), notify_all())
        lock.acquire_read()
        lock.release_read()
        lock.acquire_write()
        lock.release_write()
        assert wakes == []
        lock.acquire_write()
        writer, writer_in = _queue_behind(lock, lock.acquire_write)
        lock.release_write()
        writer.join(5.0)
        assert writer_in.is_set() and wakes
        lock.release_write()


class TestAdmissionGate:
    def test_fast_path_admits(self):
        gate = AdmissionGate(max_in_flight=2)
        with gate.enter(READ):
            with gate.enter(WRITE):
                assert gate.in_flight == 2
        assert gate.in_flight == 0
        assert gate.stats()["admitted"] == 2

    def test_full_queue_rejects_with_depth(self):
        gate = AdmissionGate(max_in_flight=1, max_queued=0)
        with gate.enter(READ):
            with pytest.raises(OverloadError) as info:
                gate.enter(READ)
        assert info.value.in_flight == 1
        assert info.value.queue_depth == 0
        assert gate.stats()["rejected"] == 1

    def test_shed_load_rejects_writes_keeps_reads(self):
        gate = AdmissionGate(max_in_flight=1, max_queued=4, shed_load=True)
        token = gate.enter(READ)
        # A write that would queue is rejected immediately...
        with pytest.raises(OverloadError):
            gate.enter(WRITE)
        # ...while a read may queue and is admitted once the slot frees.
        admitted = threading.Event()

        def queued_read():
            with gate.enter(READ, Deadline.after(5.0)):
                admitted.set()

        reader = threading.Thread(target=queued_read)
        reader.start()
        while gate.queue_depth < 1:
            time.sleep(0.001)
        token.__exit__(None, None, None)
        reader.join(5.0)
        assert admitted.is_set()
        assert gate.stats()["shed_writes"] == 1

    def test_queued_wait_honours_deadline(self):
        gate = AdmissionGate(max_in_flight=1, max_queued=4)
        with gate.enter(READ):
            with pytest.raises(OperationTimeout):
                gate.enter(READ, Deadline.after(0.05))
        assert gate.stats()["timeouts"] == 1
        # The timed-out waiter left no residue: the slot is reusable.
        with gate.enter(WRITE):
            pass

    def test_released_slot_admits_the_next_waiter(self):
        gate = AdmissionGate(max_in_flight=1, max_queued=8)
        results = []

        def job(tag):
            with gate.enter(READ, Deadline.after(10.0)):
                results.append(tag)

        first = gate.enter(READ)
        threads = [
            threading.Thread(target=job, args=(i,)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        while gate.queue_depth < 3:
            time.sleep(0.001)
        first.__exit__(None, None, None)
        for thread in threads:
            thread.join(5.0)
        assert sorted(results) == [0, 1, 2]
        assert gate.stats()["peak_queued"] == 3

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AdmissionGate(max_in_flight=0)
        with pytest.raises(ValueError):
            AdmissionGate(max_queued=-1)
        with pytest.raises(ValueError):
            AdmissionGate().enter("compact")
