"""Tests for the thread-safe wrapper under real thread contention."""

import random
import time
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import DenseSequentialFile
from repro.concurrent import Deadline, ThreadSafeDenseFile
from repro.concurrent.admission import READ
from repro.concurrent.file import find_retrying_stores
from repro.core.errors import (
    OperationTimeout,
    OverloadError,
    RecordNotFoundError,
)
from repro.sanitizer import SanitizedRWLock, SanitizerRuntime
from repro.storage import (
    FaultPlan,
    MemoryStore,
    RetryPolicy,
    fault_tolerant_stack,
)


@pytest.fixture
def shared():
    return ThreadSafeDenseFile(DenseSequentialFile(num_pages=128, d=16, D=56))


class TestBasicDelegation:
    def test_api_surface(self, shared):
        shared.insert(1, "one")
        shared.insert_many([2, 3, 4])
        assert shared.search(1).value == "one"
        assert len(shared) == 4
        assert 2 in shared
        assert [r.key for r in shared.range(1, 3)] == [1, 2, 3]
        assert shared.rank(3) == 2
        assert shared.count_range(1, 4) == 4
        assert shared.select(0).key == 1
        assert shared.min().key == 1
        assert shared.max().key == 4
        assert shared.successor(2).key == 3
        assert shared.predecessor(2).key == 1
        shared.update(1, "uno")
        shared.delete(4)
        assert shared.delete_range(2, 3) == 2
        shared.compact()
        shared.validate()

    def test_range_returns_a_snapshot_list(self, shared):
        shared.insert_many(range(10))
        window = shared.range(0, 9)
        shared.delete_range(0, 9)
        # The snapshot is unaffected by the later mutation.
        assert len(window) == 10


class TestThreadedWrites:
    def test_disjoint_inserters(self, shared):
        def worker(base):
            for offset in range(100):
                shared.insert(base * 1000 + offset)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(8)))
        assert len(shared) == 800
        shared.validate()

    def test_readers_and_writers_interleaved(self, shared):
        shared.insert_many(range(0, 2000, 4))
        errors = []

        def reader(seed):
            rng = random.Random(seed)
            for _ in range(200):
                start = rng.randrange(2000)
                window = shared.range(start, start + 100)
                keys = [record.key for record in window]
                if keys != sorted(keys):
                    errors.append("unsorted snapshot")
                # Yield the lock so writers interleave rather than starve.
                time.sleep(0)

        def writer(base):
            for offset in range(150):
                shared.insert(10_000 + base * 1000 + offset)
                time.sleep(0)

        readers = [
            threading.Thread(target=reader, args=(seed,)) for seed in range(3)
        ]
        for thread in readers:
            thread.start()
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(writer, range(4)))
        for thread in readers:
            thread.join()
        assert errors == []
        assert len(shared) == 500 + 600
        shared.validate()

    def test_mixed_operations_with_key_ownership(self, shared):
        """Each worker owns a key stripe, so semantics stay deterministic
        per stripe while the structure is fully shared."""

        def worker(stripe):
            rng = random.Random(stripe)
            owned = set()
            for _ in range(200):
                if rng.random() < 0.6 or not owned:
                    key = stripe * 100_000 + rng.randrange(50_000)
                    if key in owned:
                        continue
                    shared.insert(key)
                    owned.add(key)
                else:
                    key = owned.pop()
                    shared.delete(key)
            return owned

        with ThreadPoolExecutor(max_workers=6) as pool:
            survivors = list(pool.map(worker, range(6)))
        expected = sorted(set().union(*survivors))
        assert [r.key for r in shared.range(-1, 10**9)] == expected
        shared.validate()

    def test_concurrent_range_deletes_and_inserts(self, shared):
        shared.insert_many(range(0, 5000, 5))

        def deleter(block):
            shared.delete_range(block * 1000, block * 1000 + 999)

        def inserter(block):
            for key in range(block * 1000 + 10_001, block * 1000 + 10_050):
                shared.insert(key)

        with ThreadPoolExecutor(max_workers=8) as pool:
            for block in range(4):
                pool.submit(deleter, block)
                pool.submit(inserter, block)
        shared.validate()
        # Every original key below 4000 is gone; the inserted stripes are in.
        assert shared.count_range(0, 3999) == 0
        assert shared.count_range(10_000, 14_999) == 4 * 49


class TestReaderWriterSemantics:
    def test_memory_stack_auto_enables_shared_reads(self, shared):
        assert shared.shared_reads is True

    def test_readers_share_while_writers_wait(self, shared):
        shared.insert(1)
        shared.lock.acquire_read()
        try:
            # A second reader enters alongside the held read lock...
            assert shared.search(1).key == 1
            # ...while a writer is excluded until the reader leaves.
            with pytest.raises(OperationTimeout):
                shared.insert(2, timeout=0.05)
        finally:
            shared.lock.release_read()
        shared.insert(2)
        assert len(shared) == 2

    def test_disk_backed_reads_are_serialized(self, tmp_path):
        from repro import PersistentDenseFile

        path = str(tmp_path / "serial.dsf")
        shared = ThreadSafeDenseFile(
            PersistentDenseFile.create(path, num_pages=32, d=8, D=40)
        )
        # A shared seekable file handle means reads must not overlap.
        assert shared.shared_reads is False
        shared.close()

    def test_shared_reads_override(self):
        inner = DenseSequentialFile(num_pages=64, d=8, D=40)
        assert ThreadSafeDenseFile(inner, shared_reads=False).shared_reads is False


class TestDeadlines:
    def test_timeout_while_writer_holds_the_lock(self, shared):
        shared.insert(1)
        shared.lock.acquire_write()
        try:
            with pytest.raises(OperationTimeout):
                shared.search(1, timeout=0.05)
            with pytest.raises(OperationTimeout):
                shared.insert(2, timeout=0.05)
        finally:
            shared.lock.release_write()
        # The timed-out waiters left the queue; the file still works.
        assert shared.search(1).key == 1
        shared.insert(2)
        assert shared.lock.stats()["timeouts"] == 2

    def test_timeout_and_deadline_are_mutually_exclusive(self, shared):
        with pytest.raises(ValueError):
            shared.search(1, timeout=1.0, deadline=Deadline.unbounded())

    def test_one_deadline_spans_several_calls(self, shared):
        shared.insert_many(range(100))
        budget = Deadline.after(30.0)
        assert shared.count_range(0, 99, deadline=budget) == 100
        assert shared.rank(50, deadline=budget) == 50

    def test_default_timeout_covers_locked_properties(self):
        """The stats/params properties take the read lock (and therefore
        honour the default budget) instead of peeking at a moving file."""
        inner = DenseSequentialFile(num_pages=64, d=8, D=40)
        shared = ThreadSafeDenseFile(inner, default_timeout=0.05)
        shared.lock.acquire_write()
        try:
            with pytest.raises(OperationTimeout):
                shared.stats
            with pytest.raises(OperationTimeout):
                shared.params
        finally:
            shared.lock.release_write()
        assert shared.params.num_pages == 64
        assert shared.stats is inner.stats


class TestOverload:
    def test_saturated_gate_sheds_writes_and_serves_reads(self):
        inner = DenseSequentialFile(num_pages=64, d=8, D=40)
        shared = ThreadSafeDenseFile(inner, max_in_flight=1, shed_load=True)
        shared.insert(1)
        # Saturate the only in-flight slot.
        slot = shared.gate.enter("read")
        try:
            # Writes are rejected immediately — no queueing, no timeout.
            start = time.monotonic()
            with pytest.raises(OverloadError) as info:
                shared.insert(2, timeout=5.0)
            assert time.monotonic() - start < 1.0
            assert info.value.in_flight == 1
            # A read queues and completes once the slot frees, well
            # within its deadline.
            releaser = threading.Timer(
                0.05, lambda: slot.__exit__(None, None, None)
            )
            releaser.start()
            try:
                assert shared.search(1, timeout=5.0).key == 1
            finally:
                releaser.join()
        finally:
            pass
        stats = shared.gate.stats()
        assert stats["shed_writes"] == 1
        assert stats["rejected"] == 1
        # The shed write never reached the file.
        assert len(shared) == 1

    def test_full_wait_queue_rejects_everything(self):
        inner = DenseSequentialFile(num_pages=64, d=8, D=40)
        shared = ThreadSafeDenseFile(inner, max_in_flight=1, max_queued=0)
        slot = shared.gate.enter("read")
        try:
            with pytest.raises(OverloadError):
                shared.search(1, timeout=5.0)
            with pytest.raises(OverloadError):
                shared.insert(1, timeout=5.0)
        finally:
            slot.__exit__(None, None, None)
        shared.insert(1)
        assert len(shared) == 1

    def test_no_gate_by_default(self, shared):
        assert shared.gate is None
        report = shared.metrics.snapshot()
        assert not any(key.startswith("concurrent.admission.") for key in report)
        assert report["concurrent.rwlock.writers_served"] >= 0

    def test_overload_reports_queue_depth_under_concurrent_writers(self):
        """Shed writes carry an honest snapshot of the congestion.

        With one in-flight slot held and several readers queued, every
        concurrently shed writer must see ``queue_depth`` equal to the
        real number of waiters and ``in_flight`` equal to the saturated
        slot count — the numbers a load balancer would shed on.
        """
        from repro.concurrent import AdmissionGate

        gate = AdmissionGate(max_in_flight=1, max_queued=8, shed_load=True)
        slot = gate.enter("read")
        readers = []
        try:
            # Three readers pile up behind the held slot.
            budget = Deadline.after(10.0)
            for _ in range(3):
                reader = threading.Thread(
                    target=lambda: gate.enter("read", budget).__exit__(
                        None, None, None
                    )
                )
                reader.start()
                readers.append(reader)
            deadline = time.monotonic() + 5.0
            while gate.queue_depth < 3:
                assert time.monotonic() < deadline, "readers never queued"
                time.sleep(0.005)

            # Concurrent writers are all shed, each with the true depth.
            errors = []

            def write():
                try:
                    gate.enter("write")
                except OverloadError as error:
                    errors.append(error)

            writers = [threading.Thread(target=write) for _ in range(4)]
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(5.0)
            assert len(errors) == 4
            for error in errors:
                assert error.queue_depth == 3
                assert error.in_flight == 1
            assert gate.stats()["shed_writes"] == 4
        finally:
            slot.__exit__(None, None, None)
            for reader in readers:
                reader.join(5.0)
        assert gate.queue_depth == 0 and gate.in_flight == 0


class TestDeadlineAwareRetries:
    def test_retry_backoff_stops_at_the_deadline(self):
        # Every logical operation faults, so the retry loop would spin
        # (with 50ms backoff) until max_attempts without a budget.
        plan = FaultPlan(seed=1, transient_rate=1.0)
        stack = fault_tolerant_stack(
            MemoryStore(64),
            plan,
            RetryPolicy(max_attempts=10_000, base_delay=0.05),
        )
        inner = DenseSequentialFile(num_pages=64, d=8, D=40, store=stack)
        shared = ThreadSafeDenseFile(inner)
        start = time.monotonic()
        with pytest.raises(OperationTimeout):
            shared.insert(1, timeout=0.2)
        # The loop gave up near the budget, not after 10k attempts.
        assert time.monotonic() - start < 2.0
        assert stack.deadline_giveups >= 1
        report = shared.metrics.snapshot()
        assert report["storage.faults.deadline_giveups"] >= 1

    def test_unbounded_calls_keep_absorbing_transients(self):
        plan = FaultPlan(seed=2, transient_rate=0.2, max_transients=50)
        stack = fault_tolerant_stack(
            MemoryStore(64), plan, RetryPolicy(max_attempts=100)
        )
        inner = DenseSequentialFile(num_pages=64, d=8, D=40, store=stack)
        shared = ThreadSafeDenseFile(inner)
        shared.insert_many(range(100))
        assert len(shared) == 100
        assert stack.giveups == 0
        assert stack.deadline_giveups == 0
        assert stack.retries == plan.transients_injected > 0



class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self):
        self.now = 50.0

    def __call__(self):
        return self.now


def guarded_front(clock=time.monotonic, lock=None):
    """A gated front over a retrying fault stack (no faults injected)."""
    stack = fault_tolerant_stack(
        MemoryStore(64), FaultPlan(seed=0), RetryPolicy(max_attempts=3)
    )
    inner = DenseSequentialFile(num_pages=64, d=8, D=40, store=stack)
    front = ThreadSafeDenseFile(
        inner, max_in_flight=1, max_queued=0, clock=clock, lock=lock
    )
    front.insert_many(range(0, 40, 2))
    return front


def assert_idle(front):
    """Lock free, gate empty, no retry layer left holding a budget."""
    stats = front.lock.stats()
    assert stats["active_readers"] == 0
    assert not stats["writer_active"]
    assert stats["queue_depth"] == 0
    assert front.gate.in_flight == 0 and front.gate.queue_depth == 0
    layers = find_retrying_stores(front.inner.store)
    assert layers
    assert all(layer.deadline is None for layer in layers)


class TestGuard:
    """Every path out of a guarded call undoes what it set up."""

    def test_budget_reaches_the_retry_layers_for_the_call_only(self):
        front = guarded_front()
        layers = find_retrying_stores(front.inner.store)
        seen = []
        search = front.inner.search
        front.inner.search = lambda key: (
            seen.extend(layer.deadline for layer in layers), search(key)
        )[1]
        budget = Deadline.after(5.0)
        assert front.search(4, deadline=budget).key == 4
        assert seen and all(deadline is budget for deadline in seen)
        assert_idle(front)
        # An unbounded call hands nothing to the retry layers.
        seen.clear()
        front.search(4)
        assert seen and all(deadline is None for deadline in seen)

    def test_admission_refused(self):
        front = guarded_front()
        slot = front.gate.enter(READ)
        try:
            with pytest.raises(OverloadError):
                front.insert(1, timeout=5.0)
        finally:
            slot.__exit__(None, None, None)
        assert_idle(front)
        assert front.lock.stats()["writers_served"] == 1  # the preload

    def test_lock_acquire_timeout(self):
        front = guarded_front()
        front.lock.acquire_write()
        try:
            with pytest.raises(OperationTimeout):
                front.search(4, timeout=0.02)
        finally:
            front.lock.release_write()
        assert_idle(front)
        assert front.lock.stats()["timeouts"] == 1

    def test_deadline_spent_after_locking(self):
        clock = FakeClock()
        front = guarded_front(clock=clock)
        acquire_write = front.lock.acquire_write

        def slow_acquire(deadline=None):
            acquire_write(deadline)
            clock.now += 10.0  # the budget runs out while locking

        front.lock.acquire_write = slow_acquire
        with pytest.raises(OperationTimeout, match="admitted and locked"):
            front.insert(1, timeout=1.0)
        assert_idle(front)
        assert 1 not in front.inner

    def test_inner_operation_raises(self):
        front = guarded_front()
        with pytest.raises(RecordNotFoundError):
            front.delete(3, timeout=5.0)
        assert_idle(front)
        front.delete(4, timeout=5.0)  # the file keeps serving
        assert_idle(front)

    def test_sanitized_lock_sees_one_pair_per_operation(self):
        runtime = SanitizerRuntime()
        events = []
        for name in ("on_acquired", "on_release"):
            original = getattr(runtime, name)

            def record(label, mode, _name=name, _original=original):
                events.append((_name, mode))
                _original(label, mode)

            setattr(runtime, name, record)
        front = guarded_front(lock=SanitizedRWLock(runtime))
        operations = {
            "insert": lambda: front.insert(101, timeout=5.0),
            "search": lambda: front.search(101),
            "update": lambda: front.update(101, "v"),
            "delete": lambda: front.delete(101),
            "range": lambda: front.range(0, 10),
            "scan": lambda: front.scan(0, 3),
            "rank": lambda: front.rank(10),
            "count_range": lambda: front.count_range(0, 10),
            "select": lambda: front.select(0),
            "min": lambda: front.min(),
            "max": lambda: front.max(),
            "successor": lambda: front.successor(4),
            "predecessor": lambda: front.predecessor(4),
            "contains": lambda: 4 in front,
            "len": lambda: len(front),
            "stats": lambda: front.stats,
            "missing delete": lambda: front.delete(999),
        }
        for name, operation in operations.items():
            events.clear()
            try:
                operation()
            except RecordNotFoundError:
                assert name == "missing delete"
            assert [event for event, _ in events] == [
                "on_acquired", "on_release"
            ], name
            assert events[0][1] == events[1][1], name
        assert_idle(front)


class TestThreadsafeOpenFlag:
    """A durable file shared between threads is wrapped by its caller."""

    def test_journaled_threadsafe_round_trip(self, tmp_path):
        from repro import JournaledDenseFile

        path = str(tmp_path / "ts.dsf")
        created = ThreadSafeDenseFile(
            JournaledDenseFile.create(path, num_pages=32, d=8, D=40)
        )
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(
                pool.map(
                    lambda base: [
                        created.insert(base * 100 + i) for i in range(25)
                    ],
                    range(4),
                )
            )
        created.validate()
        created.close()
        reopened = ThreadSafeDenseFile(JournaledDenseFile.open(path))
        assert len(reopened) == 100
        assert reopened.shared_reads is False
        reopened.close()

    def test_persistent_threadsafe_flag(self, tmp_path):
        from repro import PersistentDenseFile

        path = str(tmp_path / "ps.dsf")
        created = ThreadSafeDenseFile(
            PersistentDenseFile.create(path, num_pages=32, d=8, D=40)
        )
        created.insert_many(range(10))
        created.close()
        # create/open return the unwrapped facade; the caller wraps it.
        plain = PersistentDenseFile.open(path)
        assert not isinstance(plain, ThreadSafeDenseFile)
        assert len(plain) == 10
        plain.close()


class TestLifecyclePassThrough:
    def test_flush_close_and_context_manager(self, tmp_path):
        from repro import PersistentDenseFile

        path = str(tmp_path / "shared.dsf")
        with ThreadSafeDenseFile(
            PersistentDenseFile.create(path, num_pages=32, d=8, D=40)
        ) as shared:
            shared.insert_many(range(50))
            shared.flush()
            assert not shared.closed
            # The flushed state is already durable before close.
            from repro.storage.ondisk import DiskPagedStore

            # (peek at the OS file through a second handle)
            with DiskPagedStore.open(path) as raw:
                stored = sum(
                    len(raw.read_page(p)) for p in range(1, 33)
                )
            assert stored == 50
        assert shared.closed
        with PersistentDenseFile.open(path) as reopened:
            assert len(reopened) == 50

    def test_flush_close_on_memory_file(self, shared):
        shared.insert_many(range(10))
        shared.flush()  # no-op on the memory backend
        shared.close()  # idem: a memory store holds no OS resources
        assert not shared.closed  # memory backends never report closed
        assert len(shared) == 10

    def test_concurrent_flushes_are_serialized(self, tmp_path):
        from repro import PersistentDenseFile

        path = str(tmp_path / "flushy.dsf")
        shared = ThreadSafeDenseFile(
            PersistentDenseFile.create(
                path, num_pages=64, d=8, D=40, cache_pages=4,
            )
        )

        def writer(base):
            for offset in range(40):
                shared.insert(base * 1000 + offset)
                if offset % 10 == 0:
                    shared.flush()

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(writer, range(4)))
        shared.validate()
        assert len(shared) == 160
        shared.close()
        with PersistentDenseFile.open(path) as reopened:
            assert len(reopened) == 160
