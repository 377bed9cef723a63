"""Cross-backend parity: one algorithm, three physical layers.

The whole point of the ``PageStore`` seam is that the *logical* file —
record placement, invariants, and the page-access counts the paper
bounds — is a function of the command sequence alone, independent of
where pages physically live.  These tests drive the same sequence of
inserts, deletes and scans against

* a :class:`~repro.storage.backend.MemoryStore` (pure simulator),
* a :class:`~repro.storage.backend.DiskStore` (write-through OS file),
* a :class:`~repro.storage.backend.BufferedStore` over a second
  on-disk file (live write-back LRU cache),

and assert byte-identical logical state across all three: contents,
``validate()`` outcomes, logical access counters, per-page encodings,
and (for the two durable stacks) byte-identical files after a flush.
"""

import os
import random
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.dense_file import DenseSequentialFile
from repro.storage.backend import BufferedStore, DiskStore, MemoryStore
from repro.storage.codec import encode_page

#: Small geometry that satisfies the slack condition (20 > 3*4) so all
#: runs use plain CONTROL 2; the cap is d*M = 64 records.
M, LOW_D, HIGH_D = 16, 4, 24

KEYS = st.integers(min_value=0, max_value=10_000)


def _make_files(workdir):
    """The three stacks under test, oldest substrate first."""
    mem = DenseSequentialFile(M, LOW_D, HIGH_D)
    disk = DenseSequentialFile(
        M, LOW_D, HIGH_D,
        store=DiskStore.create(
            os.path.join(workdir, "plain.dsf"), num_pages=M, d=LOW_D, D=HIGH_D
        ),
    )
    buffered = DenseSequentialFile(
        M, LOW_D, HIGH_D,
        store=BufferedStore(
            DiskStore.create(
                os.path.join(workdir, "cached.dsf"),
                num_pages=M, d=LOW_D, D=HIGH_D,
            ),
            capacity=4,
        ),
    )
    return [mem, disk, buffered]


def _assert_parity(files):
    """Logical state must be indistinguishable across every backend."""
    reference = files[0]
    ref_pages = [
        encode_page(reference.engine.pagefile.page(p).records())
        for p in range(1, M + 1)
    ]
    for other in files[1:]:
        assert len(other) == len(reference)
        assert other.occupancies() == reference.occupancies()
        for page_number in range(1, M + 1):
            encoded = encode_page(
                other.engine.pagefile.page(page_number).records()
            )
            assert encoded == ref_pages[page_number - 1]
        # The paper's quantity: logical accesses never depend on the
        # physical layer.
        assert other.stats.reads == reference.stats.reads
        assert other.stats.writes == reference.stats.writes
        assert other.stats.cost == reference.stats.cost
        other.validate()
    reference.validate()


class BackendParityMachine(RuleBasedStateMachine):
    """Apply every command to all three stacks and compare after each."""

    @initialize()
    def setup(self):
        self.workdir = tempfile.mkdtemp(prefix="parity-")
        self.files = _make_files(self.workdir)
        self.keys = set()

    @rule(key=KEYS)
    def insert(self, key):
        if key in self.keys or len(self.keys) >= LOW_D * M:
            return
        self.keys.add(key)
        for dense in self.files:
            dense.insert(key, f"v{key}")

    @rule(key=KEYS)
    def delete(self, key):
        if key not in self.keys:
            return
        self.keys.remove(key)
        for dense in self.files:
            dense.delete(key)

    @rule(lo=KEYS, hi=KEYS)
    def scan(self, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        expected = sorted(k for k in self.keys if lo <= k <= hi)
        for dense in self.files:
            assert [r.key for r in dense.range(lo, hi)] == expected

    @invariant()
    def backends_agree(self):
        if hasattr(self, "files"):
            _assert_parity(self.files)

    def teardown(self):
        if hasattr(self, "files"):
            for dense in self.files:
                dense.close()
            shutil.rmtree(self.workdir, ignore_errors=True)


TestBackendParity = BackendParityMachine.TestCase
TestBackendParity.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)


class TestDeterministicParity:
    """A longer seeded stream, checked once at the end (fast path)."""

    @pytest.fixture
    def workdir(self):
        path = tempfile.mkdtemp(prefix="parity-det-")
        yield path
        shutil.rmtree(path, ignore_errors=True)

    def test_mixed_stream_ends_identical(self, workdir):
        files = _make_files(workdir)
        rng = random.Random(86)
        live = set()
        for _ in range(600):
            if live and rng.random() < 0.4:
                key = rng.choice(sorted(live))
                live.remove(key)
                for dense in files:
                    dense.delete(key)
            else:
                key = rng.randrange(10_000)
                if key in live or len(live) >= LOW_D * M:
                    continue
                live.add(key)
                for dense in files:
                    dense.insert(key, key * 3)
        _assert_parity(files)

        # After a flush the two durable stacks are byte-for-byte equal:
        # the cache changes when pages are written, never what is written.
        for dense in files[1:]:
            dense.flush()
        plain = open(os.path.join(workdir, "plain.dsf"), "rb").read()
        cached = open(os.path.join(workdir, "cached.dsf"), "rb").read()
        assert plain == cached
        for dense in files:
            dense.close()

    def test_buffered_memory_matches_memory(self, workdir):
        """Cache over the simulator: logical meters stay identical."""
        mem = DenseSequentialFile(M, LOW_D, HIGH_D)
        cached = DenseSequentialFile(
            M, LOW_D, HIGH_D, backend="buffered", cache_pages=4
        )
        for key in range(0, 128, 2):
            mem.insert(key)
            cached.insert(key)
        for key in range(0, 128, 8):
            mem.delete(key)
            cached.delete(key)
        assert cached.stats.reads == mem.stats.reads
        assert cached.stats.writes == mem.stats.writes
        assert list(cached.items()) == list(mem.items())
        mem.validate()
        cached.validate()
        assert isinstance(cached.store, BufferedStore)
        assert isinstance(cached.store.inner, MemoryStore)
        pool = cached.store.pool.stats
        assert pool.accesses == pool.hits + pool.misses > 0
