"""File set-up: thresholds per node shape, the one-pass counter rebuild,
the loop-built calibrator tree, the single-sort bulk load and the
one-frame disk file creation.

Each is pinned to the computation it replaced: the per-node density
predicates of :class:`DensityParams`, one :meth:`CalibratorTree.add`
per page, the recursive tree build, and golden digests of the state
and of the created files as the earlier code left them.
"""

import hashlib
import os

import pytest

from repro import DenseSequentialFile, PersistentDenseFile
from repro.baselines import (
    BPlusTree,
    OverflowChainFile,
    PackedMemoryArray,
    PackedSequentialFile,
)
from repro.benchmark import run_bench
from repro.core.calibrator import CalibratorTree
from repro.core.control2 import Control2Engine
from repro.core.errors import DuplicateKeyError, UsageError
from repro.core.params import DensityParams
from repro.storage.backend import BufferedStore, MemoryStore
from repro.storage.ondisk import DiskPagedStore


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def tree_arrays(tree):
    return (tree.lo, tree.hi, tree.depth, tree.parent, tree.left, tree.right,
            tree.leaf_of_page, tree.paths)


def recursive_arrays(num_pages):
    """The tree as the recursive build laid it out (preorder ids)."""
    lo, hi, depth, parent, left, right = [], [], [], [], [], []
    leaf_of_page = [-1] * (num_pages + 1)

    def build(first, last, father, level):
        node = len(lo)
        for column, value in ((lo, first), (hi, last), (depth, level),
                              (parent, father), (left, -1), (right, -1)):
            column.append(value)
        if first == last:
            leaf_of_page[first] = node
            return node
        mid = (first + last) // 2
        left[node] = build(first, mid, node, level + 1)
        right[node] = build(mid + 1, last, node, level + 1)
        return node

    build(1, num_pages, -1, 0)
    paths = [()]
    for page in range(1, num_pages + 1):
        node, path = leaf_of_page[page], []
        while node >= 0:
            path.append(node)
            node = parent[node]
        paths.append(tuple(path))
    return lo, hi, depth, parent, left, right, leaf_of_page, paths


def reference_counts(tree, occupancies):
    """The counters one ``add`` per non-empty page builds."""
    reference = CalibratorTree(tree.num_pages)
    for page, occupancy in enumerate(occupancies, 1):
        if occupancy:
            reference.add(page, occupancy)
    return reference.count


def state_digest(dense) -> str:
    """Directory, page columns, counters, flags, size and logical meter."""
    engine = dense.engine
    pagefile = engine.pagefile
    columns = [(pagefile.page(page)._keys, pagefile.page(page)._values)
               for page in range(1, pagefile.num_pages + 1)]
    return digest((pagefile._nonempty, pagefile._mins, columns,
                   engine.calibrator.count, engine.calibrator.flag,
                   engine.size, engine.disk.stats.page_accesses,
                   engine.disk.stats.cost))


def pool_digest(dense) -> str:
    """Digest of a buffered-over-disk file's counters, read from its
    registry snapshot and laid out as the stores' ``stats()`` dicts were
    before the registry (configuration and the nested ``"inner"`` dict
    included), so the pinned digest proves every value unchanged."""
    snapshot = dense.store_stats()
    store = dense.store
    stats = {name: snapshot[f"storage.bufferpool.{name}"]
             for name in store.COUNTERS}
    stats.update(backend="buffered", capacity=store.pool.stats.capacity,
                 readahead=store.readahead)
    stats["inner"] = {"backend": "disk", **{
        name: snapshot[f"storage.backend.{name}"]
        for name in ("gets", "puts", "physical_reads", "physical_writes")
    }, "quarantined": sorted(store.inner.quarantined)}
    return digest(sorted((key, repr(value)) for key, value in stats.items()))


# ----------------------------------------------------------------------
# the calibrator tree
# ----------------------------------------------------------------------

#: SHA-256 of ``repr(tree_arrays(CalibratorTree(M)))`` from the recursive
#: build.
TREE_DIGESTS = {
    1: "65b092b7457cd8aa4d8b72cc1af981d8483af909664f4e998127714a73728d7e",
    2: "0f15e42856c5b889744ecc577d371d841ccdd1a960b98e877d590209d2d6b76e",
    3: "4cbf99d6e5bff7d71f49a9b3155053425249800a75d5cb1931eb820b98f3e8ed",
    5: "46059836d2da1c0ff92438205b199254b2b9c622f849cf2a3896f801abc38cf5",
    8: "54d1b0eee5a9a12d24e74fca94605a2b25b3391426c7ab18a6960e0014757be6",
    13: "0d161bafadae0b4ecbfba8738cf2e271648f90dc4fef864eaef07e290a0aef78",
    64: "e18f0c15a41ada82dfa1592def73a07fb9cabb6713de9bf47be6d3225d6971c7",
    100: "4ec914b09324197dadbf4fba6f8c594dba76b85bb787a516d19c50f1c27ad20c",
    1000: "30a9cf5f3dcadfb111e39aeb327f7d4a052ea88ff6fcb2bb2f49f371123437b2",
    4103: "1d476611f6f62155652019f4af2dda7c5aedcf5bf65e48a7bc3f6eebc0bc2b5e",
    8192: "a9c1f15b825966f9c2e58204b0a60a684042fcc2aa32d8f90c7242cba4fdf91b",
}


class TestTreeArrays:
    def test_five_pages_spelled_out(self):
        tree = CalibratorTree(5)
        assert tree_arrays(tree) == (
            [1, 1, 1, 1, 2, 3, 4, 4, 5],
            [5, 3, 2, 1, 2, 3, 5, 4, 5],
            [0, 1, 2, 3, 3, 2, 1, 2, 2],
            [-1, 0, 1, 2, 2, 1, 0, 6, 6],
            [1, 2, 3, -1, -1, -1, 7, -1, -1],
            [6, 5, 4, -1, -1, -1, 8, -1, -1],
            [-1, 3, 4, 5, 7, 8],
            [(), (3, 2, 1, 0), (4, 2, 1, 0), (5, 1, 0), (7, 6, 0), (8, 6, 0)],
        )

    @pytest.mark.parametrize("num_pages", list(range(1, 130)) + [1000, 4103])
    def test_matches_the_recursive_build(self, num_pages):
        assert tree_arrays(CalibratorTree(num_pages)) == recursive_arrays(
            num_pages
        )

    @pytest.mark.parametrize("num_pages", sorted(TREE_DIGESTS))
    def test_golden_digest(self, num_pages):
        assert digest(tree_arrays(CalibratorTree(num_pages))) == (
            TREE_DIGESTS[num_pages]
        )

    def test_counters_and_flags_start_clear(self):
        tree = CalibratorTree(100)
        assert tree.count == [0] * 199
        assert tree.flag == [False] * 199
        assert tree.flags_below == [0] * 199


# ----------------------------------------------------------------------
# CONTROL 2's thresholds and step-3 pairs
# ----------------------------------------------------------------------


def assert_thresholds_match_params(engine):
    tree, params = engine.calibrator, engine.params
    for node in range(len(tree)):
        pages, depth = tree.pages_in(node), tree.depth[node]
        for thirds in range(4):
            at_least = engine._ge_thresholds[thirds][node]
            assert params.density_at_least(at_least, pages, depth, thirds)
            assert not params.density_at_least(at_least - 1, pages, depth, thirds)
            at_most = engine._le_thresholds[thirds][node]
            assert params.density_at_most(at_most, pages, depth, thirds)
            assert not params.density_at_most(at_most + 1, pages, depth, thirds)
        assert max(0, engine._ge_thresholds[0][node]) == params.threshold_count(
            pages, depth, 0
        )
        if node:  # SHIFT's guard capacity: never the root, always positive
            assert engine._ge_thresholds[0][node] > 0


def assert_step3_pairs_follow_the_paths(engine):
    tree = engine.calibrator
    warn = engine._ge_thresholds[2]
    assert len(engine._step3_pairs) == tree.num_pages + 1
    for page, path in enumerate(tree.paths):
        pairs = engine._step3_pairs[page]
        assert pairs == tuple((node, warn[node]) for node in path[:-1])


GEOMETRIES = [(8, 48), (1, 3), (5, 60), (3, 50)]


class TestThresholds:
    @pytest.mark.parametrize("d, D", GEOMETRIES)
    def test_small_files(self, d, D):
        for num_pages in range(2, 65):
            engine = Control2Engine(DensityParams(num_pages, d, D))
            assert_thresholds_match_params(engine)
            assert_step3_pairs_follow_the_paths(engine)

    @pytest.mark.parametrize("num_pages", [100, 1000, 4103, 8192])
    @pytest.mark.parametrize("d, D", [(8, 48), (3, 50)])
    def test_large_files(self, num_pages, d, D):
        engine = Control2Engine(DensityParams(num_pages, d, D))
        assert_thresholds_match_params(engine)
        assert_step3_pairs_follow_the_paths(engine)

    def test_macro_block_engine(self):
        engine = DenseSequentialFile(64, 8, 14).engine  # tight slack
        assert engine.block_factor > 1
        assert_thresholds_match_params(engine)
        assert_step3_pairs_follow_the_paths(engine)

    def test_each_node_has_one_pair_shared_by_its_pages(self):
        engine = Control2Engine(DensityParams(1000, 8, 48))
        shared = {}
        for pairs in engine._step3_pairs:
            for pair in pairs:
                assert shared.setdefault(pair[0], pair) is pair
        assert len(shared) == len(engine.calibrator) - 1  # all but the root

    def test_power_of_two_has_one_shape_per_depth(self):
        engine = Control2Engine(DensityParams(8192, 8, 48))
        tree = engine.calibrator
        shapes = {(tree.depth[node], tree.pages_in(node))
                  for node in range(len(tree))}
        assert len(shapes) == 14
        assert len(set(engine._ge_thresholds[2])) <= 14


# ----------------------------------------------------------------------
# the one-pass counter rebuild
# ----------------------------------------------------------------------


class TestRecount:
    def test_matches_one_add_per_page(self):
        tree = CalibratorTree(37)
        occupancies = [(page * 7) % 11 for page in range(37)]
        tree.recount(0, occupancies)
        assert tree.count == reference_counts(tree, occupancies)

    def test_overwrites_earlier_counts(self):
        tree = CalibratorTree(9)
        tree.add(3, 5)
        tree.recount(0, [1] * 9)
        assert tree.count == reference_counts(tree, [1] * 9)

    def test_a_subtree_leaves_the_rest_alone(self):
        tree = CalibratorTree(13)
        occupancies = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9]
        tree.recount(0, occupancies)
        node = tree.right[tree.left[tree.root]]
        assert (tree.lo[node], tree.hi[node]) == (5, 7)
        before = list(tree.count)
        tree.recount(node, [2, 0, 7])
        occupancies[4:7] = [2, 0, 7]
        expected = reference_counts(tree, occupancies)
        subtree = range(node, node + 2 * 3 - 1)
        for other, value in enumerate(tree.count):
            # Only the subtree changes; its ancestors keep their counts.
            assert value == (expected[other] if other in subtree else before[other])

    def test_needs_one_occupancy_per_page(self):
        with pytest.raises(UsageError):
            CalibratorTree(4).recount(0, [1, 2, 3])

    def test_after_bulk_load(self):
        dense = DenseSequentialFile(300, 8, 48)
        dense.bulk_load(range(0, 3000, 3))
        tree = dense.engine.calibrator
        assert tree.count == reference_counts(tree, dense.occupancies())
        dense.validate()

    def test_after_load_occupancies(self):
        dense = DenseSequentialFile(37, 4, 40)
        occupancies = [page % 9 for page in range(37)]
        dense.engine.load_occupancies(occupancies, key_start=5, key_gap=3)
        tree = dense.engine.calibrator
        assert dense.occupancies() == occupancies
        assert tree.count == reference_counts(tree, occupancies)
        dense.validate()

    def test_after_a_durable_reopen(self, tmp_path):
        path = str(tmp_path / "file.dsf")
        dense = PersistentDenseFile.create(path, 300, 8, 48)
        dense.bulk_load(range(0, 3000, 2))
        for key in range(1, 1000, 2):
            dense.insert(key)
        dense.close()
        reopened = PersistentDenseFile.open(path)
        try:
            tree = reopened.engine.calibrator
            assert tree.count == reference_counts(tree, reopened.occupancies())
            assert len(reopened) == 2000
            reopened.validate()
        finally:
            reopened.close()

    def test_after_compact(self):
        dense = DenseSequentialFile(300, 8, 48)
        dense.bulk_load(range(0, 3000, 2))
        for key in range(0, 2000, 6):
            dense.delete(key)
        dense.compact()
        tree = dense.engine.calibrator
        assert tree.count == reference_counts(tree, dense.occupancies())
        dense.validate()


# ----------------------------------------------------------------------
# bulk loading: the state and the meters it leaves
# ----------------------------------------------------------------------

#: ``state_digest`` (and ``pool_digest``) of each set-up, as the
#: per-page-sorting, per-page-``add`` loader left it.
STATE_DIGESTS = {
    "memory": "c8ef885d12e9c6831c062ac7ee2156d47a2655f0960e2031fa1839a6e73661ce",
    "buffered": "c8ef885d12e9c6831c062ac7ee2156d47a2655f0960e2031fa1839a6e73661ce",
    "pool": "aadeb6f92ac52219269a258206fc7aacea82712dc71de879b45c7ad69471247c",
    "macro": "27b65c13cab926ddb27d947f4d7738f70f4a179d5852c5a5c3d090000d4552df",
    "occupancies": "e77f9750b17c9cc938587151f6383c7973e3eed55bc57428eebed7b845c3386d",
}


def _records():
    keys = range(0, 200_000, 10)
    return [(key, key * 3) for key in reversed(keys)]


class TestBulkLoadState:
    def test_memory(self):
        dense = DenseSequentialFile(4096, 8, 48)
        dense.bulk_load(_records())
        assert state_digest(dense) == STATE_DIGESTS["memory"]

    def test_buffered_meters_and_pool(self, tmp_path):
        dense = DenseSequentialFile(
            4096, 8, 48, backend="buffered", path=str(tmp_path / "b.dsf"),
            cache_pages=64, readahead=8,
        )
        try:
            dense.bulk_load(_records())
            assert state_digest(dense) == STATE_DIGESTS["buffered"]
            assert pool_digest(dense) == STATE_DIGESTS["pool"]
        finally:
            dense.close()

    def test_macro_blocks(self):
        dense = DenseSequentialFile(64, 8, 14)
        dense.bulk_load(range(0, 900, 3))
        assert state_digest(dense) == STATE_DIGESTS["macro"]

    def test_load_occupancies(self):
        dense = DenseSequentialFile(37, 4, 40)
        records = dense.engine.load_occupancies(
            [page % 9 for page in range(37)], key_start=5, key_gap=3
        )
        assert state_digest(dense) == STATE_DIGESTS["occupancies"]
        assert [record.key for record in records] == list(range(5, 5 + 3 * 144, 3))
        assert all(record.value is None for record in records)

    def test_bench_bulk_load_cells(self):
        report = run_bench(scenarios=("bulk_load",),
                           backends=("memory", "buffered", "disk"), quick=True)
        cells = {cell["backend"]: cell for cell in report["results"]}
        assert {name: cell["page_accesses"] for name, cell in cells.items()} == {
            "memory": 256, "buffered": 256, "disk": 256,
        }
        memory = cells["memory"]["counters"]
        assert {key: value for key, value in memory.items()
                if key.startswith("storage.backend.")} == {
            "storage.backend.gets": 0, "storage.backend.puts": 256,
        }
        buffered = cells["buffered"]["counters"]
        pool, inner = "storage.bufferpool.", "storage.backend."
        assert {key: buffered[key] for key in (
            pool + "misses", pool + "evictions", pool + "physical_reads",
            pool + "physical_writes", inner + "gets", inner + "puts",
            pool + "hits", pool + "prefetches",
        )} == {
            pool + "misses": 256, pool + "evictions": 192,
            pool + "physical_reads": 256, pool + "physical_writes": 192,
            inner + "gets": 256, inner + "puts": 192, pool + "hits": 0,
            pool + "prefetches": 0,
        }
        disk = cells["disk"]["counters"]
        assert (disk[inner + "puts"], disk[inner + "physical_writes"],
                disk[inner + "gets"]) == (256, 256, 0)
        for cell in cells.values():
            meter = cell["counters"]
            assert meter["storage.disk.reads"] + meter["storage.disk.writes"] == 256
            assert meter["core.balance_headroom"] >= 0


class TestLoadingRefusals:
    def test_bulk_load_refuses_duplicate_keys(self):
        dense = DenseSequentialFile(8, 8, 48)
        with pytest.raises(DuplicateKeyError):
            dense.bulk_load([(1, "a"), (1, "b"), (2, "c")])
        assert len(dense) == 0
        assert list(dense.items()) == []
        assert dense.engine.disk.stats.page_accesses == 0
        assert dense.engine.store.stats()["puts"] == 0
        dense.validate()
        # Still empty and usable: a clean load and inserts go through.
        dense.bulk_load([(1, "a"), (2, "c")])
        dense.insert(3, "d")
        assert [key for key, _ in dense.items()] == [1, 2, 3]
        dense.validate()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DenseSequentialFile(8, 8, 48),
            lambda: PackedSequentialFile(8, 8),
            lambda: PackedMemoryArray(8, 8),
            lambda: OverflowChainFile(8, 8),
            BPlusTree,
        ],
        ids=["dense", "sequential", "pma", "overflow", "btree"],
    )
    def test_every_bulk_load_refuses_duplicate_keys(self, build):
        structure = build()
        with pytest.raises(DuplicateKeyError):
            structure.bulk_load([(1, "a"), (1, "b"), (2, "c")])
        assert len(structure) == 0
        structure.bulk_load([(1, "a"), (2, "c")])
        assert len(structure) == 2
        assert structure.search(1).value == "a"

    def test_bulk_load_finds_a_duplicate_anywhere(self):
        dense = DenseSequentialFile(64, 8, 48)
        keys = list(range(400)) + [399]
        with pytest.raises(DuplicateKeyError):
            dense.bulk_load(reversed(keys))
        assert len(dense) == 0
        dense.validate()

    @pytest.mark.parametrize("key_gap", [0, -1])
    def test_load_occupancies_refuses_a_gap_below_one(self, key_gap):
        dense = DenseSequentialFile(8, 8, 48)
        with pytest.raises(UsageError):
            dense.engine.load_occupancies([2] * 8, key_gap=key_gap)
        assert len(dense) == 0
        dense.validate()

    def test_load_occupancies_refuses_a_negative_count(self):
        dense = DenseSequentialFile(8, 8, 48)
        with pytest.raises(UsageError):
            dense.engine.load_occupancies([2, -1, 2, 2, 2, 2, 2, 2])
        assert len(dense) == 0


# ----------------------------------------------------------------------
# disk file creation
# ----------------------------------------------------------------------

#: SHA-256 of the file ``DiskPagedStore.create`` wrote slot by slot.
CREATE_DIGESTS = {
    (1, 2, 4, 0, 0, 0):
        "a7c7fc38f8cb2354c30b53c33ec87de1c07dcbd5acfcb5561045b57cff66c063",
    (8, 8, 48, 0, 0, 0):
        "fe635a72bbf4c3982f93fbac0a998ff026f8c720b13dc55b88b2caca6ad1c173",
    (100, 4, 20, 3, 0, 1):
        "c8485e32a552c81844f49c6ee17664afe60ead8f20645e16f2ca1953fac9655c",
    (257, 8, 48, 0, 4096, 0):
        "1f5565f07771a6ad4a7fc36e287fc1b27ff73350459bf28d07485fd7a68773f3",
    (8192, 8, 48, 0, 0, 0):
        "8e319a718793fc1a3eb72e7559289a41a7fc7189ed779f27367567705e734fe4",
}


@pytest.mark.parametrize("geometry", sorted(CREATE_DIGESTS))
def test_created_file_is_byte_identical(tmp_path, geometry):
    num_pages, d, D, j, slot_capacity, version = geometry
    path = str(tmp_path / "created.dsf")
    DiskPagedStore.create(path, num_pages, d, D, j=j,
                          slot_capacity=slot_capacity, version=version).close()
    with open(path, "rb") as handle:
        assert hashlib.sha256(handle.read()).hexdigest() == (
            CREATE_DIGESTS[geometry]
        )
    reopened = DiskPagedStore.open(path)
    try:
        assert all(reopened.read_page(page) == []
                   for page in (1, num_pages))
    finally:
        reopened.close()


# ----------------------------------------------------------------------
# readahead windows
# ----------------------------------------------------------------------


class TestPrefetchWindow:
    def test_in_file_window_is_faulted_whole(self):
        store = BufferedStore(MemoryStore(16), capacity=8, readahead=4)
        assert store.prefetch(iter([5, 6, 7])) == 3
        assert store.pool.stats.prefetches == 3

    def test_window_is_cut_before_out_of_file_pages_are_dropped(self):
        store = BufferedStore(MemoryStore(8), capacity=8, readahead=4)
        # Cut to [0, 2, 9, 3]; 0 and 9 lie outside the file.
        assert store.prefetch([0, 2, 9, 3, 4, 5]) == 2
        assert store.pool.stats.prefetches == 2
        assert store.prefetch([4, 5]) == 2

    def test_empty_window(self):
        store = BufferedStore(MemoryStore(8), capacity=8, readahead=4)
        assert store.prefetch([]) == 0
