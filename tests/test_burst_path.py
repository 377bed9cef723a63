"""CONTROL 2's listener-less burst path against its reference.

The path that runs when no moment listener is attached fuses a
flag-free command's counter bump with step 3, inlines SELECT's
single-warning case and step 4c into step 4, walks SHIFT's two paths
itself instead of calling
``CalibratorTree.nodes_separating``/``transfer``, rolls sweeps back
over the flagged set only, and makes a SHIFT move's three pool touches
in one step when both frames are resident and read.  A moment listener
switches all of that off: the command then takes ``tree.add`` and
``_run_steps_2_to_4``.  Three checks pin the fused path:

* golden digests of ``hotspot_burst``-shaped runs (consecutive-key
  bursts into one gap, then shuffled deletes) taken before the fusion;
* a Hypothesis suite that runs random burst/delete mixes twice, once
  fused and once with a recorder attached, a SHIFT spelled with the
  calibrator's ``nodes_separating``/``transfer`` and the pool's
  three-touch shortcut switched off, comparing the whole algorithm
  state, the meter and the pool after every command;
* ``encode_page`` and the column encoder against a value-by-value
  reference, byte for byte.
"""

import hashlib
import random
import struct
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import DenseSequentialFile, MacroBlockControl2Engine
from repro.core.errors import UsageError
from repro.core.invariants import (
    check_counters,
    check_directory,
    check_sequential_order,
    check_warning_flags,
)
from repro.core.trace import MomentRecorder
from repro.records import Record
from repro.storage.codec import encode_columns, encode_page, encode_value
from repro.storage.packed import (
    PAGE_FORMAT_OBJECT,
    decode_page_image,
    encode_records_image,
)

# ----------------------------------------------------------------------
# golden digests
# ----------------------------------------------------------------------

#: hotspot_burst's shape at a small geometry: D - d = 40 > 3 log2 M.
GOLDEN_PAGES, GOLDEN_D_LOW, GOLDEN_D_HIGH = 256, 8, 48
GOLDEN_PRELOAD = 1024
GOLDEN_BURST = 512
GOLDEN_CYCLES = 4
GOLDEN_SHIFT = 20


def _engine_state(engine):
    """Everything a command may change, as one comparable tuple."""
    tree = engine.calibrator
    stats = engine.stats
    return (
        tuple(tree.count),
        tuple(tree.flag),
        tuple(tree.flags_below),
        tuple(sorted(engine.destinations.items())),
        tuple(sorted(engine.sources.items())),
        engine.shift_calls,
        engine.stuck_shifts,
        engine.records_moved_total,
        engine.size,
        (stats.reads, stats.writes, stats.seeks, stats.cost),
    )


def _step_state(engine):
    """The per-command part of :func:`_engine_state`, cheap to take."""
    stats = engine.stats
    return (
        tuple(sorted(engine.calibrator.flagged_set)),
        tuple(sorted(engine.destinations.items())),
        tuple(sorted(engine.sources.items())),
        engine.shift_calls,
        engine.stuck_shifts,
        engine.records_moved_total,
        stats.reads,
        stats.writes,
        stats.seeks,
    )


def _golden_run(seed, j=None, path=None):
    """A digest of a hotspot_burst-shaped run and of its final state."""
    options = dict(backend="buffered", cache_pages=32, readahead=4)
    if path is not None:
        options["path"] = path
    dense = DenseSequentialFile(
        GOLDEN_PAGES, GOLDEN_D_LOW, GOLDEN_D_HIGH, j=j, **options
    )
    dense.bulk_load(
        (index << GOLDEN_SHIFT, (index << GOLDEN_SHIFT) * 7 + 1)
        for index in range(GOLDEN_PRELOAD)
    )
    engine = dense.engine
    pool = dense.store.pool
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for cycle in range(GOLDEN_CYCLES):
        base = (rng.randrange(GOLDEN_PRELOAD - 1) << GOLDEN_SHIFT) + 1
        keys = list(range(base, base + GOLDEN_BURST))
        if cycle % 2:
            keys.reverse()
        for key in keys:
            dense.insert(key, key * 7 + 1)
            digest.update(repr((_step_state(engine), asdict(pool.stats))).encode())
        rng.shuffle(keys)
        for key in keys:
            assert dense.delete(key).value == key * 7 + 1
            digest.update(repr((_step_state(engine), asdict(pool.stats))).encode())
    dense.validate()
    digest.update(repr(_engine_state(engine)).encode())
    digest.update(repr(list(pool.frames.items())).encode())
    digest.update(repr([(r.key, r.value) for r in engine.iter_records()]).encode())
    dense.flush()
    if path is not None:
        dense.store.inner.close()
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


GOLDEN = {
    "default-j": "dc6053c2fe32d9b6c76f9ebf893321c95003ea85f47fad06589f72db50212555",
    "j2": "e509d20dd00b4211b96b6a32d06a0365f83cbfe55f144a1e4af24954f76b6571",
    "j1": "8c497c09671a4f0638f97a046c69f8bf8ad9b5f0a765d0a6bf28ab75af0a1251",
    "disk": "0525bdbccb334b685061c671730ec03f66a05c9d1ac6886082acfedaee56b93a",
}


class TestHotspotBurstGolden:
    def test_default_j(self):
        assert _golden_run(1) == GOLDEN["default-j"]

    def test_j2(self):
        assert _golden_run(2, j=2) == GOLDEN["j2"]

    def test_j1(self):
        assert _golden_run(3, j=1) == GOLDEN["j1"]

    def test_disk_file_bytes(self, tmp_path):
        path = str(tmp_path / "burst.dsf")
        assert _golden_run(4, path=path) == GOLDEN["disk"]


# ----------------------------------------------------------------------
# the fused path against the recorder-attached reference
# ----------------------------------------------------------------------

#: A small geometry with CONTROL 2's slack (17 - 4 > 3 log2 16) and one
#: without it, which selects the macro-block engine.
PAGES, LOW, HIGH, TIGHT_HIGH = 16, 4, 17, 10
#: Preloaded keys sit this far apart, so every gap takes a burst.
GAP = 1000
PRELOAD = 44

BUILDERS = {
    "memory": lambda j: DenseSequentialFile(PAGES, LOW, HIGH, j=j),
    "buffered": lambda j: DenseSequentialFile(
        PAGES, LOW, HIGH, j=j, backend="buffered", cache_pages=3, readahead=2
    ),
    "macro": lambda j: DenseSequentialFile(PAGES, LOW, TIGHT_HIGH, j=j),
    "macro-buffered": lambda j: DenseSequentialFile(
        PAGES, LOW, TIGHT_HIGH, j=j, backend="buffered", cache_pages=2
    ),
}


def reference_shift(engine, node):
    """SHIFT spelled with the calibrator's reference walks:
    ``nodes_separating`` for UP(v) and ``transfer`` for the counters."""
    engine.shift_calls += 1
    tree = engine.calibrator
    father = tree.parent[node]
    dest = engine.destinations[node]
    moving_left = tree.is_right_child(node)
    if moving_left:
        source = engine.pagefile.next_nonempty_right(dest)
        if source is not None and source > tree.hi[father]:
            source = None
    else:
        source = engine.pagefile.next_nonempty_left(dest)
        if source is not None and source < tree.lo[father]:
            source = None
    if source is None:
        engine.stuck_shifts += 1
        return []
    engine.sources[node] = source
    guards = tree.nodes_separating(dest, source)
    full_at = engine._ge_thresholds[0]
    headroom = min(full_at[guard] - tree.count[guard] for guard in guards)
    movable = min(tree.leaf_count(source), max(0, headroom))
    changed = []
    if movable > 0:
        moved = engine.pagefile.move_records(source, dest, movable)
        engine.records_moved_total += moved
        changed = tree.transfer(source, dest, moved)
    for guard in reversed(guards):
        if tree.count[guard] >= full_at[guard]:
            engine.destinations[node] = (
                tree.hi[guard] + 1 if moving_left else tree.lo[guard] - 1
            )
            break
    return changed


def reference_roll_back(engine, father):
    """Roll-back rules 0/1 over both sons of every proper ancestor of
    ``father``, the paper's spelling of the candidate set."""
    tree = engine.calibrator
    lo, hi = tree.lo[father], tree.hi[father]
    ancestor = tree.parent[father]
    while ancestor >= 0:
        for candidate in (tree.left[ancestor], tree.right[ancestor]):
            dest = engine.destinations.get(candidate)
            if not tree.flag[candidate] or dest is None:
                continue
            if tree.is_right_child(candidate):
                if lo + 1 <= dest <= hi:
                    engine.destinations[candidate] = lo
            elif lo <= dest <= hi - 1:
                engine.destinations[candidate] = hi
        ancestor = tree.parent[ancestor]


class Reference:
    """The recorder-attached twin: every command takes ``tree.add`` and
    ``_run_steps_2_to_4`` with :func:`reference_shift` and
    :func:`reference_roll_back`, and the pool's one-step move is off.
    ``fired`` names the rarer rules a run reached."""

    def __init__(self, engine):
        self.recorder = MomentRecorder().attach(engine)
        engine.moment_listener = self.on_moment
        engine._shift = lambda node: reference_shift(engine, node)

        def watched_roll_back(father):
            before = dict(engine.destinations)
            reference_roll_back(engine, father)
            if engine.destinations != before:
                self.fired.add("roll-back")

        engine._roll_back_conflicting = watched_roll_back
        pool = getattr(engine.store, "pool", None)
        if pool is not None:
            pool.move_hits = lambda source, dest: False
        self.fired = set()
        self._flags = 0

    def on_moment(self, moment_type, engine):
        self.recorder.on_moment(moment_type, engine)
        flagged = len(engine.calibrator.flagged_set)
        if moment_type == "1":
            self._flags = flagged
            if flagged:
                self.fired.add("warning-up-start")
        elif moment_type == "2" and flagged < self._flags:
            self.fired.add("step-2-lowers")
        elif moment_type == "4a" and flagged > 1:
            self.fired.add("several-warnings")


def _assert_twins(fused, reference):
    """The fused engine and the reference agree on everything."""
    assert _engine_state(fused) == _engine_state(reference)
    assert _pool_state(fused.store) == _pool_state(reference.store)
    assert _pages(fused.store) == _pages(reference.store)


def _pages(store):
    return [
        (tuple(store.peek(page)._keys), tuple(store.peek(page)._values))
        for page in range(1, store.num_pages + 1)
    ]


def _pool_state(store):
    pool = getattr(store, "pool", None)
    if pool is None:
        return None
    return asdict(pool.stats), list(pool.frames.items()), set(pool._prefetched)


def _drive(builder, j, operations, seed=0, occupancies=None):
    """Run burst/delete operations on the fused file and on the
    reference, comparing after every command; returns the reference's
    ``fired`` set.

    The file starts with keys ``GAP`` apart: ``PRELOAD`` of them spread
    evenly, or ``occupancies[i]`` on engine page ``i + 1`` (the list is
    cut to the engine's pages and to its cap).  A burst inserts
    consecutive keys into one gap (skipping keys present and stopping
    at the cap); a delete operation removes that many seeded-random
    present keys.
    """
    fused = BUILDERS[builder](j).engine
    reference_engine = BUILDERS[builder](j).engine
    reference = Reference(reference_engine)
    assert fused.moment_listener is None
    if builder.startswith("macro"):
        assert isinstance(fused, MacroBlockControl2Engine)
    cap = getattr(fused, "physical_max_records", fused.params.max_records)
    if occupancies is None:
        present = set(range(0, PRELOAD * GAP, GAP))
        for engine in (fused, reference_engine):
            engine.bulk_load((key, key) for key in sorted(present))
    else:
        occupancies = list(occupancies[: fused.params.num_pages])
        occupancies += [0] * (fused.params.num_pages - len(occupancies))
        while sum(occupancies) > cap:
            occupancies[occupancies.index(max(occupancies))] -= 1
        present = set(range(0, sum(occupancies) * GAP, GAP))
        for engine in (fused, reference_engine):
            engine.load_occupancies(occupancies, key_gap=GAP)
    rng = random.Random(seed)
    commands = []
    for kind, gap, length in operations:
        if kind == "delete":
            victims = rng.sample(sorted(present), min(length, len(present)))
            commands += [("delete", key) for key in victims]
            present.difference_update(victims)
            continue
        keys = range(gap * GAP + 1, gap * GAP + 1 + length)
        for key in reversed(keys) if kind == "descending" else keys:
            if key not in present and len(present) < cap:
                present.add(key)
                commands.append(("insert", key))
    _assert_twins(fused, reference_engine)
    for op, key in commands:
        if op == "insert":
            fused.insert(key, key)
            reference_engine.insert(key, key)
        else:
            assert fused.delete(key) == reference_engine.delete(key)
        _assert_twins(fused, reference_engine)
    # Not validate(): a J below the recommended one may break BALANCE
    # on bursts (the same on both sides).  The fused bookkeeping must
    # still match the pages.
    check_sequential_order(fused.pagefile)
    check_counters(fused.pagefile, fused.calibrator)
    check_directory(fused.pagefile)
    check_warning_flags(fused)
    return reference.fired


BURSTS = st.lists(
    st.tuples(
        st.sampled_from(["ascending", "descending", "delete"]),
        st.integers(0, PRELOAD - 1),
        st.integers(1, 40),
    ),
    min_size=1,
    max_size=8,
)

#: Pinned mixes (found by a seeded search) that reach a roll-back
#: inside a command that started with a warning up, and a step-2
#: lowering beside several warnings, before the inlined step 4.
ROLL_BACK = (
    "memory", 1, [("descending", 18, 15), ("descending", 8, 18)], 0,
    [1, 0, 1, 0, 0, 1, 0, 1, 6, 4, 4, 3, 3, 6, 5, 6],
)
STEP_2_LOWERS = (
    "buffered", 1, [("descending", 15, 20), ("delete", 1, 8)], 0,
    [0, 0, 1, 1, 3, 0, 0, 3, 6, 3, 4, 6, 6, 3, 5, 6],
)


class TestFusedAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        builder=st.sampled_from(sorted(BUILDERS)),
        j=st.integers(1, 3),
        operations=BURSTS,
        seed=st.integers(0, 3),
        occupancies=st.one_of(
            st.none(), st.lists(st.integers(0, 7), min_size=PAGES, max_size=PAGES)
        ),
    )
    @example(*ROLL_BACK)
    @example(*STEP_2_LOWERS)
    def test_every_command_matches_the_reference(
        self, builder, j, operations, seed, occupancies
    ):
        _drive(builder, j, operations, seed, occupancies)

    def test_pinned_mixes_reach_the_reordered_rules(self):
        assert {"roll-back", "warning-up-start"} <= _drive(*ROLL_BACK)
        assert {"step-2-lowers", "several-warnings"} <= _drive(*STEP_2_LOWERS)

    def test_example_5_2_on_the_fused_path(self, paper_engine):
        """Figure 4's last row and Example 5.2's pointers with no listener:
        Z2 starts with v3's warning up and rolls DEST(v3) back."""
        paper_engine.insert_at_page(8, 10_000)  # Z1
        tree = paper_engine.calibrator
        v3 = tree.right[tree.root]
        assert paper_engine.warning_nodes() == [v3]
        paper_engine.insert_at_page(1, -10_000)  # Z2
        assert tuple(paper_engine.occupancies()) == (15, 9, 0, 0, 4, 9, 15, 11)
        paper_engine.validate()

    def test_shift_keeps_the_negative_counter_check(self):
        engine = BUILDERS["memory"](2).engine
        engine.load_occupancies([1, 0, 3, 3] + [2] * 12, key_gap=GAP)
        tree = engine.calibrator
        node = tree.right[tree.root]
        tree.set_flag(node, True)
        engine.destinations[node] = 1
        # SOURCE is page 3, whose path below the common ancestor [1, 4]
        # is its leaf and [3, 4]; a [3, 4] counter that claims no
        # records must not go below zero when page 3's records leave.
        tree.count[tree.parent[tree.leaf_of_page[3]]] = 0
        with pytest.raises(UsageError, match="negative rank counter"):
            engine._shift(node)


# ----------------------------------------------------------------------
# the object-format column encoder
# ----------------------------------------------------------------------

VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(-(1 << 200), 1 << 200),
        st.floats(allow_nan=False),
        st.text(max_size=8),
        st.binary(max_size=8),
        st.fractions(),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=3),
        st.dictionaries(st.integers(), inner, max_size=2),
    ),
    max_leaves=6,
)


def reference_encode_page(records):
    """The page payload built value by value through ``encode_value``,
    the generic tag path with no inline int case."""
    out = [struct.pack("<I", len(records))]
    for record in records:
        encode_value(record.key, out)
        encode_value(record.value, out)
    return b"".join(out)


class TestObjectColumnEncoder:
    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(st.one_of(st.integers(), st.fractions(), st.text(max_size=4)),
                      max_size=6),
        values=st.lists(VALUES, max_size=6),
    )
    @example(keys=[1, 2, 3, 4], values=[8, 15, 22, 29])
    @example(keys=[1 << 70, -(1 << 70)], values=[True, False])
    @example(keys=[Fraction(1, 3)], values=[(1, "a", b"b", None, 2.5)])
    def test_bytes_equal_encode_page(self, keys, values):
        size = min(len(keys), len(values))
        keys, values = keys[:size], values[:size]
        records = list(map(Record, keys, values))
        page = encode_page(records)
        assert page == reference_encode_page(records)
        assert encode_columns(keys, values) == page
        image = encode_records_image(records)
        if image[0] == PAGE_FORMAT_OBJECT:
            assert image == bytes([PAGE_FORMAT_OBJECT]) + page
        assert decode_page_image(image) == records

    def test_int_values_take_the_object_format(self):
        records = [Record(key, key * 7 + 1) for key in range(4)]
        image = encode_records_image(records)
        assert image[0] == PAGE_FORMAT_OBJECT
        assert image[1:] == encode_page(records)


if __name__ == "__main__":  # pragma: no cover - prints the golden values
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for name, value in (
            ("default-j", _golden_run(1)),
            ("j2", _golden_run(2, j=2)),
            ("j1", _golden_run(3, j=1)),
            ("disk", _golden_run(4, path=scratch + "/burst.dsf")),
        ):
            print(f'    "{name}": "{value}",')
    sys.exit(0)
