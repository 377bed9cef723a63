"""Differential test of every scan entry point against a sorted list.

``range(lo, hi)``, ``scan(start, count)`` and ``iter(file)`` all run on
one page walk in the page file.  This test drives them on the memory
backend and on the buffered backend (readahead 0 and 4, 4 and 64 cache
frames) and checks, for every scan:

* the records equal those of a sorted-list model;
* the logical meter charges exactly the pages the scan must read, each
  as one ``disk.read`` followed by one ``store.get_page``, in one
  ascending sweep;
* that charge is the same on every backend and window.

The file is loaded uniformly or grown by inserts.  Bounds are drawn on
and beside the page boundaries, on stored keys, and outside the key
span; a range may have ``lo == hi`` or ``lo > hi``; the file may be
empty; keys are ints or strings.
"""

from bisect import bisect_left, bisect_right

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import DenseSequentialFile

#: Slack 20 > 3 * ceil(log2 16), so every stack runs plain CONTROL 2;
#: the file holds at most d * M = 64 records.
M, LOW_D, HIGH_D = 16, 4, 24

#: (backend, cache_pages, readahead) of every stack under test.
STACKS = [("memory", None, 0)] + [
    ("buffered", cache, window) for cache in (4, 64) for window in (0, 4)
]

KEY_TYPES = {
    "int": lambda n: n,
    # Zero-padded, so string order is numeric order for n > -10**6.
    "str": lambda n: f"k{n + 10**6:07d}",
}

#: Where a bound falls: beside a page's first or last key, on a stored
#: key, or outside the key span.
BOUNDS = st.one_of(
    st.tuples(
        st.just("edge"), st.integers(0, 40), st.sampled_from((-1, 0, 1))
    ),
    st.tuples(st.just("stored"), st.integers(0, 63), st.just(0)),
    st.tuples(st.just("outside"), st.sampled_from((-50, 1000)), st.just(0)),
)

#: ``("range", lo, hi)`` with ``hi=None`` meaning ``hi == lo``, or
#: ``("scan", start, count)``.
QUERIES = st.one_of(
    st.tuples(st.just("range"), BOUNDS, st.one_of(st.none(), BOUNDS)),
    st.tuples(
        st.just("scan"), BOUNDS,
        st.one_of(st.integers(0, 8), st.integers(0, 70)),
    ),
)


def _resolve(bound, numbers, edges):
    """The number a bound stands for; below the span on an empty file."""
    kind, index, delta = bound
    if kind == "edge" and edges:
        return edges[index % len(edges)] + delta
    if kind == "stored" and numbers:
        return numbers[index % len(numbers)]
    return index if kind == "outside" else -50


def _spy(dense):
    """Log every ``disk.read`` and ``store.get_page`` of the page file."""
    pagefile = dense.engine.pagefile
    log = []
    read, get_page = pagefile.disk.read, pagefile.store.get_page

    def logged_read(page):
        log.append(("read", page))
        return read(page)

    def logged_get(page):
        log.append(("get", page))
        return get_page(page)

    pagefile.disk.read = logged_read
    pagefile.store.get_page = logged_get
    return log


def _run(dense, log, query):
    """Run one scan; return its keys and its logical page charge."""
    kind, a, b = query
    del log[:]
    dense.stats.checkpoint("scan")
    if kind == "range":
        keys = [record.key for record in dense.range(a, b)]
    elif kind == "scan":
        keys = [record.key for record in dense.scan(a, b)]
    else:
        keys = list(dense)
    charged = dense.stats.delta("scan").page_accesses
    pages = [page for _, page in log[0::2]]
    assert log == [(op, page) for page in pages for op in ("read", "get")]
    assert pages == sorted(set(pages))
    assert charged == len(pages)
    return keys, charged


def _model(model, page_keys, query):
    """Expected keys and pages read, by the sorted list and a page sweep.

    A scan reads from the page owning its lower bound (the last page
    whose minimum is at most the bound, else the first page): a range
    while the next page's minimum is at most ``hi``, a counted scan
    until it holds ``count`` records at or above ``start``.
    """
    kind, a, b = query
    if kind == "iter":
        return list(model), len(page_keys)
    mins = [keys[0] for keys in page_keys]
    index = first = max(bisect_right(mins, a) - 1, 0)
    if kind == "range":
        while index < len(page_keys) and mins[index] <= b:
            index += 1
        return model[bisect_left(model, a) : bisect_right(model, b)], (
            index - first
        )
    start = bisect_left(model, a)
    found = 0
    while index < len(page_keys) and found < b:
        found += sum(1 for key in page_keys[index] if key >= a)
        index += 1
    return model[start : start + b], index - first


@settings(max_examples=80, deadline=None)
@given(
    key_type=st.sampled_from(sorted(KEY_TYPES)),
    load=st.sampled_from(["bulk_load", "insert_many"]),
    numbers=st.one_of(
        st.sets(st.integers(0, 400), max_size=8),
        st.sets(st.integers(0, 400), min_size=20, max_size=64),
    ),
    queries=st.lists(QUERIES, min_size=1, max_size=6),
)
@example(
    key_type="int",
    load="insert_many",
    numbers=set(),
    queries=[
        ("range", ("outside", -50, 0), ("outside", 1000, 0)),
        ("scan", ("stored", 0, 0), 5),
    ],
)
@example(
    key_type="str",
    load="insert_many",
    numbers=set(range(0, 128, 2)),
    queries=[
        ("range", ("stored", 9, 0), None),
        ("range", ("edge", 3, 0), ("edge", 1, 0)),
        ("range", ("edge", 2, 1), ("edge", 5, -1)),
        ("scan", ("edge", 4, 0), 9),
        ("scan", ("edge", 1, 0), 3),
        ("range", ("outside", -50, 0), ("outside", -50, 0)),
        ("scan", ("outside", 1000, 0), 3),
    ],
)
def test_every_scan_entry_point_matches_the_model(
    key_type, load, numbers, queries
):
    key_of = KEY_TYPES[key_type]
    numbers = sorted(numbers)
    model = [key_of(n) for n in numbers]
    stacks = [
        DenseSequentialFile(
            M, LOW_D, HIGH_D, backend=kind, cache_pages=cache,
            readahead=window,
        )
        for kind, cache, window in STACKS
    ]
    for dense in stacks:
        # bulk_load spreads records thinly (many page boundaries);
        # insert_many leaves the pages CONTROL 2 grows.
        getattr(dense, load)(model)
    page_keys = [
        [record.key for record in records]
        for _, records in stacks[0].engine.pagefile.snapshot()
    ]
    # Page-boundary numbers: the first and last key of every page.
    edges = sorted(
        n for n in numbers
        if any(key_of(n) in (keys[0], keys[-1]) for keys in page_keys)
    )
    resolved = [("iter", None, None)]
    for kind, a, b in queries:
        lo = key_of(_resolve(a, numbers, edges))
        if kind == "scan":
            resolved.append(("scan", lo, b))
        else:
            hi = lo if b is None else key_of(_resolve(b, numbers, edges))
            resolved.append(("range", lo, hi))
    logs = [_spy(dense) for dense in stacks]
    for query in resolved:
        expected = _model(model, page_keys, query)
        for dense, log in zip(stacks, logs):
            assert _run(dense, log, query) == expected, query
    for dense in stacks:
        dense.validate()
        dense.close()
