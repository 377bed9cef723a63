"""The public facade: a ``(d, D)``-dense sequential file.

:class:`DenseSequentialFile` is what a downstream user imports.  It
chooses the right engine for the requested geometry (CONTROL 2, the
macro-block variant when the slack condition fails, or CONTROL 1 as the
amortized baseline), and exposes a dictionary-flavoured API plus ordered
scans, which is the workload the paper argues dense files exist for.
"""

from __future__ import annotations

import os
from typing import Dict, Iterator, List, Optional

from ..obs import MIN, Metrics, Number
from ..records import Record
from ..storage.backend import ALGORITHM_CODES, PageStore, make_store, register_store
from ..storage.cost import AccessStats, CostModel, PAGE_ACCESS_MODEL
from .control1 import Control1Engine
from .control2 import Control2Engine
from .errors import ConfigurationError
from .macroblock import MacroBlockControl2Engine, macro_params
from .params import DensityParams

ALGORITHMS = tuple(sorted(ALGORITHM_CODES))


def engine_params(
    params: DensityParams, algorithm: str, on_disk: bool = False
) -> DensityParams:
    """The geometry of the engine's own pages for ``params``.

    CONTROL 2 needs the slack condition ``D - d > 3 * ceil(log2 M)``;
    where it fails, the engine runs on the macro-blocks of Theorem 5.7
    and its pages are those blocks.  ``on_disk`` refuses that case with
    a :class:`ConfigurationError`: a file's header records ``M``, ``d``
    and ``D``, and the file reopens from them alone, so its pages must
    be the engine's pages.
    """
    if algorithm != "control2" or params.satisfies_slack_condition:
        return params
    if on_disk:
        raise ConfigurationError(
            f"D - d = {params.D - params.d} <= 3*ceil(log2 M) = "
            f"{3 * params.log_m}: CONTROL 2 needs macro-blocks here, which "
            "a file on disk cannot hold; widen the slack or use more pages"
        )
    return macro_params(params.num_pages, params.d, params.D, j=params.j)


def build_engine(
    num_pages: int,
    d: int,
    D: int,
    algorithm: str = "control2",
    j: Optional[int] = None,
    model: CostModel = PAGE_ACCESS_MODEL,
    backend: str = "memory",
    store: Optional[PageStore] = None,
    path: Optional[str] = None,
    cache_pages: Optional[int] = None,
    overwrite: bool = False,
    readahead: int = 0,
):
    """Construct the maintenance engine for the requested geometry.

    When ``algorithm="control2"`` and the slack condition
    ``D - d > 3 * ceil(log2 M)`` fails, the macro-block variant of
    Theorem 5.7 is selected automatically in memory and refused on
    disk (:func:`engine_params`), before any file is made.

    The physical layer is chosen by ``backend``
    (``"memory" | "disk" | "buffered"``, built via
    :func:`~repro.storage.backend.make_store` with ``path`` /
    ``cache_pages`` / ``overwrite``), or passed ready-made as
    ``store`` — every engine is backend-agnostic, so the logical page
    accesses the paper bounds are identical on all of them.  A file
    made at ``path`` records ``algorithm`` in its header.  With a
    ready-made ``store``, a ``backend`` other than the default, a
    ``path``, ``cache_pages`` or ``readahead`` that the store contradicts,
    or ``overwrite=True``, raises :class:`ConfigurationError` rather than
    going unused.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; pick one of {ALGORITHMS}"
        )
    params = DensityParams(num_pages=num_pages, d=d, D=D, j=j)
    on_disk = store is None and (backend == "disk" or path is not None)
    sized = engine_params(params, algorithm, on_disk)
    if store is None:
        store = make_store(
            backend,
            sized.num_pages,
            d=sized.d,
            D=sized.D,
            j=sized.j or 0,
            path=path,
            cache_pages=cache_pages,
            overwrite=overwrite,
            readahead=readahead,
            algorithm=algorithm,
        )
    elif store.num_pages != sized.num_pages:
        raise ConfigurationError(
            f"store has {store.num_pages} pages but the engine needs "
            f"{sized.num_pages}"
        )
    else:
        _refuse_store_conflicts(
            store, backend, path, cache_pages, readahead, overwrite
        )
    if algorithm == "control1":
        return Control1Engine(params, model=model, store=store)
    if sized is params:
        return Control2Engine(params, model=model, store=store)
    return MacroBlockControl2Engine(
        num_pages, d, D, j=j, model=model, store=store
    )


def _refuse_store_conflicts(
    store: PageStore,
    backend: str,
    path: Optional[str],
    cache_pages: Optional[int],
    readahead: int,
    overwrite: bool,
) -> None:
    """Refuse a store-building option that a ready-made ``store``
    contradicts; an option at its default asks for nothing, and
    ``overwrite`` asks for a store this call no longer builds."""
    layer, held_path = store, None
    while layer is not None and held_path is None:
        held_path, layer = getattr(layer, "path", None), getattr(layer, "inner", None)
    pool = getattr(store, "pool", None)
    conflicts = [name for name, clash in (
        ("backend", backend not in ("memory", store.name)),
        ("path", path is not None and (
            held_path is None or os.path.abspath(path) != os.path.abspath(held_path)
        )),
        ("cache_pages", cache_pages not in (None, getattr(pool, "capacity", None))),
        ("readahead", readahead not in (0, store.readahead)),
        ("overwrite", overwrite),
    ) if clash]
    if conflicts:
        raise ConfigurationError(
            f"{', '.join(conflicts)} contradicts the given {store.name} "
            "store; pass the store alone"
        )


class DenseSequentialFile:
    """A dynamically maintained ``(d, D)``-dense sequential file.

    Parameters
    ----------
    num_pages:
        ``M``, the number of consecutive pages of auxiliary memory.
    d:
        Average density bound; the file holds at most ``d * num_pages``
        records.
    D:
        Per-page capacity.
    algorithm:
        ``"control2"`` (default, worst-case guarantees) or
        ``"control1"`` (amortized baseline).
    j:
        CONTROL 2's per-command shift budget; ``None`` uses the
        recommended default.
    model:
        Access-cost model charged by the simulated disk.
    backend:
        Physical layer spec: ``"memory"`` (default, pure simulation),
        ``"disk"`` (write-through to a checksummed OS file at ``path``)
        or ``"buffered"`` (a live write-back LRU cache of
        ``cache_pages`` frames over disk when ``path`` is given, over
        memory otherwise).  The logical access counts the paper bounds
        are identical on every backend.  A file made at ``path`` is the
        one :meth:`~repro.persistent.PersistentDenseFile.create` makes:
        :meth:`~repro.persistent.PersistentDenseFile.open` reopens it
        with the same algorithm.  A geometry that needs macro-blocks is
        refused there.
    store:
        A ready-made :class:`~repro.storage.backend.PageStore`, used as
        given: a ``backend``, ``path``, ``cache_pages`` or ``readahead``
        it contradicts, or ``overwrite=True``, raises
        :class:`ConfigurationError`.

    Examples
    --------
    >>> f = DenseSequentialFile(num_pages=64, d=8, D=40)
    >>> f.insert(42, "answer")
    >>> f.search(42).value
    'answer'
    >>> [r.key for r in f.range(40, 45)]
    [42]
    """

    def __init__(
        self,
        num_pages: int,
        d: int,
        D: int,
        algorithm: str = "control2",
        j: Optional[int] = None,
        model: CostModel = PAGE_ACCESS_MODEL,
        backend: str = "memory",
        store: Optional[PageStore] = None,
        path: Optional[str] = None,
        cache_pages: Optional[int] = None,
        overwrite: bool = False,
        readahead: int = 0,
    ):
        self.engine = build_engine(
            num_pages,
            d,
            D,
            algorithm=algorithm,
            j=j,
            model=model,
            backend=backend,
            store=store,
            path=path,
            cache_pages=cache_pages,
            overwrite=overwrite,
            readahead=readahead,
        )
        self.algorithm = algorithm
        #: This stack's counter registry (see :mod:`repro.obs`).
        self.metrics = Metrics()
        engine = self.engine
        self.metrics.register(engine.LAYER, engine, engine.COUNTERS)
        self.metrics.register(engine.LAYER, engine, engine.GAUGES, merge=MIN)
        self.metrics.register("storage.disk", engine.disk.stats, AccessStats.COUNTERS)
        register_store(self.metrics, engine.store)
        # Hot-path aliases: bind insert/delete straight to the engine's
        # bound methods so the per-command loop skips one wrapper frame.
        # Only for this exact class — a subclass overriding either
        # method keeps normal dynamic dispatch.
        if type(self) is DenseSequentialFile:
            self.insert = self.engine.insert
            self.delete = self.engine.delete

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_records(cls, records, num_pages: int, d: int, D: int, **kwargs):
        """Build a file and bulk-load ``records`` with uniform density."""
        dense_file = cls(num_pages, d, D, **kwargs)
        dense_file.bulk_load(records)
        return dense_file

    def bulk_load(self, records) -> None:
        """Uniformly load an iterable of records/keys into an empty file."""
        self.engine.bulk_load(records)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def insert(self, key, value=None) -> None:
        """Insert a record; worst-case ``O(log^2 M / (D-d))`` page accesses."""
        self.engine.insert(key, value)

    def delete(self, key) -> Record:
        """Delete and return the record with ``key``."""
        return self.engine.delete(key)

    def insert_many(self, items) -> int:
        """Insert an iterable of records/keys in a key-ordered sweep.

        Same-destination records share one read and one write of their
        page; the final file state is the one a plain :meth:`insert`
        loop over the sorted items leaves.
        """
        return self.engine.insert_many(items)

    def delete_range(self, lo_key, hi_key) -> int:
        """Bulk-delete every record with ``lo_key <= key <= hi_key``."""
        return self.engine.delete_range(lo_key, hi_key)

    def update(self, key, value) -> Record:
        """Replace the value stored under an existing ``key`` in place."""
        page = self.engine.pagefile.locate(key)
        if page is None:
            from .errors import RecordNotFoundError

            raise RecordNotFoundError(key)
        return self.engine.pagefile.replace_record(page, Record(key, value))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def search(self, key) -> Optional[Record]:
        """Return the record with ``key`` or ``None``."""
        return self.engine.search(key)

    def __contains__(self, key) -> bool:
        return key in self.engine

    def __len__(self) -> int:
        return len(self.engine)

    def range(self, lo_key, hi_key) -> Iterator[Record]:
        """Stream records with ``lo_key <= key <= hi_key`` in key order.

        This is the paper's "stream retrieval": the underlying accesses
        sweep consecutive pages, which is the whole point of keeping the
        file dense and sequential.
        """
        return self.engine.range_scan(lo_key, hi_key)

    def scan(self, start_key, count: int) -> List[Record]:
        """Return up to ``count`` records with key >= ``start_key``."""
        return self.engine.scan_count(start_key, count)

    def rank(self, key) -> int:
        """Number of records with key strictly less than ``key``."""
        return self.engine.rank(key)

    def count_range(self, lo_key, hi_key) -> int:
        """Records with ``lo_key <= key <= hi_key`` (<= 2 page accesses)."""
        return self.engine.count_range(lo_key, hi_key)

    def select(self, index: int) -> Record:
        """The record of 0-based rank ``index`` in key order."""
        return self.engine.select(index)

    def compact(self) -> int:
        """Uniformly redistribute all records; returns pages rewritten."""
        return self.engine.compact()

    def min(self) -> Optional[Record]:
        """The smallest-keyed record, or ``None`` on an empty file."""
        return self.engine.min_record()

    def max(self) -> Optional[Record]:
        """The largest-keyed record, or ``None`` on an empty file."""
        return self.engine.max_record()

    def successor(self, key) -> Optional[Record]:
        """Smallest record with key strictly greater than ``key``."""
        return self.engine.successor(key)

    def predecessor(self, key) -> Optional[Record]:
        """Largest record with key strictly less than ``key``."""
        return self.engine.predecessor(key)

    def __iter__(self) -> Iterator:
        return self.keys()

    def keys(self) -> Iterator:
        """Yield every key in ascending order (charges reads per page)."""
        for record in self.engine.iter_records():
            yield record.key

    def items(self) -> Iterator:
        """Yield ``(key, value)`` pairs in ascending key order."""
        for record in self.engine.iter_records():
            yield record.key, record.value

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def params(self) -> DensityParams:
        return self.engine.params

    @property
    def stats(self):
        """Access counters of the simulated disk."""
        return self.engine.stats

    @property
    def store(self) -> PageStore:
        """The physical backend under this file's pages."""
        return self.engine.store

    def store_stats(self) -> Dict[str, Number]:
        """A snapshot of every counter of this file's stack, keyed
        ``"layer.counter"`` (:meth:`repro.obs.Metrics.snapshot`)."""
        return self.metrics.snapshot()

    def flush(self) -> int:
        """Push buffered pages down to the backing medium (no-op in memory)."""
        return self.engine.store.flush()

    def close(self) -> None:
        """Flush and release the backend's resources (no-op in memory)."""
        self.engine.store.close()

    @property
    def closed(self) -> bool:
        """Whether the backing store has been closed."""
        return self.engine.store.closed

    def __enter__(self) -> "DenseSequentialFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def occupancies(self) -> List[int]:
        """Records per page (macro-block granularity in macro mode)."""
        return self.engine.occupancies()

    def validate(self) -> None:
        """Assert all end-of-command invariants (raises on violation)."""
        self.engine.validate()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DenseSequentialFile({self.engine.algorithm_name}, "
            f"{self.params}, size={len(self)})"
        )
