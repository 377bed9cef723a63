"""Every way onto disk writes the same file.

A dense file reaches disk through ``DenseSequentialFile(backend="disk" |
"buffered", path=...)``, ``PersistentDenseFile.create`` (with or without
a cache), ``JournaledDenseFile.create`` or ``repro create``.  All of
them build their stack with ``repro.storage.backend.make_store``, so the
header names the algorithm that wrote the file.  Each case here runs a
seeded insert/delete stream, closes the file, and reopens it three ways:
``PersistentDenseFile.open``, ``JournaledDenseFile.open`` and ``repro
info``.  Each reopen must show the same engine, the same records and a
clean ``validate()``.
"""

import io
import random

import pytest

from repro import (
    Control1Engine,
    Control2Engine,
    DenseSequentialFile,
    JournaledDenseFile,
    PersistentDenseFile,
)
from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.storage.backend import DiskStore
from repro.storage.ondisk import DiskPagedStore, StorageError

M, LOW_D, HIGH_D = 64, 8, 40
ENGINES = {
    "control1": (Control1Engine, "CONTROL 1"),
    "control2": (Control2Engine, "CONTROL 2"),
}


def _cli_create(path, algorithm, D):
    code = main([
        "create", path, "--pages", str(M), "--low-density", str(LOW_D),
        "--capacity", str(D), "--algorithm", algorithm,
    ], out=io.StringIO())
    if code != 0:
        raise ConfigurationError(f"repro create exited {code}")
    return JournaledDenseFile.open(path)


#: Every way onto disk, as ``create(path, algorithm, D)``.
CREATORS = {
    "dense-disk": lambda path, algorithm, D: DenseSequentialFile(
        M, LOW_D, D, algorithm=algorithm, backend="disk", path=path
    ),
    "dense-buffered": lambda path, algorithm, D: DenseSequentialFile(
        M, LOW_D, D, algorithm=algorithm, backend="buffered", path=path,
        cache_pages=4,
    ),
    "persistent": lambda path, algorithm, D: PersistentDenseFile.create(
        path, M, LOW_D, D, algorithm=algorithm
    ),
    "persistent-cached": lambda path, algorithm, D: PersistentDenseFile.create(
        path, M, LOW_D, D, algorithm=algorithm, cache_pages=4
    ),
    "journaled": lambda path, algorithm, D: JournaledDenseFile.create(
        path, M, LOW_D, D, algorithm=algorithm
    ),
    "cli": _cli_create,
}


def _run_stream(dense, seed=11, commands=300):
    """A seeded insert/delete stream; returns the records it leaves."""
    rng = random.Random(seed)
    model = {}
    for _ in range(commands):
        if model and rng.random() < 0.3:
            key = rng.choice(sorted(model))
            assert dense.delete(key).key == key
            del model[key]
        else:
            key = rng.randrange(10_000)
            if key not in model:
                dense.insert(key, f"v{key}")
                model[key] = f"v{key}"
    return sorted(model.items())


@pytest.mark.parametrize("algorithm", sorted(ENGINES))
@pytest.mark.parametrize("creator", sorted(CREATORS))
def test_every_way_onto_disk_reopens_as_the_engine_that_wrote_it(
    tmp_path, creator, algorithm
):
    path = str(tmp_path / "round-trip.dsf")
    engine_class, name = ENGINES[algorithm]
    dense = CREATORS[creator](path, algorithm, HIGH_D)
    try:
        assert type(dense.engine) is engine_class
        expected = _run_stream(dense)
    finally:
        dense.close()

    for reopen in (PersistentDenseFile.open, JournaledDenseFile.open):
        with reopen(path) as reopened:
            assert type(reopened.engine) is engine_class, reopen
            assert list(reopened.items()) == expected, reopen
            reopened.validate()
    out = io.StringIO()
    assert main(["info", path], out=out) == 0
    assert f"algorithm: {name}\n" in out.getvalue()


@pytest.mark.parametrize("creator", sorted(CREATORS))
def test_a_geometry_that_needs_macro_blocks_leaves_no_file(tmp_path, creator):
    """D - d = 4 at M = 64 needs CONTROL 2's macro-blocks, which a file
    on disk cannot hold: every way onto disk refuses before it writes."""
    path = tmp_path / "macro.dsf"
    if creator == "cli":
        out = io.StringIO()
        code = main([
            "create", str(path), "--pages", str(M), "--low-density",
            str(LOW_D), "--capacity", "12",
        ], out=out)
        assert code == 1 and "macro-blocks" in out.getvalue()
    else:
        with pytest.raises(ConfigurationError, match="macro-blocks"):
            CREATORS[creator](str(path), "control2", 12)
    assert list(tmp_path.iterdir()) == []


def test_the_macro_engine_stays_in_memory():
    dense = DenseSequentialFile(M, 8, 12, backend="buffered")
    assert type(dense.engine).__name__ == "MacroBlockControl2Engine"


@pytest.mark.parametrize(
    "j, D, error",
    [(7 << 24, HIGH_D, StorageError), (0, 12, ConfigurationError)],
    ids=["unknown-algorithm-code", "control2-needs-macro-blocks"],
)
def test_a_refused_open_closes_the_file(tmp_path, monkeypatch, j, D, error):
    """A header no engine can mount is refused, and the file the open
    made is closed again."""
    path = str(tmp_path / "refused.dsf")
    DiskPagedStore.create(path, num_pages=M, d=LOW_D, D=D, j=j).close()
    opened = []
    open_store = DiskStore.open

    def recording_open(*args, **kwargs):
        opened.append(open_store(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(DiskStore, "open", recording_open)
    with pytest.raises(error):
        PersistentDenseFile.open(path, cache_pages=4)
    assert len(opened) == 1 and opened[0].closed
