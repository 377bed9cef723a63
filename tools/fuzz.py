"""Differential / crash-injection / fault-injection / thread fuzzer.

Usage:
    python tools/fuzz.py --mode engines --iterations 200
    python tools/fuzz.py --mode crash --seconds 30
    python tools/fuzz.py --mode faults --iterations 50
    python tools/fuzz.py --mode threads --iterations 20

Modes
-----
``engines``
    Each iteration draws a random geometry and command sequence, drives
    a randomly chosen engine (CONTROL 1, CONTROL 2, macro-block) next
    to a plain sorted-set model, and checks contents plus every
    structural invariant after each command.

``crash``
    Each iteration drives a :class:`~repro.persistent.JournaledDenseFile`
    and injects a crash at a random physical write, then reopens and
    checks atomicity (the state must be the pre- or post-command state)
    and all invariants.

``faults``
    Each iteration builds a random backend stack (memory, disk, or
    buffered over disk) behind ``RetryingStore(FaultyStore(...))`` with
    a seeded transient-fault rate, checks every transient is absorbed
    with zero give-ups and the file matches the model, then (on durable
    backends) corrupts a page slot on disk and checks the scrub /
    degraded-read-only ladder.

``threads``
    Each iteration draws a random concurrency shape (thread count,
    batch width, storage stack, transient-fault rate) and runs the
    deterministic interleaving torture harness of
    :mod:`repro.concurrent.harness`: seeded client threads race
    batches of insert/delete/scan against one ``ThreadSafeDenseFile``
    and every batch must be linearizable against a sequential oracle.

On failure the tool prints the reproducing seed; re-run with
``--seed N --verbose`` to replay it.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import (  # noqa: E402
    Control1Engine,
    Control2Engine,
    DensityParams,
    JournaledDenseFile,
    MacroBlockControl2Engine,
    RetryPolicy,
)
from repro import DenseSequentialFile, PersistentDenseFile  # noqa: E402
from repro.core.errors import (  # noqa: E402
    ConfigurationError,
    ReadOnlyError,
)
from repro.storage.backend import (  # noqa: E402
    BufferedStore,
    DiskStore,
    MemoryStore,
)
from repro.storage.faults import (  # noqa: E402
    FaultInjector,
    FaultPlan,
    SimulatedCrash,
    fault_tolerant_stack,
)
from repro.storage.scrub import scrub  # noqa: E402


def random_geometry(rng: random.Random):
    """A random legal (M, d, D) triple."""
    num_pages = rng.choice([4, 8, 16, 31, 64, 100])
    d = rng.choice([1, 2, 4, 8])
    log_m = max(1, (num_pages - 1).bit_length())
    slack = rng.choice([3 * log_m + 1, 3 * log_m + 5, 4 * log_m + 10])
    return num_pages, d, d + slack


def build_engine(rng: random.Random, num_pages: int, d: int, cap_d: int):
    """A random engine over the geometry (macro-block gets a tight D)."""
    choice = rng.randrange(3)
    params = DensityParams(num_pages=num_pages, d=d, D=cap_d)
    if choice == 0:
        return Control1Engine(params)
    if choice == 1:
        return Control2Engine(params)
    try:
        return MacroBlockControl2Engine(num_pages=num_pages, d=d, D=d + 2)
    except ConfigurationError:
        return Control2Engine(params)


def fuzz_engines_once(seed: int, commands: int = 120, verbose: bool = False):
    """One differential iteration; raises on any divergence."""
    rng = random.Random(seed)
    num_pages, d, cap_d = random_geometry(rng)
    engine = build_engine(rng, num_pages, d, cap_d)
    cap = getattr(engine, "physical_max_records", engine.params.max_records)
    model = set()
    if verbose:
        print(f"seed={seed}: {engine.algorithm_name} M={num_pages} "
              f"d={d} D={cap_d} cap={cap}")
    for step in range(commands):
        roll = rng.random()
        key = rng.randrange(500)
        if roll < 0.55 and len(model) < cap and key not in model:
            engine.insert(key)
            model.add(key)
        elif roll < 0.8 and model:
            victim = rng.choice(sorted(model))
            engine.delete(victim)
            model.remove(victim)
        elif roll < 0.9 and model:
            lo = rng.randrange(500)
            hi = lo + rng.randrange(60)
            removed = engine.delete_range(lo, hi)
            victims = {k for k in model if lo <= k <= hi}
            assert removed == len(victims), f"seed={seed} step={step}"
            model -= victims
        elif roll < 0.95:
            engine.compact()
        stored = [record.key for record in engine.pagefile.iter_all()]
        assert stored == sorted(model), f"seed={seed} step={step}: contents"
        engine.validate()
    return engine


def fuzz_crash_once(seed: int, verbose: bool = False):
    """One crash-injection iteration; raises on an atomicity violation."""
    rng = random.Random(seed)
    directory = tempfile.mkdtemp(prefix="repro-fuzz-")
    path = os.path.join(directory, "f.dsf")
    injector = FaultInjector()
    dense = JournaledDenseFile.create(
        path, num_pages=16, d=8, D=8 + 16, injector=injector
    )
    live = set()

    def snapshot():
        return [record.key for record in dense.range(-1, 10**9)]

    for step in range(rng.randint(3, 10)):
        before = sorted(live)
        keys = [rng.randrange(300) for _ in range(rng.randint(1, 30))]
        fresh = [k for k in dict.fromkeys(keys) if k not in live]
        fresh = fresh[: max(0, dense.params.max_records - len(live))]
        injector.arm(rng.randrange(1, 40))
        crashed = False
        # Compute the prospective post-command state up front: if the
        # crash lands after the journal commit, recovery redoes the
        # whole command and the reopened file must show this state.
        if rng.random() < 0.7:
            prospective = sorted(set(live) | set(fresh))
            command = lambda: dense.insert_many(fresh)  # noqa: E731
        else:
            lo = rng.randrange(300)
            hi = lo + rng.randrange(80)
            prospective = sorted(k for k in live if not lo <= k <= hi)
            command = lambda: dense.delete_range(lo, hi)  # noqa: E731
        try:
            command()
            live = set(prospective)
        except SimulatedCrash:
            crashed = True
        injector.disarm()
        if crashed:
            dense._raw.close()
            dense = JournaledDenseFile.open(path, injector=injector)
            state = snapshot()
            assert state in (before, prospective), f"seed={seed} step={step}"
            live = set(state)
            if verbose:
                which = "post" if state == prospective else "pre"
                print(f"  seed={seed} step={step}: crashed, recovered "
                      f"to {which}-state")
        else:
            assert snapshot() == sorted(live), f"seed={seed} step={step}"
        dense.validate()
    dense.close()


def fuzz_faults_once(seed: int, verbose: bool = False):
    """One fault-absorption + scrub-ladder iteration; raises on failure."""
    rng = random.Random(seed)
    num_pages, d, cap = 16, 4, 24
    backend = rng.choice(["memory", "disk", "buffered"])
    directory = tempfile.mkdtemp(prefix="repro-faultfuzz-")
    path = os.path.join(directory, "f.dsf")
    if backend == "memory":
        inner = MemoryStore(num_pages)
    else:
        disk = DiskStore.create(path, num_pages=num_pages, d=d, D=cap)
        inner = disk if backend == "disk" else BufferedStore(disk, capacity=4)
    rate = rng.choice([0.0, 0.02, 0.1, 0.25])
    plan = FaultPlan(seed=seed, transient_rate=rate)
    stack = fault_tolerant_stack(
        inner, plan, RetryPolicy(max_attempts=40)
    )
    dense = DenseSequentialFile(num_pages, d, cap, store=stack)
    model = set()
    if verbose:
        print(f"seed={seed}: faults on {backend}, transient_rate={rate}")
    for _ in range(rng.randint(20, 80)):
        roll = rng.random()
        key = rng.randrange(400)
        if roll < 0.6 and len(model) < num_pages * d and key not in model:
            dense.insert(key)
            model.add(key)
        elif roll < 0.85 and model:
            victim = rng.choice(sorted(model))
            dense.delete(victim)
            model.remove(victim)
        elif roll < 0.95:
            lo = rng.randrange(400)
            assert len(list(dense.range(lo, lo + 50))) == len(
                [k for k in model if lo <= k <= lo + 50]
            ), f"seed={seed}: scan under faults diverged"
    stored = [record.key for record in dense.engine.pagefile.iter_all()]
    assert stored == sorted(model), f"seed={seed}: contents diverged"
    dense.validate()
    # Every injected transient was absorbed; none leaked or gave up.
    assert stack.giveups == 0, f"seed={seed}: retry policy gave up"
    assert stack.retries == plan.transients_injected, (
        f"seed={seed}: {plan.transients_injected} transients but "
        f"{stack.retries} retries"
    )
    dense.close()

    if backend == "memory":
        return
    # Corruption leg: clobber one slot's length field (guaranteed CRC
    # failure), then walk the scrub / degraded ladder.
    victim_page = rng.randrange(1, num_pages + 1)
    header_size = 32  # ondisk.HEADER.size
    slot = disk.raw.slot_capacity
    with open(path, "r+b") as handle:
        handle.seek(header_size + (victim_page - 1) * slot)
        handle.write(b"\xff\xff\xff\xff")
    report = scrub(path)
    assert report.degraded and report.quarantined == (victim_page,), (
        f"seed={seed}: scrub missed the corrupted page"
    )
    degraded = PersistentDenseFile.open(path, on_corruption="degrade")
    assert degraded.read_only
    assert degraded.quarantined == (victim_page,)
    surviving = [record.key for record in degraded.range(-1, 10**9)]
    assert set(surviving) <= model, f"seed={seed}: degraded scan invented keys"
    try:
        degraded.insert(10**6)
        raise AssertionError(f"seed={seed}: degraded file accepted a write")
    except ReadOnlyError:
        pass
    degraded.validate()
    degraded.close()
    if verbose:
        print(f"  seed={seed}: quarantined page {victim_page}, "
              f"{len(model) - len(surviving)} records lost, "
              f"{len(surviving)} scannable")


def fuzz_threads_once(seed: int, verbose: bool = False):
    """One torture-harness iteration; raises on any detected violation."""
    from repro.concurrent.harness import StressConfig, run_stress

    rng = random.Random(seed)
    stack = rng.choice(["memory", "memory", "faulty", "disk", "buffered"])
    path = None
    if stack in ("disk", "buffered"):
        path = os.path.join(
            tempfile.mkdtemp(prefix="repro-threadfuzz-"), "f.dsf"
        )
    config = StressConfig(
        threads=rng.randint(2, 6),
        total_ops=rng.randint(60, 160),
        seed=seed,
        max_batch=rng.randint(2, 5),
        stack=stack,
        transient_rate=rng.choice([0.0, 0.02, 0.1]),
        path=path,
    )
    report = run_stress(config)
    if verbose:
        print(report.summary())
    assert report.ok, f"seed={seed}:\n{report.summary()}"
    # A clean run must never reject or time anything out: there is no
    # admission gate and deadlines are generous.
    assert report.timeouts == 0 and report.overloads == 0, (
        f"seed={seed}: unexpected timeouts/overloads"
    )


FUZZERS = {
    "engines": fuzz_engines_once,
    "crash": fuzz_crash_once,
    "faults": fuzz_faults_once,
    "threads": fuzz_threads_once,
}


def main() -> int:
    """Run the requested fuzz campaign; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=sorted(FUZZERS), default="engines")
    parser.add_argument("--iterations", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    single = FUZZERS[args.mode]
    if args.seed is not None:
        single(args.seed, verbose=True)
        print(f"seed {args.seed}: ok")
        return 0

    deadline = time.time() + args.seconds
    iteration = 0
    while True:
        if args.iterations and iteration >= args.iterations:
            break
        if not args.iterations and time.time() >= deadline:
            break
        seed = random.randrange(1 << 30)
        try:
            single(seed, verbose=args.verbose)
        except Exception as error:  # pragma: no cover  # lint: allow[errors] -- reported, then exit 1
            print(f"FAILURE at seed {seed}: {error!r}")
            print(f"replay: python tools/fuzz.py --mode {args.mode} "
                  f"--seed {seed} --verbose")
            return 1
        iteration += 1
    print(f"{args.mode}: {iteration} iterations clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
