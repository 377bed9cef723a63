"""Command-line interface for persistent dense sequential files.

Usage (also via ``python -m repro``):

    repro create  orders.dsf --pages 256 --low-density 8 --capacity 48
    repro put     orders.dsf 42 "first order"
    repro get     orders.dsf 42
    repro scan    orders.dsf --start 0 --count 10
    repro range   orders.dsf --lo 10 --hi 99
    repro delete  orders.dsf 42
    repro load    orders.dsf --keys 0:1000:2
    repro replay  orders.dsf trace.jsonl
    repro delete-range orders.dsf --lo 10 --hi 99
    repro rank    orders.dsf 42
    repro count   orders.dsf --lo 10 --hi 99
    repro compact orders.dsf
    repro info    orders.dsf
    repro verify  orders.dsf
    repro scrub   orders.dsf        # repair / quarantine corrupt pages
    repro stress  --threads 8 --ops 400 --seed 7   # concurrency torture
    repro stress  --iterations 5    # five random seeds, replay line on failure
    repro stress  --replica-reads   # readers on a WAL-shipped replica
    repro soak    --seconds 20 --seed 7   # primary+replica SLO soak
    repro bench   --quick --out bench.json      # perf matrix -> report
    repro bench   --quick --baseline BENCH_PR9.json  # run + gate (no file)
    repro bench   --validate BENCH_PR9.json          # schema-check a report
    repro bench   --compare OLD.json NEW.json        # gate two reports
    repro serve   --shards 4 --port 7421   # sharded cluster over TCP
    repro chaos   --seed 7          # network chaos sweep (trichotomy)
    repro demo                      # replay the paper's Example 5.2

``tools/{stress,chaos,soak,bench,lint}.py`` forward to the matching
command, so each harness has one parser, one report writer and one set
of exit codes.

Exit codes are part of the operator contract (scripts branch on them):

    0   clean — the command succeeded and the file is healthy
    1   error — bad usage, missing file, an invalid bench report, or a
        typed ReproError
    2   not found — ``get`` on an absent key
    3   corrupt — checksum failures (``verify``), unhealed pages
        (``scrub``), a checksum mismatch or undecodable page on any
        command that opens the file, or a harness verdict that is not
        clean (``stress``, ``soak``, ``chaos``)
    4   regression — ``bench`` exceeded its baseline gate
    5   degraded — the file serves reads but is quarantined read-only
        (``verify``/``info`` on a file scrub could not fully heal)
    6   pending replay — committed journal work is outstanding and the
        requested backend cannot replay it (``verify``/``info`` with
        ``--backend disk``/``buffered`` on a dirty journal)

All mutating commands run through the crash-atomic journaled facade.
``create``, ``verify`` and ``info`` take ``--backend`` to pick the
storage stack (``journaled`` default, plain write-through ``disk``, or
``buffered`` for a live LRU cache of ``--cache-pages`` frames whose
hit-rate counters ``info`` prints); ``demo`` accepts
``--backend memory|buffered``.

Keys given on the command line are parsed as int, then float, then kept
as strings — one file should stick to one key type.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shlex
import sys
import tempfile
import time
from typing import Any, Callable, List, NoReturn, Optional, Tuple

from . import benchmark
from .analysis.heatmap import fill_summary, occupancy_bar, occupancy_legend
from .core.errors import ConfigurationError, ReproError
from .persistent import JournaledDenseFile, PersistentDenseFile
from .storage.codec import CodecError
from .storage.ondisk import CorruptPageError

#: The documented exit-code contract (see the module docstring).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_FOUND = 2
EXIT_CORRUPT = 3
EXIT_REGRESSION = 4
EXIT_DEGRADED = 5
EXIT_PENDING_REPLAY = 6

#: Flags of the shared seeded sweep (``stress``, ``chaos``).
SWEEP_FLAGS = ("--seed", "--seconds", "--iterations")


class _Parser(argparse.ArgumentParser):
    """argparse whose bad-usage exit is the contract's 1, not 2."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def parse_key(text: str):
    """CLI key literal: int, then float, then string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _add_path(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="persistent dense file (.dsf)")


def _cache_pages(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("a cache needs at least one frame")
    return value


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=["journaled", "disk", "buffered"],
        default="journaled",
        help="storage stack: crash-atomic journal (default), plain "
        "write-through disk, or a live LRU cache over disk",
    )
    parser.add_argument(
        "--cache-pages", type=_cache_pages, default=None,
        help="frame count for --backend buffered",
    )
    parser.add_argument(
        "--readahead", type=int, default=0,
        help="scan readahead window for --backend buffered "
        "(prefetch up to K upcoming pages on stream retrievals); "
        "refused on the other backends, which have no page cache",
    )


def _add_sweep(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=None,
        help="run exactly this seed (default 0)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="instead of one seed, run random seeds for this long",
    )
    parser.add_argument(
        "--iterations", type=int, default=None,
        help="instead of one seed, run this many random seeds",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree for the ``repro`` CLI."""
    parser = _Parser(
        prog="repro",
        description="Dense sequential files with worst-case maintenance "
        "(Willard, SIGMOD 1986).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    create = commands.add_parser("create", help="create a new dense file")
    _add_path(create)
    create.add_argument("--pages", type=int, required=True, help="M")
    create.add_argument(
        "--low-density", type=int, required=True, dest="d",
        help="d (cardinality cap is d*M)",
    )
    create.add_argument(
        "--capacity", type=int, required=True, dest="D",
        help="D (per-page record cap)",
    )
    create.add_argument("--shift-budget", type=int, default=None, dest="j")
    create.add_argument(
        "--algorithm", choices=["control2", "control1"], default="control2"
    )
    create.add_argument("--slot-bytes", type=int, default=0)
    create.add_argument("--force", action="store_true", help="overwrite")
    _add_backend(create)

    put = commands.add_parser("put", help="insert one record")
    _add_path(put)
    put.add_argument("key")
    put.add_argument("value", nargs="?", default=None)

    get = commands.add_parser("get", help="look up one key")
    _add_path(get)
    get.add_argument("key")

    delete = commands.add_parser("delete", help="delete one key")
    _add_path(delete)
    delete.add_argument("key")

    scan = commands.add_parser("scan", help="next N records from a key")
    _add_path(scan)
    scan.add_argument("--start", required=True)
    scan.add_argument("--count", type=int, default=10)

    key_range = commands.add_parser("range", help="records with lo<=key<=hi")
    _add_path(key_range)
    key_range.add_argument("--lo", required=True)
    key_range.add_argument("--hi", required=True)

    load = commands.add_parser("load", help="bulk-insert integer keys")
    _add_path(load)
    load.add_argument(
        "--keys", required=True,
        help="Python-range syntax start:stop[:step], e.g. 0:1000:2",
    )

    replay = commands.add_parser(
        "replay", help="apply a .jsonl operation trace to the file"
    )
    _add_path(replay)
    replay.add_argument("trace", help="trace file from workloads.dump_operations")

    wipe = commands.add_parser("delete-range", help="bulk delete lo..hi")
    _add_path(wipe)
    wipe.add_argument("--lo", required=True)
    wipe.add_argument("--hi", required=True)

    rank = commands.add_parser("rank", help="records with key < KEY")
    _add_path(rank)
    rank.add_argument("key")

    count = commands.add_parser("count", help="records with lo<=key<=hi")
    _add_path(count)
    count.add_argument("--lo", required=True)
    count.add_argument("--hi", required=True)

    compact = commands.add_parser(
        "compact", help="uniformly redistribute all records"
    )
    _add_path(compact)

    info = commands.add_parser("info", help="geometry, fill and heatmap")
    _add_path(info)
    _add_backend(info)

    verify = commands.add_parser(
        "verify", help="invariants + on-disk checksums"
    )
    _add_path(verify)
    _add_backend(verify)

    scrub = commands.add_parser(
        "scrub",
        help="checksum every page, repair from the journal, quarantine "
        "the rest (exit 0 healthy, 3 degraded)",
    )
    _add_path(scrub)

    stress = commands.add_parser(
        "stress",
        help="deterministic concurrency torture run (linearizability "
        "vs. a sequential oracle; exit 0 clean, 3 findings)",
    )
    stress.add_argument("--threads", type=int, default=4)
    stress.add_argument(
        "--ops", type=int, default=200,
        help="total operations across all threads",
    )
    _add_sweep(stress)
    stress.add_argument(
        "--batch", type=int, default=4,
        help="max operations raced in one batch",
    )
    stress.add_argument(
        "--stack", choices=["memory", "disk", "buffered", "faulty"],
        default="memory",
    )
    stress.add_argument(
        "--fault-rate", type=float, default=0.05,
        help="transient-fault rate for --stack faulty",
    )
    stress.add_argument(
        "--self-test", action="store_true",
        help="run only the harness's controls instead: a clean run plus "
        "a seeded race and a lock-order deadlock that must be detected",
    )
    stress.add_argument(
        "--sanitize", action="store_true",
        help="rebuild the stack with the race sanitizer (Eraser-style "
        "lockset + happens-before + lock-order graph) and fail on any "
        "finding; with --self-test, run the sanitizer's controls "
        "instead (a planted unlocked write and ABBA must be detected)",
    )
    stress.add_argument(
        "--replica-reads", action="store_true", dest="replica_reads",
        help="replication schedule instead: writers on a journaled "
        "primary, readers on a WAL-shipped replica, every snapshot "
        "checked prefix-consistent against the primary's commit digests",
    )
    stress.add_argument(
        "--readers", type=int, default=2,
        help="replica reader threads for --replica-reads",
    )

    soak = commands.add_parser(
        "soak",
        help="long-soak SLO runner: a primary+replica pair under mixed "
        "load, seeded crashes, torn writes and bit flips, with "
        "promote-on-crash failovers and scrub healing; writes a "
        "repro-bench/1 JSON report (exit 0 clean, 3 findings)",
    )
    soak.add_argument(
        "--seconds", type=float, default=20.0,
        help="wall-clock soak duration",
    )
    soak.add_argument("--seed", type=int, default=7)
    soak.add_argument(
        "--transport", choices=["queue", "directory"], default="queue",
        help="WAL shipping transport: in-process queue or a shipping "
        "directory of one-file-per-transaction frames",
    )
    soak.add_argument(
        "--workdir", default=None,
        help="directory for the node files (default: a fresh temp dir)",
    )
    soak.add_argument(
        "--out", default=None,
        help="write the repro-bench/1 JSON report here",
    )
    soak.add_argument(
        "--crash-every", type=int, default=200, dest="crash_every",
        help="mean writes between seeded primary crashes",
    )
    soak.add_argument(
        "--corrupt-every", type=int, default=450, dest="corrupt_every",
        help="mean writes between torn-write/bit-flip corruption rounds",
    )
    soak.add_argument(
        "--op-timeout", type=float, default=2.0, dest="op_timeout",
        help="per-operation deadline budget, seconds",
    )

    bench = commands.add_parser(
        "bench",
        help="wall-clock benchmark matrix (scenarios x backends) with "
        "JSON report + --baseline regression gate (exit 4 on regression)",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: shrink the operation counts",
    )
    bench.add_argument("--ops", type=int, default=None,
                       help="records per scenario (default 4000)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--out", default=None,
        help="write the JSON report here (default and '-': write none)",
    )
    bench.add_argument(
        "--scenario", action="append", dest="scenarios", default=None,
        choices=benchmark.SCENARIOS,
        help="run only this scenario (repeatable; default: all four)",
    )
    bench.add_argument(
        "--bench-backend", action="append", dest="bench_backends",
        default=None, choices=benchmark.BACKENDS,
        help="benchmark this backend (repeatable; default: memory+buffered)",
    )
    bench.add_argument(
        "--baseline", default=None,
        help="compare against this BENCH_*.json; exit 4 on regression",
    )
    bench.add_argument(
        "--max-regression", type=float, default=None,
        help="allowed throughput drop vs --baseline, percent (default 30)",
    )
    bench.add_argument(
        "--profile", action="store_true",
        help="run the matrix under cProfile; print the hottest functions "
        "(cumulative time) to stderr",
    )
    bench.add_argument(
        "--profile-out", default=None, metavar="FILE",
        help="write the profile table to FILE instead of stderr "
        "(implies --profile)",
    )
    bench.add_argument(
        "--profile-top", type=int, default=25, metavar="N",
        help="number of functions in the profile table (default 25)",
    )
    bench.add_argument(
        "--validate", metavar="REPORT", default=None,
        help="schema-check an existing report and exit (1 if invalid)",
    )
    bench.add_argument(
        "--compare", nargs=2, metavar=("BASELINE", "CURRENT"), default=None,
        help="gate CURRENT against BASELINE without running anything",
    )

    lint = commands.add_parser(
        "lint",
        help="AST invariant linter: page-access accounting, lock "
        "discipline and order, error taxonomy, determinism, deadline "
        "propagation (exit 0 clean, 1 findings)",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro and tools)",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text", dest="fmt",
        help="report format (json is the CI annotation feed)",
    )
    lint.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids or slugs (e.g. LNT004,determinism)",
    )
    lint.add_argument(
        "--fix", action="store_true",
        help="apply the mechanically safe rewrites in place "
        "(LNT004 bare `except:` -> `except Exception:`), then re-lint",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )

    serve = commands.add_parser(
        "serve",
        help="serve a range-sharded in-memory cluster over TCP "
        "(framed JSON protocol with idempotency tokens and "
        "deadline budgets)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7421,
        help="TCP port (0 picks a free one and prints it)",
    )
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument(
        "--key-space", type=int, default=100_000, dest="key_space",
        help="keys are routed across [0, key-space)",
    )
    serve.add_argument(
        "--capacity", type=int, default=8192,
        help="records each shard is sized to hold",
    )
    serve.add_argument(
        "--shed-load", action="store_true", dest="shed_load",
        help="per-shard admission gates reject writes that would queue",
    )
    serve.add_argument(
        "--max-in-flight", type=int, default=None, dest="max_in_flight",
        help="per-shard in-flight operation cap",
    )
    serve.add_argument(
        "--seconds", type=float, default=None,
        help="serve for N seconds then exit (default: until Ctrl-C)",
    )

    chaos = commands.add_parser(
        "chaos",
        help="network chaos harness: sweep seeded fault schedules "
        "(drops, delays, duplicates, reorders, truncations, a "
        "kill-shard drill) against multi-client workloads and prove "
        "the success / typed-timeout / not-applied trichotomy "
        "(exit 0 held, 3 violations)",
    )
    _add_sweep(chaos)
    chaos.add_argument(
        "--ops", type=int, default=120,
        help="operations per profile",
    )
    chaos.add_argument("--threads", type=int, default=3)
    chaos.add_argument(
        "--profile", default=None,
        help="run one named profile instead of the full sweep "
        "(clean, drops, delays, duplicates, reorders, truncates, "
        "storm, kill-shard)",
    )
    chaos.add_argument(
        "--out", default=None,
        help="write a repro-chaos/1 JSON report of the last sweep here",
    )

    demo = commands.add_parser("demo", help="replay the paper's Example 5.2")
    demo.add_argument(
        "--backend", choices=["memory", "buffered"], default="memory",
        help="run the example on the pure simulator or through a live "
        "LRU cache (prints its hit-rate counters)",
    )
    demo.add_argument("--cache-pages", type=_cache_pages, default=None)
    return parser


def _parse_range(spec: str) -> range:
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ReproError(f"bad --keys spec {spec!r}; want start:stop[:step]")
    numbers = [int(part) for part in parts]
    return range(*numbers)


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args, argv, out)
    except (CodecError, CorruptPageError) as error:
        print(
            f"error: corrupt page data ({error}); run `repro verify` "
            "to locate the page and `repro scrub` to repair or quarantine it",
            file=out,
        )
        return EXIT_CORRUPT
    except ReproError as error:
        print(f"error: {error}", file=out)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=out)
        return 1


def _plain_stack(args) -> dict:
    """``cache_pages``/``readahead`` for the plain stack ``--backend`` names."""
    if args.backend != "buffered":
        return {"cache_pages": None, "readahead": 0}
    from .storage.backend import DEFAULT_CACHE_PAGES

    return {
        "cache_pages": args.cache_pages or DEFAULT_CACHE_PAGES,
        "readahead": args.readahead,
    }


def _open_backend(args):
    """Open an existing file through the stack ``--backend`` names."""
    if args.backend == "journaled":
        return JournaledDenseFile.open(args.path)
    return PersistentDenseFile.open(args.path, **_plain_stack(args))


def _pending_replay(args, out) -> bool:
    """True, after saying so, when committed journal work is outstanding
    and the requested plain backend cannot replay it (the operator sees
    the durable LSN instead of the refuse-to-open error)."""
    from .storage.wal import journal_state

    state = journal_state(args.path)
    if state.clean or args.backend == "journaled":
        return False
    print(f"journal:   {state.describe()}", file=out)
    print(
        "reopen with the journaled backend (default) to replay the "
        "committed transaction or discard the torn tail",
        file=out,
    )
    return True


def _dispatch(args, argv: List[str], out) -> int:
    if getattr(args, "readahead", 0) and args.backend != "buffered":
        raise ConfigurationError(
            f"--readahead prefetches into a page cache; the {args.backend} "
            "backend has none (use --backend buffered)"
        )
    if args.command == "create":
        common = dict(
            num_pages=args.pages,
            d=args.d,
            D=args.D,
            j=args.j,
            algorithm=args.algorithm,
            slot_capacity=args.slot_bytes,
            overwrite=args.force,
        )
        if args.backend == "journaled":
            dense = JournaledDenseFile.create(args.path, **common)
        else:
            dense = PersistentDenseFile.create(
                args.path, **_plain_stack(args), **common
            )
        print(
            f"created {args.path}: M={args.pages}, d={args.d}, D={args.D}, "
            f"J={dense.params.shift_budget}, cap {dense.params.max_records} "
            f"records ({args.backend} backend)",
            file=out,
        )
        dense.close()
        return 0

    if args.command == "lint":
        return _lint(args, out)

    if args.command == "bench":
        return _bench(args, out)

    if args.command == "stress":
        return _stress(args, argv, out)

    if args.command == "soak":
        return _soak(args, out)

    if args.command == "serve":
        return _serve(args, out)

    if args.command == "chaos":
        return _chaos(args, argv, out)

    if args.command == "demo":
        return _demo(out, backend=args.backend, cache_pages=args.cache_pages)

    if args.command == "verify":
        return _verify(args, out)

    if args.command == "scrub":
        return _scrub(args, out)

    if args.command == "info":
        if _pending_replay(args, out):
            return EXIT_PENDING_REPLAY
        try:
            with _open_backend(args) as dense:
                return _dispatch_on_file(args, dense, out)
        except CorruptPageError:
            # Fall back to the degraded read-only view so the operator
            # can still see geometry, fill and the quarantine set.
            with PersistentDenseFile.open(
                args.path, on_corruption="degrade"
            ) as dense:
                code = _dispatch_on_file(args, dense, out)
                return EXIT_DEGRADED if code == EXIT_OK else code

    with JournaledDenseFile.open(args.path) as dense:
        return _dispatch_on_file(args, dense, out)


def _verify(args, out) -> int:
    """Checksums first (works even when pages are unreadable), then the
    structural invariants through the requested storage stack."""
    from .storage.ondisk import DiskPagedStore
    from .storage.scrub import plan_repairs
    from .storage.wal import journal_state

    with DiskPagedStore.open(args.path) as store:
        corrupt = store.verify_all()
    if corrupt:
        print(f"CORRUPT pages: {corrupt}", file=out)
        plan = plan_repairs(args.path, corrupt)
        for pages, guidance in (
            (plan.journal, "repairable from the journal"),
            (plan.heal, "repairable from the retained applied journal image"),
        ):
            if pages:
                print(f"{guidance}: {list(pages)} — run `repro scrub`",
                      file=out)
        if plan.quarantine:
            print(
                f"no journaled image for: {list(plan.quarantine)} — "
                "`repro scrub` will quarantine them (file becomes "
                "read-only)",
                file=out,
            )
        return EXIT_CORRUPT
    if _pending_replay(args, out):
        return EXIT_PENDING_REPLAY
    with _open_backend(args) as dense:
        dense.validate()
        degraded = bool(getattr(dense, "read_only", False))
        counters = dense.store_stats()
    if degraded:
        print(
            "DEGRADED: structure verifies but the file is quarantined "
            "read-only — run `repro scrub` or restore from backup",
            file=out,
        )
        return EXIT_DEGRADED
    print(
        "ok: sequential order, (d,D)-density, BALANCE(d,D), counters, "
        "checksums",
        file=out,
    )
    state = journal_state(args.path)
    if state.durable_sequence or not state.clean or state.applied_retained:
        print(f"journal:   {state.describe()}", file=out)
    interesting = {
        key: value
        for key, value in sorted(counters.items())
        if key.startswith("storage.wal.") or "prefetch" in key
    }
    if interesting:
        line = ", ".join(f"{key}={value}" for key, value in interesting.items())
        print(f"counters:  {line}", file=out)
    return 0


def _default_lint_roots() -> List[str]:
    """The package sources and the tools/ scripts next to them.

    Resolved from the installed package location so ``repro lint``
    works from any working directory inside (or outside) the repo.
    """
    import repro

    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    roots = [package_dir]
    repo_root = os.path.dirname(os.path.dirname(package_dir))
    tools_dir = os.path.join(repo_root, "tools")
    if os.path.isdir(tools_dir):
        roots.append(tools_dir)
    return roots


def _lint(args, out) -> int:
    """Run the AST checkers; exit 0 clean, 1 findings."""
    from .lint import rule_table, run_fix, run_lint

    if args.list_rules:
        for rule in rule_table():
            print(
                f"{rule['id']}  {rule['slug']:<16} {rule['title']}",
                file=out,
            )
        return 0
    roots = args.paths or _default_lint_roots()
    rules = args.rules.split(",") if args.rules else None
    if args.fix:
        for path, rewrites in run_fix(roots):
            print(
                f"fixed {path}: {rewrites} bare `except:` clause(s) -> "
                "`except Exception:`",
                file=out,
            )
    report = run_lint(roots, rules)
    if args.fmt == "json":
        print(report.to_json(), file=out)
    else:
        print(report.render(), file=out)
    return 0 if report.clean else 1


def _write_json(path: str, payload: Any) -> str:
    """The one JSON report writer (bench, soak and chaos artifacts)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return f"report written to {path}"


def _load_report(path: str) -> dict:
    """A bench report from disk; an invalid one is a :class:`ReproError`."""
    with open(path) as handle:
        try:
            report = json.load(handle)
        except ValueError as error:
            raise ReproError(f"{path} is not JSON: {error}") from error
    problems = benchmark.validate_report(report)
    if problems:
        raise ReproError(
            f"{path} is not a valid {benchmark.SCHEMA} report: "
            + "; ".join(problems)
        )
    return report


def _gate(baseline_path: str, current: dict, args, out) -> int:
    """Compare ``current`` against the report at ``baseline_path``."""
    kwargs = {}
    if args.max_regression is not None:
        kwargs["max_regression"] = args.max_regression
    regressions = benchmark.compare_reports(
        _load_report(baseline_path), current, **kwargs
    )
    if regressions:
        print(f"REGRESSION vs {baseline_path}:", file=out)
        for line in regressions:
            print(f"  {line}", file=out)
        return EXIT_REGRESSION
    print(f"no regression vs {baseline_path}", file=out)
    return EXIT_OK


def _bench(args, out) -> int:
    """Run the benchmark matrix, write the JSON report, gate on baseline;
    or, with ``--validate``/``--compare``, judge existing reports."""
    if args.validate:
        report = _load_report(args.validate)
        schema = (
            benchmark.SCHEMA if "results" in report
            else benchmark.MEASUREMENT_SCHEMA
        )
        print(f"{args.validate}: valid {schema} report", file=out)
        return EXIT_OK
    if args.compare:
        baseline_path, current_path = args.compare
        return _gate(baseline_path, _load_report(current_path), args, out)
    kwargs = dict(
        seed=args.seed,
        quick=args.quick,
        scenarios=tuple(args.scenarios or benchmark.SCENARIOS),
        backends=tuple(args.bench_backends or ("memory", "buffered")),
    )
    if args.ops is not None:
        kwargs["ops"] = args.ops
    if args.profile or args.profile_out is not None:
        report, table = benchmark.run_bench_profiled(
            profile_top=args.profile_top, **kwargs
        )
        if args.profile_out:
            with open(args.profile_out, "w") as handle:
                handle.write(table)
            print(f"profile written to {args.profile_out}", file=out)
        else:
            sys.stderr.write(table)
        print(
            "note: wall-clock figures below include cProfile overhead",
            file=out,
        )
    else:
        report = benchmark.run_bench(**kwargs)
    print(benchmark.render_report(report), file=out)
    if args.out and args.out != "-":
        print(_write_json(args.out, report), file=out)
    if args.baseline:
        return _gate(args.baseline, report, args, out)
    return EXIT_OK


def replay_argv(argv: List[str], seed: int) -> List[str]:
    """``argv`` with the sweep flags dropped and ``--seed seed`` pinned.

    Every other flag is kept as typed, so the replayed run builds the
    same configuration (and schedule) as the failing one.  Abbreviated
    spellings that argparse accepted (``--iter 5``) are dropped too.
    """
    kept: List[str] = []
    tokens = iter(argv)
    for token in tokens:
        flag, has_value, _value = token.partition("=")
        if len(flag) > 2 and any(
            name.startswith(flag) for name in SWEEP_FLAGS
        ):
            if not has_value:
                next(tokens, None)
            continue
        kept.append(token)
    return kept + ["--seed", str(seed)]


def _sweep(
    args, argv: List[str], out, label: str,
    run_one: Callable[[int], Tuple[bool, str]],
) -> int:
    """One run at ``--seed`` (default 0), or a random-seed sweep.

    ``run_one(seed)`` returns ``(ok, report text)``.  A sweep runs
    ``--iterations`` seeds (else seeds until ``--seconds`` pass),
    prints nothing for clean seeds, and stops at the first failure
    with its report and a replay command line.
    """
    if args.seconds is None and args.iterations is None:
        ok, text = run_one(args.seed or 0)
        print(text, file=out)
        return EXIT_OK if ok else EXIT_CORRUPT
    if args.seed is not None:
        raise ReproError(
            "--seed pins one run; drop it to sweep with --seconds/--iterations"
        )
    deadline = time.monotonic() + (args.seconds or 0.0)
    runs = 0
    while (
        runs < args.iterations
        if args.iterations is not None
        else time.monotonic() < deadline
    ):
        seed = random.randrange(1 << 30)
        ok, text = run_one(seed)
        if not ok:
            print(text, file=out)
            print(
                "replay: python -m repro " + shlex.join(replay_argv(argv, seed)),
                file=out,
            )
            return EXIT_CORRUPT
        runs += 1
    print(f"{label}: {runs} seeded runs clean", file=out)
    return EXIT_OK


def _stress(args, argv: List[str], out) -> int:
    """Torture runs, the replica-reads schedule, or the self-test controls."""
    from .concurrent.harness import StressConfig, run_stress, self_test
    from .replication import ReplicaStressConfig, run_replica_stress
    from .sanitizer import sanitize_self_test

    def scratch_file(name: str) -> str:
        return os.path.join(tempfile.mkdtemp(prefix="repro-stress-"), name)

    def run_one(seed: int) -> Tuple[bool, str]:
        report: Any
        if args.self_test:
            report = (sanitize_self_test if args.sanitize else self_test)(
                seed=seed
            )
        elif args.replica_reads:
            report = run_replica_stress(
                ReplicaStressConfig(
                    path=scratch_file("primary.dsf"),
                    threads=args.threads,
                    readers=args.readers,
                    total_ops=args.ops,
                    seed=seed,
                )
            )
        else:
            on_disk = args.stack in ("disk", "buffered")
            report = run_stress(
                StressConfig(
                    threads=args.threads,
                    total_ops=args.ops,
                    seed=seed,
                    max_batch=args.batch,
                    stack=args.stack,
                    transient_rate=args.fault_rate,
                    path=scratch_file("stress.dsf") if on_disk else None,
                    sanitize=args.sanitize,
                )
            )
        return report.ok, report.summary()

    mode = " sanitized" if args.sanitize else ""
    return _sweep(args, argv, out, f"stress[{args.stack}]{mode}", run_one)


def _soak(args, out) -> int:
    """Run the replication SLO soak; write the repro-bench/1 report."""
    from .replication import SoakConfig, run_soak

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-soak-")
    report = run_soak(
        SoakConfig(
            workdir=workdir,
            seconds=args.seconds,
            seed=args.seed,
            transport=args.transport,
            crash_every=args.crash_every,
            corrupt_every=args.corrupt_every,
            op_timeout=args.op_timeout,
        )
    )
    print(report.summary(), file=out)
    if args.out:
        print(_write_json(args.out, report.to_bench_report()), file=out)
    return EXIT_OK if report.clean else EXIT_CORRUPT


def _serve(args, out) -> int:
    """Run the sharded cluster server until interrupted (or --seconds)."""
    import time as _time

    from .cluster import ClusterServer, ShardedDenseFile

    store = ShardedDenseFile.build(
        num_shards=args.shards,
        key_space=args.key_space,
        capacity_hint=args.capacity,
        shed_load=args.shed_load,
        max_in_flight=args.max_in_flight,
    )
    server = ClusterServer(store)
    host, port = server.start(args.host, args.port)
    print(
        f"serving {args.shards} shards over [0, {args.key_space}) "
        f"on {host}:{port}",
        file=out,
    )
    for shard_range in store.shard_map.ranges():
        print(f"  {shard_range.describe()}", file=out)
    try:
        if args.seconds is not None:
            _time.sleep(args.seconds)
        else:
            while True:
                _time.sleep(3600.0)
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=out)
    finally:
        server.stop()
        store.close()
    print(
        f"served {server.requests} requests "
        f"({server.errors} errors, {server.dedup_replays} dedup replays)",
        file=out,
    )
    return EXIT_OK


def _chaos(args, argv: List[str], out) -> int:
    """Run the chaos sweep (or one profile) and gate on the trichotomy."""
    from .cluster.chaos import SWEEP_PROFILES, run_sweep

    profiles = SWEEP_PROFILES
    if args.profile is not None:
        chosen = dict(SWEEP_PROFILES).get(args.profile)
        if chosen is None:
            names = ", ".join(name for name, _overrides in SWEEP_PROFILES)
            raise ReproError(
                f"unknown chaos profile {args.profile!r}; pick one of {names}"
            )
        profiles = ((args.profile, chosen),)

    def run_one(seed: int) -> Tuple[bool, str]:
        reports = run_sweep(
            seed=seed,
            total_ops=args.ops,
            threads=args.threads,
            profiles=profiles,
        )
        held = sum(1 for _name, report in reports if report.ok)
        lines = [
            f"[{name}]\n{report.summary()}" for name, report in reports
        ]
        if args.out:
            payload = {
                "schema": "repro-chaos/1",
                "seed": seed,
                "ops": args.ops,
                "threads": args.threads,
                "ok": held == len(reports),
                "profiles": {
                    name: report.to_dict() for name, report in reports
                },
            }
            lines.append(_write_json(args.out, payload))
        lines.append(
            f"{held}/{len(reports)} profiles held the trichotomy"
        )
        return held == len(reports), "\n".join(lines)

    return _sweep(args, argv, out, "chaos", run_one)


def _scrub(args, out) -> int:
    """Run the detect/repair/quarantine/verify ladder and report it."""
    from .storage.scrub import scrub

    report = scrub(args.path)
    print(report.summary(), file=out)
    return EXIT_OK if report.healthy else EXIT_CORRUPT


def _dispatch_on_file(args, dense, out) -> int:
    if args.command == "put":
        dense.insert(parse_key(args.key), args.value)
        print(f"ok ({len(dense)} records)", file=out)
        return 0

    if args.command == "get":
        record = dense.search(parse_key(args.key))
        if record is None:
            print("not found", file=out)
            return EXIT_NOT_FOUND
        print(f"{record.key}\t{record.value}", file=out)
        return 0

    if args.command == "delete":
        dense.delete(parse_key(args.key))
        print(f"deleted ({len(dense)} records left)", file=out)
        return 0

    if args.command == "scan":
        for record in dense.scan(parse_key(args.start), args.count):
            print(f"{record.key}\t{record.value}", file=out)
        return 0

    if args.command == "range":
        for record in dense.range(parse_key(args.lo), parse_key(args.hi)):
            print(f"{record.key}\t{record.value}", file=out)
        return 0

    if args.command == "load":
        count = dense.insert_many(_parse_range(args.keys))
        print(f"loaded {count} records ({len(dense)} total)", file=out)
        return 0

    if args.command == "replay":
        from .workloads import load_operations, run_workload

        operations = load_operations(args.trace)
        result = run_workload(dense, operations)
        print(
            f"replayed {result.operations_executed} commands "
            f"({len(dense)} records now)",
            file=out,
        )
        return 0

    if args.command == "delete-range":
        removed = dense.delete_range(parse_key(args.lo), parse_key(args.hi))
        print(f"deleted {removed} records ({len(dense)} left)", file=out)
        return 0

    if args.command == "rank":
        print(dense.rank(parse_key(args.key)), file=out)
        return 0

    if args.command == "count":
        print(
            dense.count_range(parse_key(args.lo), parse_key(args.hi)),
            file=out,
        )
        return 0

    if args.command == "compact":
        pages = dense.compact()
        print(f"compacted: rewrote {pages} pages", file=out)
        return 0

    if args.command == "info":
        params = dense.params
        print(f"path:      {dense.path}", file=out)
        print(f"algorithm: {dense.engine.algorithm_name}", file=out)
        print(
            f"geometry:  M={params.num_pages}, d={params.d}, D={params.D}, "
            f"J={params.shift_budget}",
            file=out,
        )
        occupancies = dense.occupancies()
        print(f"fill:      {fill_summary(occupancies, params.D)}", file=out)
        print(f"layout:    |{occupancy_bar(occupancies, params.D)}|", file=out)
        print(f"           {occupancy_legend(params.D)}", file=out)
        counters = dense.store_stats()
        store = dense.store
        journaled = isinstance(dense, JournaledDenseFile)
        print(
            f"backend:   {'journaled' if journaled else store.name}", file=out
        )
        print(
            f"balance:   headroom {counters['core.balance_headroom']} records "
            "(negative = BALANCE(d,D) broken)",
            file=out,
        )
        if getattr(dense, "read_only", False):
            print(
                f"state:     DEGRADED (read-only); quarantined pages "
                f"{list(dense.quarantined)} — run `repro scrub` or "
                "restore from backup",
                file=out,
            )
        if store.name == "buffered":
            pool = store.stats()
            print(
                f"cache:     {store.pool.stats.capacity} frames, "
                f"{pool['hits']} hits / {pool['misses']} misses "
                f"(hit rate {pool['hit_rate']:.3f}), "
                f"{pool['evictions']} evictions",
                file=out,
            )
            print(
                f"readahead: window {store.readahead}, "
                f"{pool['prefetches']} prefetches, "
                f"{pool['prefetch_hits']} prefetch hits",
                file=out,
            )
            print(
                f"physical:  {pool['physical_reads']} reads, "
                f"{pool['physical_writes']} writes",
                file=out,
            )
        if journaled:
            print(
                f"journal:   {counters['storage.wal.transactions']} "
                f"transactions, {counters['storage.wal.pages_journaled']} "
                f"pages journaled, {counters['storage.wal.fsyncs']} fsyncs "
                "(group commit coalesces commands per fsync)",
                file=out,
            )
        from .storage.wal import journal_state

        state = journal_state(dense.path)
        if (
            journaled
            or state.durable_sequence
            or not state.clean
            or state.applied_retained
        ):
            print(f"wal:       {state.describe()}", file=out)
        if getattr(dense, "read_only", False):
            return EXIT_DEGRADED
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


def _demo(out, backend: str = "memory", cache_pages: Optional[int] = None) -> int:
    from .core.control2 import Control2Engine
    from .core.params import DensityParams
    from .core.trace import MomentRecorder
    from .storage.backend import BufferedStore, MemoryStore

    params = DensityParams(num_pages=8, d=9, D=18, j=3)
    store = None
    if backend == "buffered":
        store = BufferedStore(MemoryStore(8), capacity=cache_pages or 4)
    engine = Control2Engine(params, store=store)
    engine.load_occupancies([16, 1, 0, 1, 9, 9, 9, 16], key_start=0, key_gap=10)
    recorder = MomentRecorder(moment_types={"3", "4c"}).attach(engine)
    print("Example 5.2 (M=8, d=9, D=18, J=3)", file=out)
    print(f"      t0: {engine.occupancies()}", file=out)
    engine.insert_at_page(8, 10_000)
    engine.insert_at_page(1, -10_000)
    for index, moment in enumerate(recorder.moments, start=1):
        print(f"      t{index}: {list(moment.occupancies)}", file=out)
    engine.validate()
    print("matches Figure 4 of the paper; invariants hold", file=out)
    if store is not None:
        store.flush()
        pool = store.pool.stats
        print(
            f"live cache ({pool.capacity} frames): {pool.hits} hits / "
            f"{pool.misses} misses (hit rate {pool.hit_rate:.3f}), "
            f"{pool.physical_reads} physical reads, "
            f"{pool.physical_writes} physical writes",
            file=out,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
