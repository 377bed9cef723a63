"""The network chaos harness: prove the trichotomy under faults.

Every client operation issued against the cluster front-end must end in
exactly one of three ways — this is the contract the whole robustness
stack (retries, breakers, idempotency tokens, deadlines) exists to
uphold:

1. **success**, with a result that linearizes against the
   :class:`~repro.concurrent.harness.SequentialOracle`;
2. **typed failure within its deadline** — ``OperationTimeout``,
   ``OverloadError``, ``ShardUnavailableError``, ``CircuitOpenError`` —
   never a hang, never an untyped crash;
3. **provably not applied** — a failed write either shows up in the
   server's idempotency table (it *was* applied; its recorded outcome
   must then linearize) or is absent (proof it never executed).

:func:`run_chaos` drives a seeded multi-client schedule through
:func:`~repro.concurrent.harness.run_batches`, so each batch is
barrier-released and truly overlaps; each client's only route to the
server is a :class:`~repro.cluster.netfaults.ChaosChannel` mangling
exchanges per a seeded :class:`~repro.cluster.netfaults.NetFaultPlan`.
After each batch, ambiguous writes are resolved against the token
table and deadline overruns flagged; the runner's witness search then
stops the run at the first divergence.  A mid-run
``kill_shard`` event additionally asserts graceful degradation: the
surviving key ranges must keep serving while the dead shard's range
fails fast with typed errors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..concurrent.harness import (
    NOT_APPLIED,
    ClientOp,
    Issued,
    SequentialOracle,
    build_schedule,
    run_batches,
    schedule_digest,
)
from ..concurrent.retry import RetryPolicy
from ..core.errors import ConfigurationError
from .client import ClusterClient
from .netfaults import ChaosChannel, NetFaultPlan
from .server import ClusterServer
from .store import ShardedDenseFile
from .transport import LocalChannel


@dataclass
class ChaosConfig:
    """Everything that determines one chaos run (and only that)."""

    seed: int = 0
    threads: int = 3
    total_ops: int = 120
    num_shards: int = 4
    key_space: int = 2000
    max_batch: int = 3
    op_timeout: float = 0.5
    batch_timeout: float = 30.0
    grace: float = 2.0
    #: Network fault rates (see :class:`NetFaultPlan`).
    drop_rate: float = 0.0
    drop_after_rate: float = 0.0
    delay_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    truncate_rate: float = 0.0
    fault_delay: float = 0.005
    #: Retry shape shared by every client (re-seeded per client).
    retry_attempts: int = 6
    retry_base_delay: float = 0.001
    retry_jitter: float = 0.5
    breaker_threshold: int = 4
    breaker_reset: float = 0.05
    #: Kill shard ``kill_shard_id`` before batch ``kill_at`` (None = never),
    #: revive it before batch ``revive_at`` (None = stays down).
    kill_at: Optional[int] = None
    kill_shard_id: int = 0
    revive_at: Optional[int] = None
    insert_ratio: float = 0.6
    read_fraction: float = 0.3

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ConfigurationError("need at least one chaos client")
        if self.op_timeout <= 0.0:
            raise ConfigurationError("op_timeout must be positive")

    def net_plan(self, thread: int) -> NetFaultPlan:
        """The seeded fault plan for one client thread's channel."""
        return NetFaultPlan(
            seed=(self.seed << 8) ^ (thread + 1),
            drop_rate=self.drop_rate,
            drop_after_rate=self.drop_after_rate,
            delay_rate=self.delay_rate,
            duplicate_rate=self.duplicate_rate,
            reorder_rate=self.reorder_rate,
            truncate_rate=self.truncate_rate,
            delay=self.fault_delay,
        )

    def retry_policy(self) -> RetryPolicy:
        """The shared retry shape (clients re-seed the jitter)."""
        return RetryPolicy(
            max_attempts=self.retry_attempts,
            base_delay=self.retry_base_delay,
            max_delay=0.05,
            jitter=self.retry_jitter,
        )


@dataclass
class ChaosReport:
    """What one chaos run observed, audited, and proved."""

    config: ChaosConfig
    digest: str = ""
    batches: int = 0
    ops_issued: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    faults: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    hangs: int = 0
    crashes: int = 0
    deadline_overruns: int = 0
    ambiguous_writes: int = 0
    resolved_applied: int = 0
    proven_not_applied: int = 0
    dedup_replays: int = 0
    retries: int = 0
    breaker_opens: int = 0
    post_kill_successes: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """The trichotomy held: no hangs, no crashes, no divergence."""
        return (
            not self.violations
            and self.hangs == 0
            and self.crashes == 0
            and self.deadline_overruns == 0
        )

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"chaos seed={self.config.seed} threads={self.config.threads} "
            f"ops={self.ops_issued} batches={self.batches} "
            f"elapsed={self.elapsed:.2f}s",
            f"  outcomes: {dict(sorted(self.outcomes.items()))}",
            f"  faults injected: "
            f"{ {k: v for k, v in sorted(self.faults.items()) if v} }",
            f"  ambiguous writes: {self.ambiguous_writes} "
            f"(applied={self.resolved_applied}, "
            f"proven-not-applied={self.proven_not_applied})",
            f"  retries={self.retries} dedup_replays={self.dedup_replays} "
            f"breaker_opens={self.breaker_opens}",
        ]
        if self.config.kill_at is not None:
            lines.append(
                f"  kill shard {self.config.kill_shard_id} at batch "
                f"{self.config.kill_at}: post-kill successes on surviving "
                f"ranges = {self.post_kill_successes}"
            )
        if self.ok:
            lines.append("  TRICHOTOMY HELD (no hangs, no silent loss)")
        else:
            lines.append(
                f"  VIOLATIONS ({len(self.violations)} found, hangs="
                f"{self.hangs}, crashes={self.crashes}, "
                f"overruns={self.deadline_overruns}):"
            )
            lines.extend(f"    - {v}" for v in self.violations[:10])
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready per-profile payload of ``repro chaos --out``."""
        return {
            "seed": self.config.seed,
            "digest": self.digest,
            "ok": self.ok,
            "batches": self.batches,
            "ops_issued": self.ops_issued,
            "outcomes": dict(sorted(self.outcomes.items())),
            "faults": dict(sorted(self.faults.items())),
            "violations": list(self.violations),
            "hangs": self.hangs,
            "crashes": self.crashes,
            "deadline_overruns": self.deadline_overruns,
            "ambiguous_writes": self.ambiguous_writes,
            "resolved_applied": self.resolved_applied,
            "proven_not_applied": self.proven_not_applied,
            "dedup_replays": self.dedup_replays,
            "retries": self.retries,
            "breaker_opens": self.breaker_opens,
            "post_kill_successes": self.post_kill_successes,
            "elapsed": round(self.elapsed, 3),
        }


def _resolve_ambiguous(
    issued: Issued,
    token: Optional[str],
    server: ClusterServer,
    report: ChaosReport,
) -> None:
    """Resolve a failed write against the idempotency table.

    A write whose outcome is in :data:`NOT_APPLIED` *might* still have
    been applied (the ``drop_after`` fault).  The server's token table
    is ground truth: a recorded outcome means it executed — substitute
    that outcome so the witness search accounts for it; an absent token
    is proof of non-application — keep the skipped outcome.
    """
    if token is None or issued.outcome[0] not in NOT_APPLIED:
        return
    report.ambiguous_writes += 1
    recorded = server.tokens.peek(token)
    if recorded is None:
        report.proven_not_applied += 1
        return
    report.resolved_applied += 1
    if recorded.get("ok"):
        issued.outcome = ("ok",)
    else:
        issued.outcome = ("error", str(recorded.get("error", "ReproError")))


def run_chaos(config: ChaosConfig) -> ChaosReport:
    """One deterministic chaos run; returns the audited report."""
    started = time.monotonic()
    report = ChaosReport(config=config)

    store = ShardedDenseFile.build(
        num_shards=config.num_shards,
        key_space=config.key_space,
        capacity_hint=max(2048, config.total_ops * 2),
    )
    server = ClusterServer(store)
    plans = [config.net_plan(tid) for tid in range(config.threads)]
    clients = [
        ClusterClient(
            ChaosChannel(
                LocalChannel(server.handle_frame), plan, sleep=time.sleep
            ),
            client_id=f"chaos-{config.seed}-t{tid}",
            retry_policy=config.retry_policy(),
            client_seed=(config.seed << 4) ^ tid,
            default_timeout=config.op_timeout,
            breaker_threshold=config.breaker_threshold,
            breaker_reset=config.breaker_reset,
        )
        for tid, plan in enumerate(plans)
    ]
    for client in clients:
        client.prime(store.shard_map)

    schedule = build_schedule(
        config.seed, config.threads, config.total_ops, config.max_batch,
        insert_ratio=config.insert_ratio, key_space=config.key_space,
        read_fraction=config.read_fraction,
    )
    report.digest = schedule_digest(schedule)
    # Each thread's write token, generated before the call: if the
    # call raises, the token is what lets the audit prove whether the
    # write was applied anyway.
    tokens: List[Optional[str]] = [None] * config.threads
    dead_ranges: Tuple[Tuple[Any, Any], ...] = ()

    def issue(op: ClientOp) -> Tuple:
        client = clients[op.thread]
        token = client.new_token() if op.kind in ("insert", "delete") else None
        tokens[op.thread] = token
        if op.kind == "insert":
            client.insert_with_token(op.key, token=token)
            return ("ok",)
        if op.kind == "delete":
            client.delete_with_token(op.key, token=token)
            return ("ok",)
        if op.kind == "search":
            record = client.search(op.key)
            return ("hit",) if record is not None else ("miss",)
        if op.kind == "scan":
            scan = client.scan(op.key, op.arg)
            if scan.partial:
                return ("partial",)
            return ("scan", tuple(record.key for record in scan.records))
        if op.kind == "count":
            return ("count", client.count_range(op.key, op.key + op.arg))
        raise ConfigurationError(f"unknown chaos op kind {op.kind!r}")

    def before_batch(index: int) -> None:
        nonlocal dead_ranges
        if index == config.kill_at:
            store.mark_down(config.kill_shard_id)
            dead_ranges = store.shard_map.key_ranges((config.kill_shard_id,))
        if index == config.revive_at:
            store.revive(config.kill_shard_id)
            dead_ranges = ()

    def settle(index: int, batch: List[Issued]) -> None:
        budget_cap = config.op_timeout + config.grace
        for issued in batch:
            _resolve_ambiguous(issued, tokens[issued.op.thread], server, report)
            if issued.elapsed > budget_cap:
                report.deadline_overruns += 1
                report.violations.append(
                    f"batch {index}: {issued.op.describe()} took "
                    f"{issued.elapsed:.3f}s, over its {budget_cap:.3f}s "
                    "budget+grace"
                )
            if dead_ranges and issued.outcome[0] in (
                "ok", "hit", "miss", "scan", "count"
            ):
                lo, hi = dead_ranges[0]
                if not (lo <= issued.op.key < hi):
                    report.post_kill_successes += 1

    def audit(oracle: SequentialOracle) -> Optional[str]:
        """Surviving shards must hold exactly the oracle's keys."""
        owner = store.shard_map.shard_for
        problems = []
        for shard in store.shard_map.ranges():
            if store.state_of(shard.shard_id) == "down":
                continue
            held = store.shards[shard.shard_id].range(shard.lo, config.key_space)
            actual = [r.key for r in held if owner(r.key) == shard.shard_id]
            expected = [k for k in oracle.keys() if owner(k) == shard.shard_id]
            if actual != expected:
                problems.append(
                    f"contents of {shard.describe()} diverge from the "
                    f"oracle: {len(actual)} vs {len(expected)} keys "
                    "(silent loss or duplication)"
                )
        return "; ".join(problems) or None

    try:
        run = run_batches(
            schedule, config.threads, issue, audit,
            batch_timeout=config.batch_timeout, audit_every=0,
            before_batch=before_batch, settle=settle,
        )
    finally:
        report.dedup_replays = server.dedup_replays
        for client, plan in zip(clients, plans):
            stats = client.client_stats()
            report.retries += int(stats["cluster.client.retries"])
            report.breaker_opens += int(stats.get("cluster.breaker.opens", 0))
            for kind, count in plan.injected.items():
                report.faults[kind] = report.faults.get(kind, 0) + count
            client.close()
        store.close()
    report.batches = run.batches
    report.ops_issued = run.ops
    report.outcomes = run.outcomes
    report.crashes = run.outcomes.get("crash", 0)
    report.violations.extend(run.violations)
    if run.hang is not None:
        report.hangs = 1
        report.violations.append(run.hang)
    report.elapsed = time.monotonic() - started
    return report


#: The default sweep: one profile per fault family plus a combined
#: storm and a kill-shard degradation drill.
SWEEP_PROFILES: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("clean", {}),
    ("drops", {"drop_rate": 0.15, "drop_after_rate": 0.1}),
    ("delays", {"delay_rate": 0.2, "fault_delay": 0.02}),
    ("duplicates", {"duplicate_rate": 0.2}),
    ("reorders", {"reorder_rate": 0.2}),
    ("truncates", {"truncate_rate": 0.15}),
    (
        "storm",
        {
            "drop_rate": 0.08,
            "drop_after_rate": 0.08,
            "delay_rate": 0.08,
            "duplicate_rate": 0.08,
            "reorder_rate": 0.08,
            "truncate_rate": 0.08,
        },
    ),
    (
        "kill-shard",
        {
            "drop_rate": 0.05,
            "drop_after_rate": 0.05,
            "kill_at": 4,
            "kill_shard_id": 1,
        },
    ),
)


def run_sweep(
    seed: int = 0,
    total_ops: int = 120,
    threads: int = 3,
    profiles: Optional[Tuple[Tuple[str, Dict[str, Any]], ...]] = None,
) -> List[Tuple[str, ChaosReport]]:
    """Run every profile in the sweep; returns ``(name, report)`` pairs."""
    reports: List[Tuple[str, ChaosReport]] = []
    for name, overrides in profiles if profiles is not None else SWEEP_PROFILES:
        config = ChaosConfig(
            seed=seed, total_ops=total_ops, threads=threads, **overrides
        )
        reports.append((name, run_chaos(config)))
    return reports
