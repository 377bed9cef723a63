"""WAL-shipping replication: shipper, replica, failover, soak runner.

The journal that gives :class:`~repro.persistent.JournaledDenseFile`
crash atomicity is also, record for record, a replication log.  This
package ships it: a :class:`JournalShipper` tails committed
:class:`~repro.storage.wal.TransactionRecord` frames onto a transport
(:class:`QueueTransport` in-process, :class:`DirectoryTransport` across
processes), a :class:`Replica` replays them crash-atomically onto its
own store and serves prefix-consistent reads under deadline budgets,
and :class:`Failover` orchestrates promote-on-crash with a built-in
proof obligation: the promoted state must equal the primary's committed
state at the promoted LSN (checked against :class:`StateRecorder`
digests).  :func:`run_soak` wires all of it into a long-running SLO
soak with seeded crashes, torn writes and bit flips, and
:func:`run_replica_stress` races writer threads on the primary against
snapshot readers on the replica.

Quickstart::

    primary = JournaledDenseFile.create("a.dsf", num_pages=64, d=8, D=40)
    transport = QueueTransport()
    replica = bootstrap_replica(primary, "b.dsf")
    pair = Failover(primary, replica, transport)
    primary.insert(42, "answer")
    pair.sync()                      # ship + apply; lag back to 0
    replica.search(42)               # prefix-consistent replica read
    ...                              # primary crashes
    result = pair.promote_after_crash()
    assert result.verified           # a committed prefix, provably
    new_primary = result.promoted    # writable, fully recovered
"""

from .failover import (
    DrainResult,
    Failover,
    PromotionResult,
    StateRecorder,
    file_digest,
    records_digest,
)
from .replica import Replica, bootstrap_replica
from .shipper import JournalShipper
from .soak import (
    ReplicaStressConfig,
    ReplicaStressReport,
    SoakConfig,
    SoakReport,
    run_replica_stress,
    run_soak,
)
from .transport import DirectoryTransport, QueueTransport

__all__ = [
    "DirectoryTransport",
    "DrainResult",
    "Failover",
    "JournalShipper",
    "PromotionResult",
    "QueueTransport",
    "Replica",
    "ReplicaStressConfig",
    "ReplicaStressReport",
    "SoakConfig",
    "SoakReport",
    "StateRecorder",
    "bootstrap_replica",
    "file_digest",
    "records_digest",
    "run_replica_stress",
    "run_soak",
]
