"""repro — reproduction of Willard (SIGMOD 1986).

Good worst-case algorithms for inserting and deleting records in dense
sequential files: the calibrator tree, CONTROL 1 (amortized) and
CONTROL 2 (worst-case ``O(log^2 M / (D - d))`` page accesses per
update), the macro-block extension, plus the baselines and simulated
disk substrate used to reproduce the paper's claims.

Quickstart
----------
>>> from repro import DenseSequentialFile
>>> f = DenseSequentialFile(num_pages=64, d=8, D=40)
>>> for key in range(100):
...     f.insert(key)
>>> len(list(f.range(10, 19)))
10
"""

from .concurrent import (
    AdmissionGate,
    Deadline,
    FairRWLock,
    RetryPolicy,
    ThreadSafeDenseFile,
)
from .core import (
    AdaptiveControl2Engine,
    CalibratorTree,
    CircuitOpenError,
    ClusterError,
    ConfigurationError,
    Control1Engine,
    Control2Engine,
    DenseSequentialFile,
    DensityParams,
    DuplicateKeyError,
    FileFullError,
    InvariantViolationError,
    LockProtocolError,
    MacroBlockControl2Engine,
    Moment,
    MomentRecorder,
    OperationLog,
    OperationTimeout,
    OverloadError,
    ReadOnlyError,
    RecordNotFoundError,
    ReplicationError,
    ReproError,
    ShardUnavailableError,
    StaleReplicaError,
    TransientIOError,
    TransientNetworkError,
    UsageError,
    WireProtocolError,
    build_engine,
    ceil_log2,
    macro_block_factor,
    macro_params,
    recommended_j,
)
from .persistent import JournaledDenseFile, PersistentDenseFile
from .records import Record, ensure_record
from .replication import (
    DirectoryTransport,
    Failover,
    JournalShipper,
    PromotionResult,
    QueueTransport,
    Replica,
    SoakConfig,
    SoakReport,
    StateRecorder,
    bootstrap_replica,
    run_soak,
)
from .storage import (
    AccessStats,
    AccessTrace,
    BufferedStore,
    CostModel,
    DISK_ARM_MODEL,
    DiskStore,
    FaultPlan,
    FaultyStore,
    MemoryStore,
    PAGE_ACCESS_MODEL,
    PageFile,
    PageStore,
    RetryingStore,
    ScrubReport,
    SimulatedDisk,
    fault_tolerant_stack,
    make_store,
    scrub,
)

# The cluster package sits on top of concurrent + storage; importing it
# last keeps the storage.faults -> concurrent.retry submodule import
# free of a partially-initialized-package cycle.
from .cluster import (
    ChaosChannel,
    CircuitBreaker,
    ClusterClient,
    ClusterServer,
    NetFaultPlan,
    ScanResult,
    ShardMap,
    ShardedDenseFile,
)

__version__ = "1.0.0"

__all__ = [
    "AccessStats",
    "AdaptiveControl2Engine",
    "AccessTrace",
    "AdmissionGate",
    "BufferedStore",
    "CalibratorTree",
    "ChaosChannel",
    "CircuitBreaker",
    "CircuitOpenError",
    "ClusterClient",
    "ClusterError",
    "ClusterServer",
    "ConfigurationError",
    "Control1Engine",
    "Control2Engine",
    "CostModel",
    "DISK_ARM_MODEL",
    "Deadline",
    "DenseSequentialFile",
    "DensityParams",
    "DirectoryTransport",
    "DiskStore",
    "DuplicateKeyError",
    "Failover",
    "FairRWLock",
    "FaultPlan",
    "FaultyStore",
    "FileFullError",
    "InvariantViolationError",
    "JournalShipper",
    "LockProtocolError",
    "JournaledDenseFile",
    "MacroBlockControl2Engine",
    "MemoryStore",
    "Moment",
    "NetFaultPlan",
    "MomentRecorder",
    "OperationLog",
    "OperationTimeout",
    "OverloadError",
    "PAGE_ACCESS_MODEL",
    "PageFile",
    "PageStore",
    "PersistentDenseFile",
    "PromotionResult",
    "QueueTransport",
    "ReadOnlyError",
    "Record",
    "RecordNotFoundError",
    "ReplicationError",
    "ReproError",
    "Replica",
    "RetryPolicy",
    "RetryingStore",
    "ScanResult",
    "ShardMap",
    "ShardUnavailableError",
    "ShardedDenseFile",
    "StaleReplicaError",
    "ScrubReport",
    "SimulatedDisk",
    "SoakConfig",
    "SoakReport",
    "StateRecorder",
    "ThreadSafeDenseFile",
    "TransientIOError",
    "TransientNetworkError",
    "UsageError",
    "WireProtocolError",
    "bootstrap_replica",
    "build_engine",
    "ceil_log2",
    "ensure_record",
    "fault_tolerant_stack",
    "macro_block_factor",
    "make_store",
    "macro_params",
    "recommended_j",
    "run_soak",
    "scrub",
]
