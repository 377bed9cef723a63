"""Core algorithms: the calibrator, CONTROL 1, CONTROL 2 and the facade."""

from .calibrator import CalibratorTree
from .control1 import Control1Engine
from .control2 import Control2Engine
from .dense_file import DenseSequentialFile, build_engine
from .errors import (
    CircuitOpenError,
    ClusterError,
    ConfigurationError,
    DuplicateKeyError,
    FileFullError,
    InvariantViolationError,
    LockProtocolError,
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
)
from .macroblock import (
    MacroBlockControl2Engine,
    macro_block_factor,
    macro_params,
)
from .params import DensityParams, ceil_log2, recommended_j
from .trace import Moment, MomentRecorder, OperationLog

__all__ = [
    "CalibratorTree",
    "CircuitOpenError",
    "ClusterError",
    "ConfigurationError",
    "Control1Engine",
    "Control2Engine",
    "DenseSequentialFile",
    "DensityParams",
    "DuplicateKeyError",
    "FileFullError",
    "InvariantViolationError",
    "LockProtocolError",
    "MacroBlockControl2Engine",
    "Moment",
    "MomentRecorder",
    "OperationLog",
    "OperationTimeout",
    "OverloadError",
    "ReadOnlyError",
    "RecordNotFoundError",
    "ReplicationError",
    "ReproError",
    "ShardUnavailableError",
    "StaleReplicaError",
    "TransientIOError",
    "TransientNetworkError",
    "UsageError",
    "WireProtocolError",
    "build_engine",
    "ceil_log2",
    "macro_block_factor",
    "macro_params",
    "recommended_j",
]
