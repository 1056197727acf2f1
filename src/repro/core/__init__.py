"""Euphrates core: motion-extrapolated continuous vision.

This package implements the paper's primary contribution — the algorithm
that replaces most per-frame CNN inferences with motion-vector extrapolation
(Sec. 3) — plus the shared geometry and result types used throughout the
library.
"""

from .geometry import BoundingBox, MotionVector, Point, ZERO_MOTION, mean_iou
from .types import (
    DatasetRunResult,
    Detection,
    FrameKind,
    FrameResult,
    FrameTelemetry,
    SequenceResult,
)
from .extrapolation import (
    ExtrapolationConfig,
    ExtrapolationResult,
    MotionExtrapolator,
    RoiMotionState,
)
from .window import (
    AdaptiveWindowController,
    ConstantWindowController,
    WindowController,
)
from .backends import (
    CNNDetectionBackend,
    CNNTrackingBackend,
    InferenceBackend,
    NCCTrackingBackend,
    detection_backend_for,
    tracking_backend_for,
)
from .executor import (
    TRANSPORTS,
    FrameRecord,
    FrameRef,
    ShardedExecutor,
    ShardError,
    ShardSchedule,
    StreamFailedError,
    StreamShard,
    StreamStats,
)
from .ingest import (
    AdmissionError,
    IngestConfig,
    IngestCore,
    ProtocolError,
    ReorderWindow,
)
from .pipeline import EuphratesConfig, EuphratesPipeline
from .server import EuphratesServer, ServeClient, ServerThread
from .session import EuphratesSession, SessionClosedError
from .spec import PipelineSpec
from .streaming import MultiplexerReport, StreamMultiplexer

__all__ = [
    "BoundingBox",
    "MotionVector",
    "Point",
    "ZERO_MOTION",
    "mean_iou",
    "DatasetRunResult",
    "Detection",
    "FrameKind",
    "FrameResult",
    "FrameTelemetry",
    "SequenceResult",
    "ExtrapolationConfig",
    "ExtrapolationResult",
    "MotionExtrapolator",
    "RoiMotionState",
    "WindowController",
    "ConstantWindowController",
    "AdaptiveWindowController",
    "InferenceBackend",
    "CNNDetectionBackend",
    "CNNTrackingBackend",
    "NCCTrackingBackend",
    "detection_backend_for",
    "tracking_backend_for",
    "EuphratesConfig",
    "EuphratesPipeline",
    "EuphratesSession",
    "SessionClosedError",
    "PipelineSpec",
    "StreamMultiplexer",
    "StreamStats",
    "MultiplexerReport",
    "TRANSPORTS",
    "FrameRecord",
    "FrameRef",
    "ShardedExecutor",
    "ShardError",
    "ShardSchedule",
    "StreamFailedError",
    "StreamShard",
    "AdmissionError",
    "IngestConfig",
    "IngestCore",
    "ProtocolError",
    "ReorderWindow",
    "EuphratesServer",
    "ServeClient",
    "ServerThread",
]
