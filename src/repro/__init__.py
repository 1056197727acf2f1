"""Euphrates: algorithm-SoC co-design for low-power mobile continuous vision.

A full Python reproduction of the ISCA 2018 paper by Zhu, Samajdar, Mattina
and Whatmough.  The library is organised as:

* :mod:`repro.core` -- the Euphrates algorithm (motion extrapolation,
  extrapolation-window control, the end-to-end pipeline) and shared types.
* :mod:`repro.video` -- synthetic continuous-video substrate with ground truth.
* :mod:`repro.motion` -- block-matching motion estimation (ES / TSS).
* :mod:`repro.isp` -- camera sensor and ISP pipeline (the MV producer).
* :mod:`repro.nn` -- CNN workload models (YOLOv2, Tiny YOLO, MDNet) and
  detector/tracker backends.
* :mod:`repro.soc` -- the mobile-SoC performance/energy model (NNX systolic
  accelerator, motion-controller IP, DRAM, CPU).
* :mod:`repro.eval` -- detection AP and tracking success-rate metrics.
* :mod:`repro.harness` -- experiment runners for every table and figure.

Quick start::

    from repro import PipelineSpec, tracking_backend_for
    from repro.video import build_otb_like_dataset
    from repro.eval import success_rate

    dataset = build_otb_like_dataset(num_sequences=4)
    pipeline = PipelineSpec(extrapolation_window=2).build(tracking_backend_for("mdnet"))
    results = pipeline.run_dataset(dataset)
    print(success_rate(results, dataset, iou_threshold=0.5))

Streaming (frame at a time, each with its ground truth; many concurrent
cameras)::

    session = pipeline.open_session(sequence.width, sequence.height, name=sequence.name)
    for index, frame in sequence.iter_frames():
        frame_result = session.submit(frame, truth=sequence.truth_detections(index))
    sequence_result = session.finish()
"""

from .core import (
    AdaptiveWindowController,
    BoundingBox,
    ConstantWindowController,
    Detection,
    EuphratesConfig,
    EuphratesPipeline,
    EuphratesSession,
    ExtrapolationConfig,
    FrameKind,
    FrameResult,
    FrameTelemetry,
    MotionExtrapolator,
    MotionVector,
    MultiplexerReport,
    PipelineSpec,
    SequenceResult,
    ShardedExecutor,
    StreamMultiplexer,
    StreamStats,
    detection_backend_for,
    tracking_backend_for,
)
from .soc import CostMeter, FrameCost, FrameSchedule, SoCConfig, VisionSoC

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "BoundingBox",
    "MotionVector",
    "Detection",
    "FrameKind",
    "FrameResult",
    "FrameTelemetry",
    "SequenceResult",
    "ExtrapolationConfig",
    "MotionExtrapolator",
    "ConstantWindowController",
    "AdaptiveWindowController",
    "EuphratesConfig",
    "EuphratesPipeline",
    "EuphratesSession",
    "PipelineSpec",
    "StreamMultiplexer",
    "StreamStats",
    "MultiplexerReport",
    "ShardedExecutor",
    "detection_backend_for",
    "tracking_backend_for",
    "VisionSoC",
    "SoCConfig",
    "FrameSchedule",
    "FrameCost",
    "CostMeter",
]
