"""Common result types shared across the detection / tracking pipelines."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import List, Optional, Sequence

from .geometry import BoundingBox


class FrameKind(Enum):
    """How the vision result for a frame was produced.

    ``INFERENCE`` corresponds to the paper's I-frames (full CNN inference);
    ``EXTRAPOLATION`` to E-frames (motion-vector extrapolation).
    """

    INFERENCE = "inference"
    EXTRAPOLATION = "extrapolation"


@dataclass(frozen=True, slots=True)
class Detection:
    """A single detected (or extrapolated) object instance."""

    box: BoundingBox
    label: str = "object"
    score: float = 1.0
    object_id: Optional[int] = None
    extrapolated: bool = False

    def with_box(self, box: BoundingBox) -> "Detection":
        """Return a copy of this detection with a different bounding box."""
        return replace(self, box=box)

    def as_extrapolated(self, box: BoundingBox) -> "Detection":
        """Return an extrapolated copy of this detection at a new location."""
        return replace(self, box=box, extrapolated=True)


@dataclass(frozen=True, slots=True)
class FrameTelemetry:
    """What actually happened, hardware-wise, while processing one frame.

    Emitted by :meth:`repro.core.session.EuphratesSession.submit` as an
    observe-only event stream: recording telemetry never changes the vision
    output.  The record is deliberately hardware-agnostic — it states what
    the pipeline *did* (frame kind, pixels through the ISP, ROI count,
    motion-search work) and :class:`repro.soc.frame_cost.CostMeter` prices
    it against a concrete SoC model.
    """

    frame_index: int
    kind: FrameKind
    #: Luma pixels that went through the ISP for this frame.  ``None`` means
    #: "unknown"; cost models then price the frame at their nominal capture
    #: setting.
    pixels: Optional[int] = None
    #: ROIs the backend produced this frame (the extrapolated set on
    #: E-frames — what the motion controller actually has to move).
    rois: int = 1
    #: Motion-estimation (SAD search) operations the ISP actually spent.
    motion_ops: float = 0.0
    #: Operations the ROI-extrapolation algorithm actually spent (0 on
    #: I-frames).
    extrapolation_ops: float = 0.0
    #: Name of the session/stream that processed the frame.
    stream: str = ""
    #: Comma-separated degradation tags attached by the serving layer when
    #: the frame was handled under duress (e.g. ``"dropped-frame-gap"``,
    #: ``"deferred-inference"``, ``"queue-degrade"``).  Empty on the normal
    #: path; observe-only, like every other telemetry field.
    degradation: str = ""
    #: Per-stage wall-clock timings (seconds) stamped by the session.
    #: Observe-only like everything else here: the energy model prices the
    #: ``*_ops``/``pixels`` fields above, never these clocks.  ``isp_s``
    #: covers the whole ISP call (of which ``motion_search_s`` and
    #: ``denoise_blend_s`` are the two metered sub-stages); ``total_s`` is
    #: the whole per-frame processing body.  All default 0.0 so hand-built
    #: test records stay valid.
    isp_s: float = 0.0
    motion_search_s: float = 0.0
    denoise_blend_s: float = 0.0
    extrapolation_s: float = 0.0
    inference_s: float = 0.0
    total_s: float = 0.0


@dataclass(slots=True)
class FrameResult:
    """Vision output for one frame of a continuous video stream."""

    frame_index: int
    kind: FrameKind
    detections: List[Detection] = field(default_factory=list)
    #: Wall-clock latency of producing this result, in seconds (model time).
    latency_s: float = 0.0
    #: Extrapolation-window size in effect when this frame was processed.
    window_size: int = 0

    @property
    def is_inference(self) -> bool:
        return self.kind is FrameKind.INFERENCE

    @property
    def is_extrapolated(self) -> bool:
        return self.kind is FrameKind.EXTRAPOLATION

    def boxes(self) -> List[BoundingBox]:
        """Bounding boxes of every detection in this frame."""
        return [d.box for d in self.detections]

    def best_for(self, truth: BoundingBox) -> Optional[Detection]:
        """Return the detection with the highest IoU against ``truth``."""
        if not self.detections:
            return None
        return max(self.detections, key=lambda d: d.box.iou(truth))


@dataclass
class SequenceResult:
    """Vision output for an entire video sequence."""

    sequence_name: str
    frames: List[FrameResult] = field(default_factory=list)
    #: Per-frame hardware telemetry recorded while producing ``frames``
    #: (empty when the producer drained it separately or predates the
    #: telemetry API).  Observe-only: never feeds back into the results.
    telemetry: List[FrameTelemetry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)

    @property
    def inference_count(self) -> int:
        """Number of frames that required a CNN inference."""
        return sum(1 for f in self.frames if f.is_inference)

    @property
    def extrapolation_count(self) -> int:
        """Number of frames produced by motion extrapolation."""
        return sum(1 for f in self.frames if f.is_extrapolated)

    @property
    def inference_rate(self) -> float:
        """Fraction of frames on which a CNN inference was triggered."""
        if not self.frames:
            return 0.0
        return self.inference_count / len(self.frames)


@dataclass
class DatasetRunResult:
    """Results of running one pipeline configuration over a whole dataset.

    Bundles the per-sequence results with the run-level counters the
    experiment harness needs (extrapolation ops, inference rate), so a single
    object can be cached and shared between figures that sweep the same
    pipeline configuration.
    """

    sequences: List[SequenceResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self):
        return iter(self.sequences)

    @property
    def total_frames(self) -> int:
        return sum(len(result) for result in self.sequences)

    @property
    def extrapolation_ops(self) -> float:
        """Extrapolation operations spent by this run, from frame telemetry."""
        return sum(
            event.extrapolation_ops
            for result in self.sequences
            for event in result.telemetry
        )

    @property
    def inference_count(self) -> int:
        return sum(result.inference_count for result in self.sequences)

    @property
    def inference_rate(self) -> float:
        """Fraction of all frames that triggered a CNN inference."""
        total = self.total_frames
        if total == 0:
            return 0.0
        return self.inference_count / total


def merge_sequence_results(results: Sequence[SequenceResult]) -> List[FrameResult]:
    """Concatenate the per-frame results of several sequences."""
    frames: List[FrameResult] = []
    for result in results:
        frames.extend(result.frames)
    return frames
