"""Inference backends the Euphrates pipeline can drive on I-frames.

The motion controller treats the inference engine as a slave IP behind a
register interface (Sec. 4.3), so the pipeline is equally happy driving a
simulated CNN (the calibrated YOLOv2 / Tiny YOLO / MDNet stand-ins) or a real
pixel-domain algorithm (the NCC template tracker).  Each backend carries the
:class:`~repro.nn.models.NetworkSpec` describing its compute cost so the SoC
model can price its I-frames.

A backend sees one stream at a time: :meth:`InferenceBackend.start` opens
it, and every I-frame arrives with its pixels and its ground truth.  The
simulated CNNs model accuracy relative to that truth; the tracking backends
follow the first annotated object of their first I-frame.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

import numpy as np

from ..nn.classical import NCCTemplateTracker, NCCTrackerConfig
from ..nn.detector import SimulatedCNNDetector
from ..nn.models import NetworkSpec, build_mdnet, build_tiny_yolo, build_yolo_v2
from ..nn.profiles import (
    AccuracyProfile,
    MDNET_PROFILE,
    TINY_YOLO_PROFILE,
    YOLO_V2_PROFILE,
)
from ..nn.tracker import SimulatedCNNTracker
from .geometry import BoundingBox
from .types import Detection


class InferenceBackend(ABC):
    """A vision algorithm the pipeline invokes on I-frames."""

    #: Compute model of the network this backend represents.
    network: NetworkSpec

    @property
    def name(self) -> str:
        return self.network.name

    @abstractmethod
    def start(self, stream: str, width: int, height: int) -> None:
        """Reset per-stream state (called when a session opens).

        ``stream`` names the stream; the simulated networks seed their
        noise with it.
        """

    @abstractmethod
    def infer(
        self, frame_index: int, luma: np.ndarray, truth: Sequence[Detection]
    ) -> List[Detection]:
        """Produce the vision result for one I-frame and its ground truth."""


def _first_target(
    truth: Sequence[Detection], stream: str, frame_index: int
) -> Detection:
    """The object a tracker follows: the first annotated one it is shown."""
    for detection in truth:
        if detection.object_id is not None:
            return detection
    raise ValueError(
        f"stream '{stream}' has no annotated objects in the truth of frame "
        f"{frame_index} to start tracking"
    )


def _box_of(truth: Sequence[Detection], object_id: int) -> Optional[BoundingBox]:
    for detection in truth:
        if detection.object_id == object_id:
            return detection.box
    return None


class CNNDetectionBackend(InferenceBackend):
    """Multi-object detection with a simulated CNN (YOLOv2 / Tiny YOLO)."""

    def __init__(
        self,
        network: Optional[NetworkSpec] = None,
        profile: Optional[AccuracyProfile] = None,
        seed: int = 0,
    ) -> None:
        self.network = network or build_yolo_v2()
        self.profile = profile or YOLO_V2_PROFILE
        self.seed = seed
        self._detector: Optional[SimulatedCNNDetector] = None
        self._stream = ""

    def start(self, stream: str, width: int, height: int) -> None:
        self._stream = stream
        self._detector = SimulatedCNNDetector(
            network=self.network,
            profile=self.profile,
            seed=self.seed,
            frame_width=width,
            frame_height=height,
        )

    def infer(
        self, frame_index: int, luma: np.ndarray, truth: Sequence[Detection]
    ) -> List[Detection]:
        if self._detector is None:
            raise RuntimeError("start must be called before infer")
        return self._detector.detect(frame_index, truth, sequence_name=self._stream)


class CNNTrackingBackend(InferenceBackend):
    """Single-target tracking with a simulated CNN tracker (MDNet)."""

    def __init__(
        self,
        network: Optional[NetworkSpec] = None,
        profile: Optional[AccuracyProfile] = None,
        seed: int = 0,
    ) -> None:
        self.network = network or build_mdnet()
        self.profile = profile or MDNET_PROFILE
        self.seed = seed
        self._tracker: Optional[SimulatedCNNTracker] = None
        self._stream = ""
        self._target_id: Optional[int] = None

    def start(self, stream: str, width: int, height: int) -> None:
        self._stream = stream
        self._tracker = SimulatedCNNTracker(
            network=self.network, profile=self.profile, seed=self.seed
        )
        self._target_id = None

    def infer(
        self, frame_index: int, luma: np.ndarray, truth: Sequence[Detection]
    ) -> List[Detection]:
        if self._tracker is None:
            raise RuntimeError("start must be called before infer")
        if self._target_id is None:
            target = _first_target(truth, self._stream, frame_index)
            self._target_id = target.object_id
            self._tracker.initialize(
                target.box, label=target.label, object_id=target.object_id
            )
        box = _box_of(truth, self._target_id)
        return [self._tracker.track(frame_index, box, sequence_name=self._stream)]


class NCCTrackingBackend(InferenceBackend):
    """Single-target tracking on real pixels (classical NCC template search)."""

    def __init__(
        self,
        config: Optional[NCCTrackerConfig] = None,
        network: Optional[NetworkSpec] = None,
    ) -> None:
        # The classical tracker's compute is negligible; the associated
        # network spec is only used when someone prices it on the NNX, so
        # default to the smallest network we model.
        self.network = network or build_tiny_yolo()
        self._config = config
        self._tracker: Optional[NCCTemplateTracker] = None
        self._stream = ""
        self._target_id: Optional[int] = None

    @property
    def name(self) -> str:
        return "NCC"

    def start(self, stream: str, width: int, height: int) -> None:
        self._stream = stream
        self._tracker = NCCTemplateTracker(self._config)
        self._target_id = None

    def infer(
        self, frame_index: int, luma: np.ndarray, truth: Sequence[Detection]
    ) -> List[Detection]:
        if self._tracker is None:
            raise RuntimeError("start must be called before infer")
        luma = np.asarray(luma, dtype=np.float64)
        if self._target_id is None:
            target = _first_target(truth, self._stream, frame_index)
            self._target_id = target.object_id
            self._tracker.initialize(luma, target.box)
        detection = self._tracker.track(luma)
        return [
            Detection(
                box=detection.box,
                label=detection.label,
                score=detection.score,
                object_id=self._target_id,
            )
        ]


def detection_backend_for(network_name: str, seed: int = 0) -> CNNDetectionBackend:
    """Factory for the detection backends used throughout the benchmarks."""
    key = network_name.lower().replace("_", "").replace("-", "").replace(" ", "")
    if key == "yolov2":
        return CNNDetectionBackend(build_yolo_v2(), YOLO_V2_PROFILE, seed=seed)
    if key == "tinyyolo":
        return CNNDetectionBackend(build_tiny_yolo(), TINY_YOLO_PROFILE, seed=seed)
    raise KeyError(f"unknown detection network '{network_name}'")


def tracking_backend_for(network_name: str = "mdnet", seed: int = 0) -> InferenceBackend:
    """Factory for the tracking backends used throughout the benchmarks."""
    key = network_name.lower().replace("_", "").replace("-", "").replace(" ", "")
    if key == "mdnet":
        return CNNTrackingBackend(build_mdnet(), MDNET_PROFILE, seed=seed)
    if key == "ncc":
        return NCCTrackingBackend()
    raise KeyError(f"unknown tracking backend '{network_name}'")
