"""Motion extrapolation of ROIs (the paper's Sec. 3.2).

Given the macroblock motion field the ISP produced for the current frame and
the ROI(s) from the previous frame, the extrapolator:

1. computes the average motion vector of the pixels bounded by each ROI
   (Eq. 1),
2. derives a confidence for that average from the SAD values of the
   underlying macroblocks (Eq. 2),
3. filters the average against the previous frame's motion using the
   confidence-driven recursive filter (Eq. 3), and
4. optionally splits the ROI into sub-ROIs that move independently to handle
   non-rigid deformation, merging them back with a minimal bounding box.

The result is the new ROI: ``R_F = R_{F-1} + MV_F``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..motion.motion_field import MotionField
from .geometry import BoundingBox, MotionVector, ZERO_MOTION
from .types import Detection


@dataclass(frozen=True)
class ExtrapolationConfig:
    """Tuning knobs of the extrapolation algorithm."""

    #: Confidence threshold of the piece-wise beta function (Sec. 3.2):
    #: beta = alpha when alpha > threshold, otherwise beta = 0.5.
    confidence_threshold: float = 0.9
    #: Beta used when the confidence is below the threshold.
    low_confidence_beta: float = 0.5
    #: Sub-ROI grid used for deformation handling; (1, 1) disables it.
    sub_roi_grid: Tuple[int, int] = (2, 2)
    #: Disable the confidence filter entirely (ablation: trust Eq. 1 alone).
    use_confidence_filter: bool = True
    #: Clip extrapolated ROIs to the frame (keeps boxes valid at the edges).
    clip_to_frame: bool = True

    def __post_init__(self) -> None:
        rows, cols = self.sub_roi_grid
        if rows <= 0 or cols <= 0:
            raise ValueError("sub_roi_grid entries must be positive")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must be in [0, 1]")
        if not 0.0 <= self.low_confidence_beta <= 1.0:
            raise ValueError("low_confidence_beta must be in [0, 1]")


@dataclass
class RoiMotionState:
    """Per-tracked-ROI recursive filter state (MV_{F-1} in Eq. 3)."""

    filtered_motion: MotionVector = ZERO_MOTION
    last_confidence: float = 1.0


@dataclass(frozen=True)
class ExtrapolationResult:
    """Output of extrapolating one ROI by one frame."""

    box: BoundingBox
    motion: MotionVector
    confidence: float


class MotionExtrapolator:
    """Implements Eqs. 1-3 plus sub-ROI deformation handling."""

    def __init__(
        self,
        config: ExtrapolationConfig | None = None,
        frame_width: Optional[int] = None,
        frame_height: Optional[int] = None,
    ) -> None:
        self.config = config or ExtrapolationConfig()
        self.frame_width = frame_width
        self.frame_height = frame_height
        #: Total fixed-point operations performed so far (compute accounting).
        self.total_operations = 0.0

    # ------------------------------------------------------------------
    # Single-ROI extrapolation
    # ------------------------------------------------------------------
    def extrapolate_roi(
        self,
        roi: BoundingBox,
        motion_field: MotionField,
        state: Optional[RoiMotionState] = None,
    ) -> ExtrapolationResult:
        """Extrapolate one ROI forward by one frame.

        ``state`` carries the previous frame's filtered motion; pass the same
        object across frames to get the recursive behaviour of Eq. 3.  When
        ``state`` is ``None`` a zero-motion prior is used.
        """
        state = state or RoiMotionState()
        rows, cols = self.config.sub_roi_grid
        sub_rois = roi.split(rows, cols) if (rows, cols) != (1, 1) else [roi]

        moved_sub_rois: List[BoundingBox] = []
        motions: List[MotionVector] = []
        confidences: List[float] = []
        for sub in sub_rois:
            average, confidence = motion_field.roi_statistics(sub)
            motion = self._apply_confidence_filter(average, confidence, state)
            moved_sub_rois.append(sub.shift(motion))
            motions.append(motion)
            confidences.append(confidence)

        merged = BoundingBox.union_of(moved_sub_rois)
        if self.config.clip_to_frame and self.frame_width and self.frame_height:
            clipped = merged.clip(self.frame_width, self.frame_height)
            if not clipped.is_empty():
                merged = clipped

        mean_motion = MotionVector(
            sum(m.u for m in motions) / len(motions),
            sum(m.v for m in motions) / len(motions),
        )
        mean_confidence = sum(confidences) / len(confidences)

        state.filtered_motion = mean_motion
        state.last_confidence = mean_confidence
        self.total_operations += self.operations_per_roi(roi)

        return ExtrapolationResult(box=merged, motion=mean_motion, confidence=mean_confidence)

    def _apply_confidence_filter(
        self, average: MotionVector, confidence: float, state: RoiMotionState
    ) -> MotionVector:
        """The Eq. 3 recursive filter on an already-averaged motion."""
        if not self.config.use_confidence_filter:
            return average
        if confidence > self.config.confidence_threshold:
            beta = confidence
        else:
            beta = self.config.low_confidence_beta
        return average.blend(state.filtered_motion, beta)  # Eq. 3

    # ------------------------------------------------------------------
    # Multi-ROI extrapolation (detection scenario)
    # ------------------------------------------------------------------
    @staticmethod
    def state_key(detection: Detection, index: int) -> int:
        """Filter-state key for a detection.

        Identified detections key by object id; anonymous ones key by their
        (negative) position in the detection list, which is stable between
        two I-frames because extrapolation preserves list order.
        """
        if detection.object_id is not None:
            return detection.object_id
        return -(index + 1)

    def extrapolate_detections(
        self,
        detections: Sequence[Detection],
        motion_field: MotionField,
        states: Dict[int, RoiMotionState],
    ) -> List[Detection]:
        """Extrapolate every detection of the previous frame.

        ``states`` maps a detection's :meth:`state_key` to its filter state
        and is updated in place, so passing the same dictionary every frame
        keeps the recursion of Eq. 3 going until the next I-frame replaces
        the detections.  Keys with no matching detection in this call are
        dropped — a leftover state from a larger earlier detection set must
        not seed the filter of a different object.
        """
        keys = [self.state_key(detection, index) for index, detection in enumerate(detections)]
        live = set(keys)
        for stale in [key for key in states if key not in live]:
            del states[stale]
        extrapolated: List[Detection] = []
        for key, detection in zip(keys, detections):
            state = states.setdefault(key, RoiMotionState())
            result = self.extrapolate_roi(detection.box, motion_field, state)
            extrapolated.append(detection.as_extrapolated(result.box))
        return extrapolated

    # ------------------------------------------------------------------
    # Compute accounting (Sec. 3.2, "Computation Characteristics")
    # ------------------------------------------------------------------
    def operations_per_roi(self, roi: BoundingBox) -> float:
        """Fixed-point operations to extrapolate one ROI.

        Eq. 1 averages the motion of every pixel bounded by the ROI (each
        pixel inherits its macroblock's MV), which costs two accumulations
        per pixel, plus a small per-sub-ROI overhead for the confidence
        filter and the box update.  For the paper's typical 100x50 ROI this
        lands at the quoted ~10 K operations per frame (Sec. 3.2).
        """
        rows, cols = self.config.sub_roi_grid
        covered_pixels = max(1.0, roi.area)
        ops_per_pixel = 2.0  # accumulate u and v for the Eq. 1 average
        overhead_per_sub_roi = 40.0  # Eq. 2/3 arithmetic and the box update
        return covered_pixels * ops_per_pixel + rows * cols * overhead_per_sub_roi
