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

Steps 1 and 2 depend only on a (sub-)ROI and the field, so
:meth:`MotionExtrapolator.extrapolate_detections` measures every sub-ROI
of every detection at once: in one call into the compiled
``euph_roi_stats`` under the ``c`` kernel backend, or through
:meth:`~repro.motion.motion_field.MotionField.roi_statistics` per sub-ROI
under ``numpy``, with bit-identical results.  Steps 3 and 4 run in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..motion import ckernels
from ..motion.kernels import DEFAULT_KERNEL_BACKEND, resolve_kernel_backend
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
    """Implements Eqs. 1-3 plus sub-ROI deformation handling.

    ``kernel_backend`` selects who computes Eqs. 1 and 2: ``c`` makes one
    call per frame into :func:`repro.motion.ckernels.roi_stats` for every
    sub-ROI of every ROI, ``numpy`` calls
    :meth:`~repro.motion.motion_field.MotionField.roi_statistics` once per
    sub-ROI.  Both give bit-identical results; the Eq. 3 filter, the shift,
    the union and the clip run in Python either way.
    """

    def __init__(
        self,
        config: ExtrapolationConfig | None = None,
        frame_width: Optional[int] = None,
        frame_height: Optional[int] = None,
        kernel_backend: str = DEFAULT_KERNEL_BACKEND,
    ) -> None:
        self.config = config or ExtrapolationConfig()
        self.frame_width = frame_width
        self.frame_height = frame_height
        #: Total fixed-point operations performed so far (compute accounting).
        self.total_operations = 0.0
        # Resolved here, so building the extrapolator pays the one-time compile.
        self._compiled = resolve_kernel_backend(kernel_backend) == "c"

    @property
    def kernel_backend(self) -> str:
        """The backend computing Eqs. 1 and 2 (``c`` only where the C
        kernels were built)."""
        return "c" if self._compiled else "numpy"

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
        return self._extrapolate([roi], motion_field, [state or RoiMotionState()])[0]

    def _extrapolate(
        self,
        rois: Sequence[BoundingBox],
        motion_field: MotionField,
        states: Sequence[RoiMotionState],
    ) -> List[ExtrapolationResult]:
        """Extrapolate each ROI with its state, in order.

        Eqs. 1 and 2 depend on the ROI and the field only, so every sub-ROI
        of every ROI is measured first; the filter then runs ROI by ROI, so
        a state two ROIs share sees the first one's update, as it would one
        ROI at a time.  The arithmetic is that of
        :meth:`MotionVector.blend` (Eq. 3), :meth:`BoundingBox.shift` and
        :meth:`BoundingBox.union_of`, on plain floats.
        """
        config = self.config
        rows, cols = config.sub_roi_grid
        per_roi = rows * cols
        sub_rois = (
            [sub for roi in rois for sub in roi.split(rows, cols)]
            if per_roi > 1
            else list(rois)
        )
        statistics = self._roi_statistics(sub_rois, motion_field)
        clip = config.clip_to_frame and self.frame_width and self.frame_height

        results: List[ExtrapolationResult] = []
        for index, (roi, state) in enumerate(zip(rois, states)):
            first = index * per_roi
            prior = state.filtered_motion
            us, vs, confidences, lefts, tops, rights, bottoms = [], [], [], [], [], [], []
            for sub, (u, v, confidence) in zip(
                sub_rois[first : first + per_roi], statistics[first : first + per_roi]
            ):
                if config.use_confidence_filter:
                    if confidence > config.confidence_threshold:
                        beta = confidence
                    else:
                        beta = config.low_confidence_beta
                    u = beta * u + (1.0 - beta) * prior.u
                    v = beta * v + (1.0 - beta) * prior.v
                left, top = sub.x + u, sub.y + v
                us.append(u)
                vs.append(v)
                confidences.append(confidence)
                lefts.append(left)
                tops.append(top)
                rights.append(left + sub.width)
                bottoms.append(top + sub.height)

            merged = BoundingBox.from_corners(min(lefts), min(tops), max(rights), max(bottoms))
            if clip:
                clipped = merged.clip(self.frame_width, self.frame_height)
                if not clipped.is_empty():
                    merged = clipped

            mean_motion = MotionVector(sum(us) / per_roi, sum(vs) / per_roi)
            mean_confidence = sum(confidences) / per_roi

            state.filtered_motion = mean_motion
            state.last_confidence = mean_confidence
            self.total_operations += self.operations_per_roi(roi)
            results.append(
                ExtrapolationResult(box=merged, motion=mean_motion, confidence=mean_confidence)
            )
        return results

    def _roi_statistics(
        self, rois: Sequence[BoundingBox], motion_field: MotionField
    ) -> List[Tuple[float, float, float]]:
        """Eq. 1 average motion ``(u, v)`` and Eq. 2 confidence of every ROI."""
        if self._compiled:
            grid = motion_field.grid
            statistics = ckernels.roi_stats(
                motion_field.vectors,
                motion_field.sad,
                grid.frame_height,
                grid.frame_width,
                grid.block_size,
                [(roi.x, roi.y, roi.width, roi.height) for roi in rois],
            )
            if statistics is not None:
                return statistics
        # Also the path of an ROI with a coordinate that is not finite,
        # so it raises where it always did.
        return [
            (average.u, average.v, confidence)
            for average, confidence in map(motion_field.roi_statistics, rois)
        ]

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
        results = self._extrapolate(
            [detection.box for detection in detections],
            motion_field,
            [states.setdefault(key, RoiMotionState()) for key in keys],
        )
        return [
            detection.as_extrapolated(result.box)
            for detection, result in zip(detections, results)
        ]

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
