"""Frame-at-a-time streaming sessions over the Euphrates pipeline.

Frames arrive one at a time from a live camera, and many cameras share one
SoC.  :class:`EuphratesSession` runs the per-frame body of the algorithm —
ISP, window-controller I/E decision, backend inference or motion
extrapolation, disagreement measurement, state pruning — behind an
incremental interface::

    session = pipeline.open_session(sequence.width, sequence.height, name=sequence.name)
    for index, frame in sequence.iter_frames():
        result = session.submit(frame, truth=sequence.truth_detections(index))
    sequence_result = session.finish()

Each frame comes with its ground truth, which the backend sees on
I-frames (the simulated CNNs perturb it).  ``EuphratesPipeline.run`` is
exactly this loop, so every path — ``run()``, ``run_dataset``, the
:class:`repro.core.streaming.StreamMultiplexer` and TCP serving — drives
the same session.

Every session owns its ISP, extrapolator, backend copy and window-controller
clone, so any number can run concurrently and each stream's adaptive window
learns only from its own frames.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from .extrapolation import MotionExtrapolator, RoiMotionState
from .types import Detection, FrameKind, FrameResult, FrameTelemetry, SequenceResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..isp.pipeline import ISPPipeline
    from .backends import InferenceBackend
    from .window import WindowController


class SessionClosedError(RuntimeError):
    """Raised when submitting to (or finishing) an already-finished session."""


#: Minimum IoU for pairing an inferred box with a predicted one in the
#: disagreement metric; non-overlapping boxes are no evidence of a pair.
DISAGREEMENT_IOU_FLOOR = 1e-9


def prune_states(
    states: Dict[int, RoiMotionState], detections: Sequence[Detection]
) -> None:
    """Drop filter states made stale by a fresh inference result.

    An I-frame replaces the tracked detection set.  Anonymous states
    (negative keys are positional) never survive the replacement, and
    identified states survive only while their object id is still
    detected; anything else would seed the recursive filter of a new
    object with another object's motion history.
    """
    live_ids = {d.object_id for d in detections if d.object_id is not None}
    for key in [k for k in states if k < 0 or k not in live_ids]:
        del states[key]


def measure_disagreement(
    inferred: Sequence[Detection],
    predicted: Sequence[Detection],
) -> float:
    """Mean ``1 - IoU`` between inference results and extrapolated ones.

    Pairs are matched by object id when available; the remaining boxes
    are matched one-to-one, best IoU first, and only while they overlap
    at all.  When there is nothing to compare the disagreement is 0 (no
    evidence that extrapolation was wrong).
    """
    if not inferred or not predicted:
        return 0.0

    by_id = {d.object_id: d for d in predicted if d.object_id is not None}
    disagreements: List[float] = []
    anonymous_inferred: List[Detection] = []
    for detection in inferred:
        if detection.object_id is not None and detection.object_id in by_id:
            counterpart = by_id[detection.object_id]
            disagreements.append(1.0 - detection.box.iou(counterpart.box))
        else:
            anonymous_inferred.append(detection)

    pool = [d for d in predicted if d.object_id is None]
    pairs = sorted(
        (
            (detection.box.iou(candidate.box), i, j)
            for i, detection in enumerate(anonymous_inferred)
            for j, candidate in enumerate(pool)
        ),
        key=lambda item: item[0],
        reverse=True,
    )
    used_inferred: set = set()
    used_predicted: set = set()
    for iou, i, j in pairs:
        if iou < DISAGREEMENT_IOU_FLOOR:
            break
        if i in used_inferred or j in used_predicted:
            continue
        used_inferred.add(i)
        used_predicted.add(j)
        disagreements.append(1.0 - iou)

    if not disagreements:
        return 0.0
    return float(np.mean(disagreements))


class EuphratesSession:
    """Incremental frame-at-a-time execution of the Euphrates algorithm.

    Do not construct directly; use :meth:`EuphratesPipeline.open_session`.
    """

    def __init__(
        self,
        *,
        name: str,
        isp: "ISPPipeline",
        extrapolator: MotionExtrapolator,
        backend: "InferenceBackend",
        window_controller: "WindowController",
    ) -> None:
        self.name = name
        self._isp = isp
        self._extrapolator = extrapolator
        self._backend = backend
        self._controller = window_controller
        # Per-stream algorithm state, previously locals of the run() loop.
        self._states: Dict[int, RoiMotionState] = {}
        self._last_detections: List[Detection] = []
        self._frames_since_inference = 0
        self._frames: List[FrameResult] = []
        # Observe-only hardware telemetry, one event per submitted frame.
        # Consumed by SoC cost meters; recording it never changes outputs.
        self._telemetry: List[FrameTelemetry] = []
        self._next_index = 0
        self._closed = False
        # Whether the ISP can ever produce a motion field for this session;
        # used by next_frame_kind() to predict the I/E decision.
        self._motion_possible = isp.config.expose_motion_vectors

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def frames_submitted(self) -> int:
        return self._next_index

    @property
    def window_controller(self) -> "WindowController":
        return self._controller

    @property
    def backend(self) -> "InferenceBackend":
        return self._backend

    def next_frame_kind(self, *, assume_defer: bool = False) -> FrameKind:
        """Predict whether the next :meth:`submit` will infer or extrapolate.

        The prediction is exact for same-sized frames: the only inputs to
        the I/E decision that are unknown before the ISP runs are a
        mid-stream frame-size change (which resets the denoiser's reference
        and forces an I-frame) and an explicit ``force_inference``.  The
        multiplexer uses this to interleave cheap E-frames while batching
        expensive I-frames.  ``assume_defer`` predicts the decision as if
        the frame were submitted with ``defer_inference=True`` (the serving
        layer's ``degrade`` overload policy).
        """
        if self._closed:
            raise SessionClosedError(f"session '{self.name}' is finished")
        if self._next_index == 0 or not self._last_detections:
            return FrameKind.INFERENCE
        if not self._motion_possible:
            return FrameKind.INFERENCE
        if self._controller.should_infer(self._frames_since_inference):
            return FrameKind.EXTRAPOLATION if assume_defer else FrameKind.INFERENCE
        return FrameKind.EXTRAPOLATION

    # ------------------------------------------------------------------
    # The per-frame body of the Euphrates algorithm
    # ------------------------------------------------------------------
    def submit(
        self,
        frame: np.ndarray,
        *,
        truth: Optional[Sequence[Detection]] = None,
        force_inference: bool = False,
        defer_inference: bool = False,
        degradation: str = "",
    ) -> FrameResult:
        """Process one captured frame and return its :class:`FrameResult`.

        ``truth`` is the frame's ground truth; the backend receives it if
        this frame becomes an I-frame.  ``force_inference`` turns this
        frame into an I-frame regardless of the window controller — a
        mid-stream reset, e.g. after a scene cut signalled by the
        application.  ``defer_inference`` does the opposite under overload:
        a controller-scheduled inference is postponed (the window
        effectively widens) so the frame extrapolates instead of stalling
        the queue; frames that *must* infer (first frame, no motion field,
        explicit force) still do.  ``degradation`` tags the emitted
        telemetry event with the serving-layer context that requested the
        special handling.
        """
        if self._closed:
            raise SessionClosedError(f"session '{self.name}' is finished")
        frame_index = self._next_index
        frame_start = time.perf_counter()
        ops_before = self._extrapolator.total_operations

        isp_start = time.perf_counter()
        processed = self._isp.process_luma(frame, frame_index)
        isp_s = time.perf_counter() - isp_start
        motion_field = processed.motion_field

        can_extrapolate = motion_field is not None and bool(self._last_detections)
        controller_wants_inference = self._controller.should_infer(
            self._frames_since_inference
        )
        must_infer = (
            force_inference
            or frame_index == 0
            or not can_extrapolate
            or (controller_wants_inference and not defer_inference)
        )
        if defer_inference and controller_wants_inference and not must_infer:
            # The overload policy suppressed a scheduled I-frame; record the
            # widened window in telemetry so degradation stays observable.
            degradation = (
                f"{degradation},deferred-inference"
                if degradation
                else "deferred-inference"
            )

        extrapolation_s = 0.0
        inference_s = 0.0
        if must_infer:
            predicted = None
            if can_extrapolate:
                stage_start = time.perf_counter()
                predicted = self._extrapolator.extrapolate_detections(
                    self._last_detections, motion_field, self._states
                )
                extrapolation_s += time.perf_counter() - stage_start
            stage_start = time.perf_counter()
            detections = self._backend.infer(
                frame_index, processed.luma, () if truth is None else truth
            )
            inference_s = time.perf_counter() - stage_start
            if predicted is not None:
                disagreement = measure_disagreement(detections, predicted)
                self._controller.observe_disagreement(disagreement)
            prune_states(self._states, detections)
            kind = FrameKind.INFERENCE
            self._frames_since_inference = 0
        else:
            stage_start = time.perf_counter()
            detections = self._extrapolator.extrapolate_detections(
                self._last_detections, motion_field, self._states
            )
            extrapolation_s += time.perf_counter() - stage_start
            kind = FrameKind.EXTRAPOLATION
            self._frames_since_inference += 1

        self._last_detections = detections
        result = FrameResult(
            frame_index=frame_index,
            kind=kind,
            detections=list(detections),
            window_size=self._controller.current_window,
        )
        self._frames.append(result)
        denoise = self._isp.denoise_stage
        record = FrameTelemetry(
            frame_index=frame_index,
            kind=kind,
            pixels=int(frame.size),
            rois=len(detections),
            motion_ops=float(processed.motion_ops),
            extrapolation_ops=float(
                self._extrapolator.total_operations - ops_before
            ),
            stream=self.name,
            degradation=degradation,
            isp_s=isp_s,
            motion_search_s=denoise.last_motion_s,
            denoise_blend_s=denoise.last_blend_s,
            extrapolation_s=extrapolation_s,
            inference_s=inference_s,
            total_s=time.perf_counter() - frame_start,
        )
        self._telemetry.append(record)
        self._next_index += 1
        return result

    def take_results(self) -> List[FrameResult]:
        """Drain the per-frame results accumulated since the last call.

        Always-on streams never :meth:`finish`, so without draining the
        result list would grow for the lifetime of the camera; a live
        consumer calls this periodically and the session's memory stays
        bounded (:attr:`frames_submitted` keeps counting across drains).  The telemetry
        buffer grows alongside and is drained separately — pair this with
        :meth:`take_telemetry` in always-on loops.  Results drained here
        are no longer part of the :class:`SequenceResult` that a later
        :meth:`finish` returns.
        """
        if self._closed:
            raise SessionClosedError(f"session '{self.name}' is finished")
        taken = self._frames
        self._frames = []
        return taken

    def take_telemetry(self) -> List[FrameTelemetry]:
        """Drain the per-frame hardware telemetry accumulated so far.

        The streaming multiplexer (and any live energy consumer) drains
        this after every submit to feed a :class:`repro.soc.frame_cost.CostMeter`;
        like :meth:`take_results`, draining keeps an always-on session's
        memory bounded.  Events drained here no longer appear in the
        :class:`~repro.core.types.SequenceResult` a later :meth:`finish`
        returns.
        """
        if self._closed:
            raise SessionClosedError(f"session '{self.name}' is finished")
        taken = self._telemetry
        self._telemetry = []
        return taken

    def finish(self) -> SequenceResult:
        """Close the session and return the (un-drained) per-frame results."""
        if self._closed:
            raise SessionClosedError(f"session '{self.name}' is already finished")
        self._closed = True
        return SequenceResult(
            sequence_name=self.name,
            frames=self._frames,
            telemetry=self._telemetry,
        )
