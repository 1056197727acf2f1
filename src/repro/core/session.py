"""Frame-at-a-time streaming sessions over the Euphrates pipeline.

The original API could only process pre-recorded whole sequences
(``EuphratesPipeline.run(sequence)``), which rules out the always-on usage
the paper targets: frames arriving one at a time from a live camera, many
cameras sharing one SoC.  :class:`EuphratesSession` extracts the per-frame
body of that monolithic loop — ISP, window-controller I/E decision, backend
inference or motion extrapolation, disagreement measurement, state pruning —
behind an incremental interface::

    session = pipeline.open_session(source=sequence)
    for _, frame in sequence.iter_frames():
        result = session.submit(frame)          # one FrameResult per frame
    sequence_result = session.finish()

``EuphratesPipeline.run`` is now a thin wrapper over exactly this loop, so
the streaming path is bit-identical to the batch path by construction.

Every session owns its ISP, extrapolator, backend copy and window-controller
clone, so any number can run concurrently and each stream's adaptive window
learns only from its own frames — whether the session comes from ``run()``,
``run_dataset`` or :class:`repro.core.streaming.StreamMultiplexer`.

A session may be bound to a :class:`~repro.video.sequence.VideoSequence`
(whose annotations feed the simulated-CNN backends' ground-truth oracle) or
opened on bare ``(width, height)`` dimensions, in which case per-frame truth
is supplied with each :meth:`EuphratesSession.submit` call and collected in a
:class:`StreamOracle` that mimics the minimal sequence interface the
backends consume.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from .extrapolation import MotionExtrapolator, RoiMotionState
from .types import Detection, FrameKind, FrameResult, FrameTelemetry, SequenceResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..isp.pipeline import ISPPipeline
    from ..video.sequence import VideoSequence
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


class _TruthSeries:
    """Per-object box-per-frame view over a :class:`StreamOracle`.

    Implements just enough of the ``sequence.truth_for(object_id)`` list
    protocol (``[frame_index]``) for the tracking backends.
    """

    def __init__(self, oracle: "StreamOracle", object_id: int) -> None:
        self._oracle = oracle
        self._object_id = object_id

    def __getitem__(self, frame_index: int):
        truth = self._oracle.truth_at_frame(frame_index)
        for detection in truth:
            if detection.object_id == self._object_id:
                return detection.box
        return None


class StreamOracle:
    """Minimal sequence facade for sessions fed frame by frame.

    The simulated CNN backends model accuracy *relative to ground truth*, so
    they query their sequence for per-frame annotations.  A live stream has
    no pre-recorded sequence; instead the caller hands each frame's truth to
    :meth:`EuphratesSession.submit` and this oracle accumulates it, exposing
    the handful of accessors the backends actually touch (``width``,
    ``height``, ``name``, ``frame(0)``, ``truth_detections``, ``truth_for``,
    ``primary_object_id``, ``labels``).
    """

    #: How many recent frames' truth to retain.  Backends only ever query
    #: the frame currently being submitted, so an always-on stream must not
    #: accumulate truth without bound; a small window keeps late readers
    #: (diagnostics) working while bounding memory.
    TRUTH_WINDOW = 8

    def __init__(
        self,
        name: str,
        width: int,
        height: int,
        fps: float = 60.0,
        *,
        labels: Optional[Dict[int, str]] = None,
    ) -> None:
        self.name = name
        self.width = int(width)
        self.height = int(height)
        self.fps = fps
        #: Object-id -> class-label map.  Grows as truth is observed; may be
        #: primed up front (worker shards replaying a known sequence prime
        #: it with the sequence's full label map).
        self.labels: Dict[int, str] = dict(labels or {})
        self._truth: Dict[int, List[Detection]] = {}
        self._next_frame = 0
        self._primary_object_id: Optional[int] = None
        self._first_frame: Optional[np.ndarray] = None

    # -- feeding -------------------------------------------------------
    def observe(
        self,
        frame_index: int,
        frame: np.ndarray,
        truth: Optional[Sequence[Detection]],
    ) -> None:
        """Record one submitted frame's annotations (called by the session)."""
        if frame_index != self._next_frame:
            raise ValueError(
                f"frames must be observed in order (got {frame_index}, "
                f"expected {self._next_frame})"
            )
        detections = list(truth) if truth else []
        self._truth[frame_index] = detections
        self._next_frame = frame_index + 1
        for detection in detections:
            if detection.object_id is not None:
                if self._primary_object_id is None:
                    self._primary_object_id = detection.object_id
                self.labels.setdefault(detection.object_id, detection.label)
        if frame_index == 0:
            # Copy, never reference: a live capture loop typically reuses
            # one buffer per frame, which would silently rewrite "frame 0".
            self._first_frame = np.array(frame, copy=True)
        stale = frame_index - self.TRUTH_WINDOW
        if stale in self._truth:
            del self._truth[stale]

    def forget(self, frame_index: int) -> None:
        """Roll back the most recent :meth:`observe` (failed submit).

        Keeps the oracle in sync with the session's frame counter so the
        caller can retry the frame (e.g. resubmitting with the truth a
        tracking backend needed to start).
        """
        if frame_index == self._next_frame - 1:
            self._truth.pop(frame_index, None)
            self._next_frame = frame_index
            if frame_index == 0:
                self._first_frame = None
                self._primary_object_id = None

    # -- the sequence protocol consumed by the backends ----------------
    def frame(self, index: int) -> np.ndarray:
        if index != 0 or self._first_frame is None:
            raise ValueError("a stream oracle only retains the first frame")
        return self._first_frame

    def truth_at_frame(self, frame_index: int) -> List[Detection]:
        if frame_index >= self._next_frame:
            raise ValueError(
                f"no truth observed yet for frame {frame_index} "
                f"({self._next_frame} frames submitted)"
            )
        try:
            return self._truth[frame_index]
        except KeyError:
            raise ValueError(
                f"truth for frame {frame_index} was evicted (only the last "
                f"{self.TRUTH_WINDOW} frames are retained)"
            ) from None

    def truth_detections(self, frame_index: int) -> List[Detection]:
        return list(self.truth_at_frame(frame_index))

    def truth_for(self, object_id: int) -> _TruthSeries:
        return _TruthSeries(self, object_id)

    @property
    def primary_object_id(self) -> int:
        if self._primary_object_id is None:
            raise ValueError(f"stream '{self.name}' has no annotated objects yet")
        return self._primary_object_id


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
        source: "VideoSequence | StreamOracle | None" = None,
        oracle: Optional[StreamOracle] = None,
    ) -> None:
        self.name = name
        self._isp = isp
        self._extrapolator = extrapolator
        self._backend = backend
        self._controller = window_controller
        self._source = source
        self._oracle = oracle
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
        # Sequence-bound sessions start their backend at open (the pipeline
        # does it); oracle-fed ones defer until the first frame's truth is in.
        self._backend_started = oracle is None
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

        ``truth`` feeds the ground-truth oracle of dimension-bound sessions
        (ignored, and rejected, when the session is bound to an annotated
        source sequence).  ``force_inference`` turns this frame into an
        I-frame regardless of the window controller — a mid-stream reset,
        e.g. after a scene cut signalled by the application.
        ``defer_inference`` does the opposite under overload: a controller-
        scheduled inference is postponed (the window effectively widens) so
        the frame extrapolates instead of stalling the queue; frames that
        *must* infer (first frame, no motion field, explicit force) still
        do.  ``degradation`` tags the emitted telemetry event with the
        serving-layer context that requested the special handling.
        """
        if self._closed:
            raise SessionClosedError(f"session '{self.name}' is finished")
        frame_index = self._next_index

        if self._oracle is not None:
            self._oracle.observe(frame_index, frame, truth)
            try:
                return self._process(
                    frame_index, frame, force_inference, defer_inference, degradation
                )
            except BaseException:
                # Keep the oracle in lockstep with the frame counter so the
                # caller can retry (e.g. resubmitting with the truth a tracking
                # backend needed to start).  If the ISP already ran, its
                # temporal reference has advanced and a retry is functional
                # but not bit-exact — failures before the ISP (backend
                # start, bad truth) retry cleanly.
                self._oracle.forget(frame_index)
                raise
        if truth is not None:
            raise ValueError(
                "per-frame truth is only accepted by sessions opened without "
                "a source sequence"
            )
        return self._process(
            frame_index, frame, force_inference, defer_inference, degradation
        )

    def _process(
        self,
        frame_index: int,
        frame: np.ndarray,
        force_inference: bool,
        defer_inference: bool = False,
        degradation: str = "",
    ) -> FrameResult:
        """The per-frame algorithm body (split out for submit's rollback)."""
        frame_start = time.perf_counter()
        ops_before = self._extrapolator.total_operations
        if not self._backend_started:
            # Dimension-bound sessions defer backend start until the first
            # frame so the oracle already holds that frame's annotations
            # (tracking backends read the first-frame box at start).
            self._backend.start_sequence(self._source)
            self._backend_started = True

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
            detections = self._backend.infer(frame_index, processed.luma, self._source)
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
