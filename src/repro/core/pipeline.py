"""The end-to-end Euphrates continuous-vision pipeline.

For every captured frame the pipeline runs the ISP (which produces pixels
plus motion-vector metadata), asks the window controller whether this is an
I-frame or an E-frame, and then either drives the inference backend (I-frame)
or extrapolates the previous results with the motion controller's algorithm
(E-frame).  On I-frames it also measures how much the inference result
disagrees with what extrapolation would have predicted, which feeds the
adaptive-EW controller.

The same class serves both evaluation scenarios: object detection (multiple
ROIs per frame, YOLOv2-class backends) and visual tracking (a single target,
MDNet-class backends).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional

from ..isp.framebuffer import DEFAULT_FRAME_FORMAT, FixedPointFormat
from ..isp.pipeline import ISPConfig, ISPPipeline
from ..motion.block_matching import BlockMatchingConfig
from .backends import InferenceBackend
from .executor import ShardedExecutor, ShardSchedule
from .session import EuphratesSession

if TYPE_CHECKING:  # imported lazily to avoid a circular package import
    from ..video.datasets import Dataset
    from ..video.sequence import VideoSequence
from .extrapolation import ExtrapolationConfig, MotionExtrapolator
from .types import SequenceResult
from .window import ConstantWindowController, WindowController


@dataclass(frozen=True)
class EuphratesConfig:
    """Algorithm-level configuration of the pipeline."""

    block_matching: BlockMatchingConfig = BlockMatchingConfig()
    extrapolation: ExtrapolationConfig = ExtrapolationConfig()
    #: When False the ISP discards its motion vectors (conventional SoC);
    #: every frame then degenerates to an I-frame regardless of the window
    #: controller, which models the baseline system.
    expose_motion_vectors: bool = True
    #: Fixed-point lattice of the ISP datapath (``None`` = unquantized
    #: float64).  A *vision* knob, not just a cost knob: quantization
    #: changes the committed frames and therefore the motion fields.
    frame_format: "FixedPointFormat | None" = DEFAULT_FRAME_FORMAT


class EuphratesPipeline:
    """Motion-extrapolated continuous vision over a video sequence."""

    def __init__(
        self,
        backend: InferenceBackend,
        window_controller: Optional[WindowController] = None,
        config: Optional[EuphratesConfig] = None,
    ) -> None:
        self.backend = backend
        self.window_controller = window_controller or ConstantWindowController(2)
        self.config = config or EuphratesConfig()
        #: Frame transport of :meth:`run_dataset`'s worker shards (see
        #: :data:`~repro.core.executor.TRANSPORTS`); :meth:`PipelineSpec.build`
        #: installs the spec's.  Never affects outputs.
        self.transport = "auto"

    # ------------------------------------------------------------------
    # Sessions: the incremental frame-at-a-time API
    # ------------------------------------------------------------------
    def open_session(
        self, width: int, height: int, *, name: Optional[str] = None
    ) -> EuphratesSession:
        """Open an incremental session on ``width`` x ``height`` frames.

        Frames and their ground truth are handed to
        :meth:`EuphratesSession.submit` one at a time.  ``name`` names the
        stream (default ``"stream"``); the simulated backends seed their
        noise with it, so a session named after a sequence reproduces
        :meth:`run` on it.

        Every session gets its *own* ISP, extrapolator, backend copy and
        window-controller clone, so any number of sessions can run
        concurrently and none of them changes the pipeline.  :meth:`run`,
        :meth:`run_dataset` and :class:`~repro.core.streaming.StreamMultiplexer`
        all open their sessions here.
        """
        if width is None or height is None:
            raise ValueError("open_session needs a width and height")
        name = name or "stream"
        backend = copy.deepcopy(self.backend)
        session = EuphratesSession(
            name=name,
            isp=ISPPipeline(
                ISPConfig(
                    expose_motion_vectors=self.config.expose_motion_vectors,
                    block_matching=self.config.block_matching,
                    frame_format=self.config.frame_format,
                )
            ),
            extrapolator=MotionExtrapolator(
                self.config.extrapolation,
                frame_width=width,
                frame_height=height,
                kernel_backend=self.config.block_matching.kernel_backend,
            ),
            backend=backend,
            window_controller=self.window_controller.clone(),
        )
        backend.start(name, width, height)
        return session

    # ------------------------------------------------------------------
    # Main loop — a thin wrapper over the session API
    # ------------------------------------------------------------------
    def run(self, sequence: "VideoSequence") -> SequenceResult:
        """Process one video sequence and return per-frame results.

        Implemented as ``open_session`` + one ``submit`` per frame, with
        that frame's ground truth, + ``finish`` — bit-identical to
        submitting the frames yourself.  The session starts from a fresh
        controller clone, so repeated runs return identical results and
        never change the pipeline.
        """
        session = self.open_session(sequence.width, sequence.height, name=sequence.name)
        for index, frame in sequence.iter_frames():
            session.submit(frame, truth=sequence.truth_detections(index))
        return session.finish()

    def run_dataset(
        self,
        dataset: "Dataset | Iterable[VideoSequence]",
        max_workers: int = 1,
    ) -> List[SequenceResult]:
        """Process every sequence of a dataset; results in dataset order.

        The sequences run on a :class:`~repro.core.executor.ShardedExecutor`
        with ``max_workers`` shards.  One worker is the in-process
        shard; more fork shard workers that own their sessions end to end
        and receive frames over the shared-memory transport, never pickled.
        Every sequence runs in its own session from a fresh controller
        clone, so the worker count never changes a result and per-frame
        telemetry is kept.  A failing sequence raises
        :class:`~repro.core.executor.StreamFailedError`.
        """
        sequences = dataset.sequences if hasattr(dataset, "sequences") else list(dataset)
        with ShardedExecutor(
            self,
            workers=max(1, min(max_workers, len(sequences))),
            transport=self.transport,
            schedule=ShardSchedule(keep_telemetry=True),
        ) as executor:
            outcomes = executor.run_sequences(sequences)
        return [result for result, _stats in outcomes]
