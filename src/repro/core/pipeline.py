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
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from ..isp.framebuffer import DEFAULT_FRAME_FORMAT, FixedPointFormat
from ..isp.pipeline import ISPConfig, ISPPipeline
from ..motion.block_matching import BlockMatchingConfig
from .backends import InferenceBackend
from .executor import ExecutionSpec, ShardedExecutor, ShardSchedule
from .session import EuphratesSession, StreamOracle

if TYPE_CHECKING:  # imported lazily to avoid a circular package import
    from ..video.datasets import Dataset
    from ..video.sequence import VideoSequence
from .extrapolation import ExtrapolationConfig, MotionExtrapolator
from .types import DatasetRunResult, SequenceResult
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
        #: How dataset/stream work is executed (worker count, frame
        #: transport); :meth:`PipelineSpec.build` installs the spec's knobs
        #: here.  Never affects outputs, only where sessions run.
        self.execution = ExecutionSpec()
        # Reusable per-pipeline engine instances: constructing the ISP and
        # the extrapolator per sequence is pure overhead once a dataset has
        # hundreds of sequences, so both are built lazily and reset/retargeted
        # at each sequence start.
        self._isp: Optional[ISPPipeline] = None
        self._extrapolator: Optional[MotionExtrapolator] = None
        # The engine-sharing session currently holding the cached engines
        # (None when they are free).  Only one such session may be open at a
        # time; standalone sessions are unrestricted.
        self._engine_lease: Optional[EuphratesSession] = None

    def __getstate__(self):
        # The cached ISP/extrapolator are lazily rebuilt and carry large
        # frame buffers; shipping them to the sharded executor's worker
        # processes would bloat the pickled pipeline for state the workers
        # rebuild anyway.
        state = self.__dict__.copy()
        state["_isp"] = None
        state["_extrapolator"] = None
        state["_engine_lease"] = None
        return state

    # ------------------------------------------------------------------
    # Engine reuse
    # ------------------------------------------------------------------
    def _acquire_isp(self) -> ISPPipeline:
        if self._isp is None:
            self._isp = ISPPipeline(self._isp_config())
        else:
            self._isp.reset()
        return self._isp

    def _isp_config(self) -> ISPConfig:
        return ISPConfig(
            expose_motion_vectors=self.config.expose_motion_vectors,
            block_matching=self.config.block_matching,
            frame_format=self.config.frame_format,
        )

    def _acquire_extrapolator(self, width: int, height: int) -> MotionExtrapolator:
        if self._extrapolator is None:
            self._extrapolator = MotionExtrapolator(
                self.config.extrapolation, frame_width=width, frame_height=height
            )
        else:
            self._extrapolator.configure_frame(width, height)
        return self._extrapolator

    # ------------------------------------------------------------------
    # Sessions: the incremental frame-at-a-time API
    # ------------------------------------------------------------------
    def open_session(
        self,
        width: Optional[int] = None,
        height: Optional[int] = None,
        *,
        source: "VideoSequence | None" = None,
        name: Optional[str] = None,
        oracle_name: Optional[str] = None,
        oracle_labels: Optional[Dict[int, str]] = None,
        backend: Optional[InferenceBackend] = None,
        window_controller: Optional[WindowController] = None,
        share_engines: bool = False,
    ) -> EuphratesSession:
        """Open an incremental session; see :class:`EuphratesSession`.

        Sessions come in two flavours:

        * ``source=sequence`` binds the session to an annotated
          :class:`~repro.video.sequence.VideoSequence` whose ground truth
          feeds the simulated backends; frames are then submitted one at a
          time and must match the sequence's frames for the results to mean
          anything.
        * ``open_session(width, height)`` opens a dimension-bound live
          stream: per-frame ground truth is handed to
          :meth:`EuphratesSession.submit` and collected in a
          :class:`~repro.core.session.StreamOracle`.  ``oracle_name`` (and
          optionally ``oracle_labels``) lets the oracle present a different
          identity than the session — worker shards use this to replay a
          named sequence frame-by-frame so simulated backends seeded by
          sequence name produce bit-identical outputs.

        By default every session gets its *own* ISP, extrapolator, backend
        copy and window-controller clone, so any number of sessions can run
        concurrently (this is what :class:`~repro.core.streaming.StreamMultiplexer`
        builds on).  ``share_engines=True`` instead borrows the pipeline's
        cached engines, its backend and its controller — the batch
        :meth:`run` path — and therefore allows only one open session at a
        time.
        """
        if source is not None:
            if oracle_name is not None or oracle_labels is not None:
                raise ValueError(
                    "oracle_name/oracle_labels apply to live (width/height) "
                    "sessions only; a source sequence carries its own identity"
                )
            width = source.width
            height = source.height
            name = name or source.name
        else:
            if width is None or height is None:
                raise ValueError("open_session needs either a source sequence or width and height")
            name = name or "stream"

        oracle: Optional[StreamOracle] = None
        backend_source: object = source
        if source is None:
            oracle = StreamOracle(
                oracle_name or name, width, height, labels=oracle_labels
            )
            backend_source = oracle

        if share_engines:
            if source is None:
                raise ValueError("engine-sharing sessions require a source sequence")
            if backend is not None or window_controller is not None:
                raise ValueError(
                    "engine-sharing sessions use the pipeline's backend and controller"
                )
            if self._engine_lease is not None and not self._engine_lease.closed:
                raise RuntimeError(
                    "the pipeline's cached engines are already leased to session "
                    f"'{self._engine_lease.name}'; finish() it first or open a "
                    "standalone session"
                )
            isp = self._acquire_isp()
            extrapolator = self._acquire_extrapolator(width, height)
            session_backend = self.backend
            controller = self.window_controller
        else:
            if backend is self.backend:
                raise ValueError(
                    "backend is this pipeline's own engine; standalone "
                    "sessions (and shards) must never share a live backend — "
                    "open with share_engines=True or pass a copy"
                )
            isp = ISPPipeline(self._isp_config())
            extrapolator = MotionExtrapolator(
                self.config.extrapolation, frame_width=width, frame_height=height
            )
            session_backend = backend if backend is not None else copy.deepcopy(self.backend)
            controller = (
                window_controller
                if window_controller is not None
                else self.window_controller.clone()
            )

        session = EuphratesSession(
            name=name,
            isp=isp,
            extrapolator=extrapolator,
            backend=session_backend,
            window_controller=controller,
            source=backend_source,
            oracle=oracle,
            on_finish=self._session_finished,
        )
        if source is not None:
            # Start the backend *before* taking the engine lease: a failing
            # start (e.g. a sequence with no first-frame annotation) must
            # not leave the pipeline holding a lease for a dead session.
            session_backend.start_sequence(source)
        if share_engines:
            self._engine_lease = session
        return session

    def _session_finished(self, session: EuphratesSession) -> None:
        if self._engine_lease is session:
            self._engine_lease = None

    # ------------------------------------------------------------------
    # Main loop — a thin wrapper over the session API
    # ------------------------------------------------------------------
    def run(self, sequence: "VideoSequence") -> SequenceResult:
        """Process one video sequence and return per-frame results.

        Implemented as ``open_session`` + one ``submit`` per frame +
        ``finish`` — bit-identical to submitting the frames yourself.
        """
        session = self.open_session(source=sequence, share_engines=True)
        try:
            for _, frame in sequence.iter_frames():
                session.submit(frame)
            return session.finish()
        finally:
            # A mid-sequence error (backend failure, bad frame, interrupt)
            # must still release the engine lease, or every future run()
            # on this pipeline would refuse with "engines already leased".
            if not session.closed:
                session.finish()

    def run_dataset(
        self,
        dataset: "Dataset | Iterable[VideoSequence]",
        max_workers: Optional[int] = None,
        *,
        transport: Optional[str] = None,
    ) -> List[SequenceResult]:
        """Process every sequence of a dataset.

        ``max_workers`` and ``transport`` default to this pipeline's
        :class:`~repro.core.executor.ExecutionSpec` (``pipeline.execution``,
        installed by ``PipelineSpec.build``).  With more than one worker the
        sequences run on a :class:`~repro.core.executor.ShardedExecutor`:
        each shard worker owns its sessions end-to-end and frames cross the
        process boundary over the shared-memory transport, never pickled.

        Results come back in dataset order, with per-frame telemetry —
        bit-identical to the serial path for constant windows
        (property-tested).  Adaptive-window
        feedback stays local to each parallel worker: every sequence adapts
        within itself but starts from a fresh controller clone, whereas the
        serial path chains controller state from one sequence into the next
        — so adaptive-mode results can differ between serial and parallel
        runs (constant-window results are identical).
        """
        sequences = dataset.sequences if hasattr(dataset, "sequences") else list(dataset)
        execution = self.execution
        if max_workers is None:
            max_workers = execution.workers
        if transport is None:
            transport = execution.transport
        if max_workers is None or max_workers <= 1 or len(sequences) <= 1:
            return [self.run(sequence) for sequence in sequences]

        executor = ShardedExecutor(
            self,
            workers=min(max_workers, len(sequences)),
            transport=transport,
            schedule=ShardSchedule(keep_telemetry=True),
        )
        try:
            outcomes = executor.run_sequences(sequences)
        finally:
            executor.close()
        return [result for result, _stats in outcomes]

    def run_dataset_result(
        self,
        dataset: "Dataset | Iterable[VideoSequence]",
        max_workers: Optional[int] = None,
        *,
        transport: Optional[str] = None,
    ) -> DatasetRunResult:
        """Like :meth:`run_dataset`, but return a :class:`DatasetRunResult`.

        The experiment harness caches one such self-contained object per
        swept pipeline configuration.
        """
        return DatasetRunResult(
            sequences=self.run_dataset(
                dataset, max_workers=max_workers, transport=transport
            )
        )
