"""Multi-stream serving: N concurrent camera sessions over one pipeline.

Always-on vision SoCs serve several cameras at once (Starfish, MobiSys'15
makes the case for first-class concurrent-stream support).  The
:class:`StreamMultiplexer` multiplexes any number of
:class:`~repro.core.session.EuphratesSession` objects over one
:class:`~repro.core.pipeline.EuphratesPipeline` template:

* each stream has its own frame queue (frames are pushed as they "arrive"),
  its own backend copy and its own window-controller clone, so streams never
  contaminate each other's algorithm state;
* scheduling is delegated to the shared execution core
  (:class:`~repro.core.executor.ShardedExecutor`): the fair-share and
  energy/deadline policies run shard-local, so the same scheduler serves
  the in-process single-shard path and ``workers=N`` worker processes
  (frames then cross the process boundary over the zero-copy shared-memory
  transport, never pickled);
* per-stream and aggregate throughput/latency statistics are tracked from
  the executor's per-frame records, feeding
  ``python -m repro.harness bench stream``; with an attached energy model
  (``soc`` + ``network``) each stream's frames are priced on the modeled
  SoC as they are processed — including amortised weight traffic across
  batched I-frames — and a :class:`~repro.soc.frame_cost.SharedSoCPool`
  settles the shared static-power terms exactly once across all streams.

Because sessions are fully isolated, the per-stream results are bit-identical
to running each sequence through its own pipeline — scheduling order and
worker count affect latency, never output (property-tested in
``tests/test_streaming.py`` and ``tests/test_executor.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .executor import (
    SCHEDULING_POLICIES,
    FrameRecord,
    ShardedExecutor,
    ShardSchedule,
    StreamFailedError,
)
from .profiler import stage_seconds
from .types import Detection, FrameKind, SequenceResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nn.models import NetworkSpec
    from ..soc.config import SoCConfig
    from ..soc.frame_cost import CostMeter, QueueingEstimate
    from ..soc.soc import EnergyBreakdown, VisionSoC
    from ..video.sequence import VideoSequence
    from .backends import InferenceBackend
    from .pipeline import EuphratesPipeline
    from .window import WindowController

__all__ = [
    "SCHEDULING_POLICIES",
    "MultiplexerReport",
    "StreamMultiplexer",
    "StreamStats",
]


@dataclass
class StreamStats:
    """Throughput/latency accounting for one stream."""

    name: str
    frames_submitted: int = 0
    frames_processed: int = 0
    inference_frames: int = 0
    extrapolation_frames: int = 0
    #: Frames processed under duress (telemetry carried a degradation tag:
    #: ``dropped-frame-gap``, ``deferred-inference``, ``queue-degrade``...).
    degraded_frames: int = 0
    #: Seconds spent inside ``session.submit`` for this stream.
    busy_s: float = 0.0
    #: Seconds frames spent queued before the scheduler picked them.
    wait_s: float = 0.0
    max_queue_depth: int = 0
    #: Per-stage wall-clock seconds accumulated from frame telemetry
    #: (keys from :data:`repro.core.profiler.STAGE_NAMES`; empty until the
    #: first frame carrying stage timings is absorbed).
    stage_s: Dict[str, float] = field(default_factory=dict)

    @property
    def pending(self) -> int:
        return self.frames_submitted - self.frames_processed

    @property
    def inference_rate(self) -> float:
        if not self.frames_processed:
            return 0.0
        return self.inference_frames / self.frames_processed

    @property
    def mean_service_latency_s(self) -> float:
        """Mean per-frame processing time (excluding queueing delay)."""
        if not self.frames_processed:
            return 0.0
        return self.busy_s / self.frames_processed

    @property
    def mean_queue_wait_s(self) -> float:
        if not self.frames_processed:
            return 0.0
        return self.wait_s / self.frames_processed


@dataclass
class MultiplexerReport:
    """Aggregate statistics of one multiplexer drain."""

    streams: List[StreamStats]
    wall_s: float
    frames_processed: int
    inference_frames: int
    extrapolation_frames: int
    inference_batches: int
    #: Sizes of every I-frame batch the scheduler dispatched.
    batch_sizes: List[int] = field(default_factory=list)
    #: Modeled SoC energy per stream (present when the multiplexer was
    #: given an energy model; keyed by stream id).  Each breakdown prices
    #: that camera's frames on the modeled SoC — I-frames dispatched in a
    #: batch of k amortise the NNX weight traffic over k streams.
    stream_energy: Dict[str, "EnergyBreakdown"] = field(default_factory=dict)
    #: Exact shared-SoC aggregate: static power (NNX idle, DRAM background,
    #: MC idle) settled once across all streams instead of once per stream.
    #: ``None`` when no energy model is attached.
    shared_energy: "EnergyBreakdown | None" = None
    #: M/D/1 queueing view of the shared backend serving every stream.
    queueing: "QueueingEstimate | None" = None
    #: Execution configuration the run used (for benchmark provenance).
    workers: int = 1
    transport: str = "inproc"

    @property
    def aggregate_fps(self) -> float:
        return self.frames_processed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    # -- energy aggregates (no energy model => zeros) -------------------
    #
    # Each stream's breakdown prices that camera as if it owned the whole
    # modeled SoC.  Summing them therefore counts per-SoC *static* power
    # (NNX idle, DRAM background, MC idle) once per stream — the historical
    # upper bound, still available as ``aggregate_energy_upper_bound_j``.
    # ``shared_energy`` settles those terms exactly once on the shared SoC
    # (dynamic terms, including cross-stream weight-batch amortisation,
    # are identical in both), so the aggregates below report the exact
    # figure whenever an energy model is attached: always <= the upper
    # bound, equal for a single stream.
    @property
    def aggregate_energy_upper_bound_j(self) -> float:
        """Per-stream-sum energy: static power counted once per stream."""
        return sum(b.total_energy_j for b in self.stream_energy.values())

    @property
    def aggregate_energy_j(self) -> float:
        """Total modeled energy (exact shared-SoC figure when metered)."""
        if self.shared_energy is not None:
            return self.shared_energy.total_energy_j
        return self.aggregate_energy_upper_bound_j

    @property
    def aggregate_energy_per_frame_j(self) -> float:
        frames = sum(b.num_frames for b in self.stream_energy.values())
        if not frames:
            return 0.0
        return self.aggregate_energy_j / frames

    @property
    def aggregate_power_w(self) -> float:
        """Aggregate power: streams run concurrently in model time, so the
        denominator is the longest per-stream wall clock, not the sum."""
        wall = max((b.wall_time_s for b in self.stream_energy.values()), default=0.0)
        if wall <= 0:
            return 0.0
        return self.aggregate_energy_j / wall


class _MuxStream:
    """Client-side per-stream record: stats + cost meter (+ result)."""

    def __init__(
        self,
        stream_id: str,
        multiplexer: "StreamMultiplexer",
        meter: "CostMeter | None" = None,
    ) -> None:
        self.stream_id = stream_id
        self._multiplexer = multiplexer
        self.stats = StreamStats(name=stream_id)
        self.result: Optional[SequenceResult] = None
        #: Per-stream SoC cost meter (None when no energy model is attached).
        self.meter = meter

    # -- diagnostics (in-process execution only) ------------------------
    @property
    def session(self):
        """The live session object (single-shard in-process mode only)."""
        return self._core_stream().session

    @property
    def queue(self):
        """The live frame queue (single-shard in-process mode only)."""
        return self._core_stream().queue

    def _core_stream(self):
        shard = self._multiplexer._executor.shard_of(self.stream_id)
        if shard.is_process:
            raise AttributeError(
                "stream internals live in a worker process when workers > 1"
            )
        return shard.core.stream(self.stream_id)


class StreamMultiplexer:
    """Scheduler frontend for N concurrent Euphrates camera streams.

    ``e_frame_burst`` bounds how many consecutive E-frames one stream may
    process per scheduling round (fairness knob: a stream with a deep queue
    of cheap frames cannot starve the others).  ``max_inference_batch``
    bounds how many I-frames the scheduler groups into one inference batch.

    ``policy`` selects the scheduler: ``"fair"`` (default) is the
    round-robin fair-share scheduler; ``"energy"`` is energy/deadline-aware
    — it serves the deepest queues first and *defers* I-frames until a full
    ``max_inference_batch`` is ready (maximising NNX weight reuse), unless
    a ready stream breaches its deadline (queue depth *or* head-frame age
    in scheduling rounds reaches ``deadline_frames``) or no other progress
    was possible this round.  Scheduling order affects latency and
    energy attribution, never outputs — sessions are fully isolated, so
    per-stream results are bit-identical under every policy.

    ``workers`` shards the streams over that many worker processes, each
    owning its sessions end-to-end (the scheduling policies run shard-local
    and frames cross over the shared-memory ``transport``); the default of
    1 keeps everything in-process.  Worker count never changes outputs.

    Passing an energy model (``soc`` + ``network``) attaches one
    :class:`~repro.soc.frame_cost.CostMeter` per stream: every processed
    frame's telemetry is priced as it happens, with batched I-frames
    amortising the weight DRAM traffic over the batch.  The meters hang
    off a :class:`~repro.soc.frame_cost.SharedSoCPool`, so :meth:`report`
    carries both per-stream breakdowns and the exact shared-static-power
    aggregate (plus an M/D/1 queueing estimate).  Streams may override the
    modeled capture setting per camera via ``add_stream(soc_config=...)``.
    Metering is observe-only.
    """

    def __init__(
        self,
        pipeline: "EuphratesPipeline",
        *,
        e_frame_burst: int = 4,
        max_inference_batch: int = 4,
        policy: str = "fair",
        deadline_frames: int = 8,
        soc: "VisionSoC | None" = None,
        network: "NetworkSpec | None" = None,
        extrapolation_on_cpu: bool = False,
        workers: int = 1,
        transport: str = "auto",
        isolate_failures: bool = False,
        on_record: "Callable[[FrameRecord], None] | None" = None,
    ) -> None:
        schedule = ShardSchedule(
            policy=policy,
            e_frame_burst=e_frame_burst,
            max_inference_batch=max_inference_batch,
            deadline_frames=deadline_frames,
        )
        if (soc is None) != (network is None):
            raise ValueError("energy metering needs both soc and network")
        self.pipeline = pipeline
        self.e_frame_burst = e_frame_burst
        self.max_inference_batch = max_inference_batch
        self.policy = policy
        self.deadline_frames = deadline_frames
        self.isolate_failures = bool(isolate_failures)
        #: Observer invoked with every absorbed :class:`FrameRecord` (the
        #: serving layer's completion hook).  Observe-only.
        self.on_record = on_record
        self._executor = ShardedExecutor(
            pipeline,
            workers=workers,
            transport=transport,
            schedule=schedule,
            isolate_failures=isolate_failures,
        )
        self._network = network
        self._pool = soc.open_pool() if soc is not None else None
        #: E-frame pricing host for the attached meters (the EW-N@CPU
        #: software baseline when True).
        self._extrapolation_on_cpu = extrapolation_on_cpu
        self._streams: Dict[str, _MuxStream] = {}
        self._order: List[str] = []
        self._batch_sizes: List[int] = []
        #: I-frame batches already counted (record batch ids are per-shard).
        self._seen_batches: set = set()
        self._wall_s = 0.0

    @property
    def workers(self) -> int:
        return self._executor.workers

    @property
    def transport_mode(self) -> str:
        return self._executor.transport_mode

    # ------------------------------------------------------------------
    # Stream management
    # ------------------------------------------------------------------
    def add_stream(
        self,
        source: "VideoSequence | None" = None,
        *,
        name: Optional[str] = None,
        width: Optional[int] = None,
        height: Optional[int] = None,
        backend: "InferenceBackend | None" = None,
        window_controller: "WindowController | None" = None,
        soc_config: "str | SoCConfig | None" = None,
    ) -> str:
        """Register a stream and return its id (the session name).

        Pass ``source`` for a sequence-bound stream (ground truth comes from
        the sequence) or ``width``/``height`` for a live stream whose truth
        arrives per frame via :meth:`submit`.  ``soc_config`` prices this
        stream's frames on a different modeled capture setting than the
        shared SoC (heterogeneous cameras on one backend); it needs the
        energy model attached.
        """
        if name is None:
            base = source.name if source is not None else "stream"
            name = base
            suffix = 1
            while name in self._streams:
                name = f"{base}#{suffix}"
                suffix += 1
        if name in self._streams:
            raise ValueError(f"stream '{name}' already exists")
        meter = None
        if soc_config is not None and self._pool is None:
            raise ValueError(
                "per-stream soc_config needs an energy model (soc and network)"
            )
        if self._pool is not None:
            stream_soc = None
            if soc_config is not None:
                from ..soc.config import resolve_soc_config
                from ..soc.soc import VisionSoC

                stream_soc = VisionSoC(resolve_soc_config(soc_config))
            meter = self._pool.open_meter(
                self._network,
                soc=stream_soc,
                extrapolation_on_cpu=self._extrapolation_on_cpu,
                label=name,
            )
        self._executor.open_stream(
            name,
            source=source,
            name=name,
            width=width,
            height=height,
            backend=backend,
            window_controller=window_controller,
        )
        self._streams[name] = _MuxStream(name, self, meter=meter)
        self._order.append(name)
        return name

    @property
    def stream_ids(self) -> List[str]:
        return list(self._order)

    def stats_for(self, stream_id: str) -> StreamStats:
        return self._stream(stream_id).stats

    def _stream(self, stream_id: str) -> _MuxStream:
        try:
            return self._streams[stream_id]
        except KeyError:
            raise KeyError(f"unknown stream '{stream_id}'") from None

    # ------------------------------------------------------------------
    # Frame ingress
    # ------------------------------------------------------------------
    def submit(
        self,
        stream_id: str,
        frame: np.ndarray,
        *,
        truth: Optional[Sequence[Detection]] = None,
        force_inference: bool = False,
        defer_inference: bool = False,
        degradation: str = "",
    ) -> None:
        """Enqueue one captured frame for ``stream_id`` (non-blocking).

        The frame is copied out of the caller's buffer (into a queue copy
        in-process, into a shared-memory slot under worker shards): live
        capture loops typically reuse one buffer per capture, which would
        otherwise silently rewrite every frame still in flight.

        ``defer_inference`` suppresses a controller-scheduled I-frame for
        this frame (the serving layer's overload degradation — forced and
        first-frame inference still run); ``degradation`` tags the frame's
        telemetry with the serving-layer events that led here.
        """
        stream = self._stream(stream_id)
        self._executor.submit(
            stream_id,
            frame,
            truth=truth,
            force_inference=force_inference,
            defer_inference=defer_inference,
            degradation=degradation,
        )
        stats = stream.stats
        stats.frames_submitted += 1
        stats.max_queue_depth = max(
            stats.max_queue_depth, self._executor.pending_for(stream_id)
        )

    def feed_sequence(self, stream_id: str, sequence: "VideoSequence") -> None:
        """Enqueue every frame of ``sequence`` on ``stream_id``."""
        for _, frame in sequence.iter_frames():
            self.submit(stream_id, frame)

    @property
    def pending_frames(self) -> int:
        return self._executor.pending_frames

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _absorb(self, records: List[FrameRecord]) -> int:
        for record in records:
            stream = self._streams[record.key]
            stats = stream.stats
            stats.frames_processed += 1
            if record.kind is FrameKind.INFERENCE:
                stats.inference_frames += 1
            else:
                stats.extrapolation_frames += 1
            if record.telemetry is not None and record.telemetry.degradation:
                stats.degraded_frames += 1
            if record.telemetry is not None:
                for stage, seconds in stage_seconds(record.telemetry).items():
                    stats.stage_s[stage] = stats.stage_s.get(stage, 0.0) + seconds
            stats.busy_s += record.busy_s
            stats.wait_s += record.wait_s
            if record.batch_id >= 0:
                batch = (record.shard, record.batch_id)
                if batch not in self._seen_batches:
                    self._seen_batches.add(batch)
                    self._batch_sizes.append(record.batch_size)
            if stream.meter is not None and record.telemetry is not None:
                # Price what actually happened, as it happens.
                stream.meter.record(record.telemetry, batch_size=record.batch_size)
            if self.on_record is not None:
                self.on_record(record)
        return len(records)

    def pump(self) -> int:
        """Run one scheduling round; return the number of frames processed.

        In-process this executes one round of the shard's two-phase
        scheduler (E-bursts, then one batched-I dispatch — see
        :class:`~repro.core.executor.StreamShard`); with worker shards it
        absorbs whatever frame records the workers have produced since the
        last call (they pump continuously on their own).
        """
        round_start = time.perf_counter()
        processed = self._absorb(self._executor.pump())
        # Wall time accumulates per round, so callers driving the scheduler
        # through pump() directly (an always-on loop that can never drain)
        # still get meaningful aggregate throughput from report().
        self._wall_s += time.perf_counter() - round_start
        return processed

    def drain(self) -> int:
        """Pump until every queue is empty; return total frames processed."""
        start = time.perf_counter()
        processed = self._absorb(self._executor.drain())
        self._wall_s += time.perf_counter() - start
        return processed

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    @property
    def stream_failures(self) -> Dict[str, str]:
        """stream id -> reason, for streams lost to an isolated failure."""
        return self._executor.stream_failures

    def finish_stream(self, stream_id: str) -> SequenceResult:
        """Close one stream (its queue already drained) and return its result.

        The serving layer's per-connection teardown: other streams keep
        running and the multiplexer stays open for new ones.  Raises
        :class:`~repro.core.executor.StreamFailedError` if the stream was
        lost to an isolated failure.
        """
        stream = self._stream(stream_id)
        if stream.result is None:
            result, _stats = self._executor.finish_stream(stream_id)
            stream.result = result
            # Records for other streams can surface while the shard
            # catches up; keep the stats honest.
            self._absorb(self._executor.pump())
        return stream.result

    def finish(self) -> Dict[str, SequenceResult]:
        """Drain every queue, close every session, return per-stream results.

        Also releases the execution resources (worker processes and
        shared-memory segments when ``workers > 1``), so a finished
        multiplexer cannot accept new streams.  Under ``isolate_failures``
        streams lost to a failure are skipped (see :attr:`stream_failures`
        for the reasons); without isolation the failure propagates as ever.
        """
        self.drain()
        results: Dict[str, SequenceResult] = {}
        for name in self._order:
            stream = self._streams[name]
            if stream.result is None:
                if self.isolate_failures and name in self._executor.stream_failures:
                    continue
                try:
                    result, _stats = self._executor.finish_stream(name)
                except StreamFailedError:
                    if not self.isolate_failures:
                        raise
                    continue
                stream.result = result
            results[name] = stream.result
        # Late records can surface while worker shards wind down.
        self._absorb(self._executor.pump())
        self._executor.close()
        return results

    def close(self) -> None:
        """Release worker processes and shared-memory segments."""
        self._executor.close()

    def report(self) -> MultiplexerReport:
        """Aggregate scheduling statistics accumulated so far."""
        stats = [self._streams[name].stats for name in self._order]
        stream_energy: Dict[str, "EnergyBreakdown"] = {}
        for name in self._order:
            meter = self._streams[name].meter
            if meter is not None and meter.frames:
                stream_energy[name] = meter.breakdown()
        shared_energy = None
        queueing = None
        if self._pool is not None and self._pool.frames:
            shared_energy = self._pool.aggregate()
            queueing = self._pool.queueing_estimate()
        return MultiplexerReport(
            streams=stats,
            wall_s=self._wall_s,
            frames_processed=sum(s.frames_processed for s in stats),
            inference_frames=sum(s.inference_frames for s in stats),
            extrapolation_frames=sum(s.extrapolation_frames for s in stats),
            inference_batches=len(self._batch_sizes),
            batch_sizes=list(self._batch_sizes),
            stream_energy=stream_energy,
            shared_energy=shared_energy,
            queueing=queueing,
            workers=self.workers,
            transport=self.transport_mode,
        )

    # ------------------------------------------------------------------
    # Convenience: whole sequences in, results out
    # ------------------------------------------------------------------
    def run_streams(
        self, sequences: Sequence["VideoSequence"]
    ) -> Tuple[Dict[str, SequenceResult], MultiplexerReport]:
        """Feed one stream per sequence, drain, and return (results, report)."""
        for sequence in sequences:
            stream_id = self.add_stream(sequence)
            self.feed_sequence(stream_id, sequence)
        return self.finish(), self.report()
