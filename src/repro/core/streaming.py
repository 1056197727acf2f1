"""Multi-stream serving: N concurrent camera sessions over one pipeline.

Always-on vision SoCs serve several cameras at once (Starfish, MobiSys'15
makes the case for first-class concurrent-stream support).  The
:class:`StreamMultiplexer` multiplexes any number of
:class:`~repro.core.session.EuphratesSession` objects over one
:class:`~repro.core.pipeline.EuphratesPipeline` template:

* each stream opens from a name and a frame size, and has its own frame
  queue (frames are pushed as they "arrive", each with its ground truth),
  its own backend copy and its own window-controller clone, so streams
  never contaminate each other's algorithm state;
* scheduling is delegated to the shared execution core
  (:class:`~repro.core.executor.ShardedExecutor`): the fair-share
  scheduler runs shard-local, so the same scheduler serves the in-process
  single-shard path and ``workers=N`` worker processes (frames then cross
  the process boundary over the zero-copy shared-memory transport, never
  pickled);
* per-stream statistics live on each open stream
  (:class:`~repro.core.executor.StreamStats`, read via :meth:`stats_for`)
  and feed ``python -m repro.harness bench stream``; with an attached energy model
  (``soc`` + ``network``) each stream's frames are priced on the modeled
  SoC as they are processed — including amortised weight traffic across
  batched I-frames — and a :class:`~repro.soc.frame_cost.SharedSoCPool`
  settles the shared static-power terms exactly once across all streams;
* closing a stream frees its name and leaves only its report row.

Because sessions are fully isolated, a stream named after a sequence and
fed its frames and truth is bit-identical to running that sequence through
its own pipeline — scheduling order and worker count affect latency, never
output (property-tested in ``tests/test_streaming.py`` and
``tests/test_executor.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .executor import FrameRecord, ShardedExecutor, ShardSchedule, StreamStats
from .types import Detection, SequenceResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nn.models import NetworkSpec
    from ..soc.frame_cost import CostMeter, QueueingEstimate
    from ..soc.soc import EnergyBreakdown, VisionSoC
    from ..video.sequence import VideoSequence
    from .pipeline import EuphratesPipeline

__all__ = [
    "MultiplexerReport",
    "StreamMultiplexer",
]


@dataclass
class MultiplexerReport:
    """Aggregate statistics of one multiplexer drain."""

    streams: List[StreamStats]
    wall_s: float
    frames_processed: int
    inference_frames: int
    extrapolation_frames: int
    #: I-frame batches the scheduler dispatched, the frames they held and
    #: the largest one.
    inference_batches: int
    batched_frames: int = 0
    max_batch_size: int = 0
    #: Modeled SoC energy per stream (present when the multiplexer was
    #: given an energy model; keyed by stream id).  Each breakdown prices
    #: that camera's frames on the modeled SoC — I-frames dispatched in a
    #: batch of k amortise the NNX weight traffic over k streams.  A reused
    #: name maps to its latest stream; the aggregates cover every stream.
    stream_energy: Dict[str, "EnergyBreakdown"] = field(default_factory=dict)
    #: Exact shared-SoC aggregate: static power (NNX idle, DRAM background,
    #: MC idle) settled once across all streams instead of once per stream.
    #: ``None`` when no energy model is attached.
    shared_energy: "EnergyBreakdown | None" = None
    #: M/D/1 queueing view of the shared backend serving every stream.
    queueing: "QueueingEstimate | None" = None
    #: Per-stream-sum energy over every row (see the aggregates below).
    aggregate_energy_upper_bound_j: float = 0.0
    #: Execution configuration the run used (for benchmark provenance).
    workers: int = 1
    transport: str = "inproc"

    @property
    def aggregate_fps(self) -> float:
        return self.frames_processed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        if not self.inference_batches:
            return 0.0
        return self.batched_frames / self.inference_batches

    # -- energy aggregates (no energy model => zeros) -------------------
    #
    # Each stream's breakdown prices that camera as if it owned the whole
    # modeled SoC.  Summing them therefore counts per-SoC *static* power
    # (NNX idle, DRAM background, MC idle) once per stream — the historical
    # upper bound, still available as ``aggregate_energy_upper_bound_j``.
    # ``shared_energy`` settles those terms exactly once on the shared SoC
    # (dynamic terms, including cross-stream weight-batch amortisation,
    # are identical in both), so the aggregates below report the exact
    # figure: always <= the upper bound, equal for a single stream.
    @property
    def aggregate_energy_j(self) -> float:
        """Total modeled energy: the exact shared-SoC figure."""
        if self.shared_energy is None:
            return 0.0
        return self.shared_energy.total_energy_j

    @property
    def aggregate_energy_per_frame_j(self) -> float:
        if self.shared_energy is None:
            return 0.0
        return self.shared_energy.energy_per_frame_j

    @property
    def aggregate_power_w(self) -> float:
        """Aggregate power: streams run concurrently in model time, so the
        denominator is the longest per-stream wall clock, not the sum."""
        if self.shared_energy is None or self.shared_energy.wall_time_s <= 0:
            return 0.0
        return self.shared_energy.total_energy_j / self.shared_energy.wall_time_s


class StreamMultiplexer:
    """Scheduler frontend for N concurrent Euphrates camera streams.

    ``e_frame_burst`` bounds how many consecutive E-frames one stream may
    process per scheduling round (fairness knob: a stream with a deep queue
    of cheap frames cannot starve the others).  ``max_inference_batch``
    bounds how many I-frames the scheduler groups into one inference batch.
    Scheduling order affects latency and energy attribution, never
    outputs: sessions are fully isolated, so per-stream results are
    bit-identical to dedicated sessions.

    ``workers`` shards the streams over that many worker processes, each
    owning its sessions end-to-end (the scheduler runs shard-local and
    frames cross over the shared-memory ``transport``); the default of
    1 keeps everything in-process.  Worker count never changes outputs.
    ``isolate_failures`` goes to the executor, which decides whether a
    failing stream raises or is recorded in :attr:`stream_failures` (see
    :class:`~repro.core.executor.ShardedExecutor`).

    Passing an energy model (``soc`` + ``network``) attaches one
    :class:`~repro.soc.frame_cost.CostMeter` per stream: every processed
    frame's telemetry is priced as it happens, with batched I-frames
    amortising the weight DRAM traffic over the batch.  The meters hang
    off a :class:`~repro.soc.frame_cost.SharedSoCPool`, so :meth:`report`
    carries both per-stream breakdowns and the exact shared-static-power
    aggregate (plus an M/D/1 queueing estimate).  Every meter prices on
    the one modeled SoC.  Metering is observe-only.
    """

    def __init__(
        self,
        pipeline: "EuphratesPipeline",
        *,
        e_frame_burst: int = 4,
        max_inference_batch: int = 4,
        soc: "VisionSoC | None" = None,
        network: "NetworkSpec | None" = None,
        extrapolation_on_cpu: bool = False,
        workers: int = 1,
        transport: str = "auto",
        isolate_failures: bool = False,
    ) -> None:
        schedule = ShardSchedule(
            e_frame_burst=e_frame_burst, max_inference_batch=max_inference_batch
        )
        if (soc is None) != (network is None):
            raise ValueError("energy metering needs both soc and network")
        self.pipeline = pipeline
        #: Observer invoked with every absorbed :class:`FrameRecord` (the
        #: hook the serving layer's ingest core sets).  Observe-only.
        self.on_record: "Callable[[FrameRecord], None] | None" = None
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
        #: open stream id -> its SoC cost meter (None without an energy model).
        self._open: Dict[str, "CostMeter | None"] = {}
        #: report()'s rows: (stats, meter) of every stream opened, in order.
        self._rows: List[Tuple[StreamStats, "CostMeter | None"]] = []
        self._inference_batches = 0
        self._batched_frames = 0
        self._max_batch_size = 0
        #: shard -> id of its last counted I-frame batch.  Batch ids are
        #: unique per shard and a batch's records arrive together, so one id
        #: per shard is enough to count each batch once.
        self._last_batch_ids: Dict[str, int] = {}
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
    def add_stream(self, name: str, *, width: int, height: int) -> None:
        """Register a stream of ``width`` x ``height`` frames as ``name``.

        ``name`` is the stream id and names its session: the simulated
        backends seed their noise with it, so a stream named after a
        sequence and fed its frames and truth reproduces
        ``pipeline.run(sequence)``.  A name that is open raises
        :class:`ValueError`.
        """
        self._executor.open_stream(name, name=name, width=width, height=height)
        meter = None
        if self._pool is not None:
            meter = self._pool.open_meter(
                self._network,
                extrapolation_on_cpu=self._extrapolation_on_cpu,
                label=name,
            )
        self._open[name] = meter
        self._rows.append((self._executor.stats_for(name), meter))

    def stats_for(self, stream_id: str) -> StreamStats:
        """The open stream's stats (:class:`KeyError` once it closed)."""
        return self._executor.stats_for(stream_id)

    def pending_for(self, stream_id: str) -> int:
        """Frames of ``stream_id`` submitted but not yet processed."""
        return self._executor.pending_for(stream_id)

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
        self._executor.submit(
            stream_id,
            frame,
            truth=truth,
            force_inference=force_inference,
            defer_inference=defer_inference,
            degradation=degradation,
        )
        stats = self._executor.stats_for(stream_id)
        stats.max_queue_depth = max(
            stats.max_queue_depth, self._executor.pending_for(stream_id)
        )

    @property
    def pending_frames(self) -> int:
        return self._executor.pending_frames

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _absorb(self, records: List[FrameRecord]) -> int:
        for record in records:
            if (
                record.batch_id >= 0
                and self._last_batch_ids.get(record.shard) != record.batch_id
            ):
                self._last_batch_ids[record.shard] = record.batch_id
                self._inference_batches += 1
                self._batched_frames += record.batch_size
                self._max_batch_size = max(self._max_batch_size, record.batch_size)
            meter = self._open[record.key]
            if meter is not None and record.telemetry is not None:
                # Price what actually happened, as it happens.
                meter.record(record.telemetry, batch_size=record.batch_size)
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
        """stream id -> reason, for every failed stream still open."""
        return self._executor.stream_failures

    def finish_stream(self, stream_id: str) -> SequenceResult:
        """Close one stream (its queue already drained) and return its result.

        The serving layer's per-connection teardown: other streams keep
        running and the multiplexer stays open for new ones.  The result
        is handed over, not kept; the stream's stats and meter stay for
        :meth:`report`.  Raises
        :class:`~repro.core.executor.StreamFailedError` if the stream failed.
        """
        try:
            result, _stats = self._executor.finish_stream(stream_id)
        finally:
            # Price the stream's last records, and other streams' that
            # surfaced while its shard caught up, before it leaves the table.
            self._absorb(self._executor.pump())
            self._open.pop(stream_id, None)
        return result

    def finish(self) -> Dict[str, SequenceResult]:
        """Drain every queue, close every open session, return their results.

        Streams closed earlier by :meth:`finish_stream` are not in the
        result.  Also releases the execution resources (worker processes
        and shared-memory segments when ``workers > 1``), so a finished
        multiplexer cannot accept new streams.  Streams lost to a failure
        are skipped (see :attr:`stream_failures` for the reasons); without
        ``isolate_failures`` the drain raises for a failure first.
        """
        self.drain()
        failures = self._executor.stream_failures
        results: Dict[str, SequenceResult] = {}
        for name in self._open:
            if name not in failures:
                results[name], _stats = self._executor.finish_stream(name)
        # Late records can surface while worker shards wind down.
        self._absorb(self._executor.pump())
        self._open.clear()
        self._executor.close()
        return results

    def close(self) -> None:
        """Release worker processes and shared-memory segments."""
        self._executor.close()

    def report(self) -> MultiplexerReport:
        """Aggregate statistics so far, one row per stream ever opened."""
        stats = [row_stats for row_stats, _meter in self._rows]
        priced = [
            (row_stats.name, meter.breakdown())
            for row_stats, meter in self._rows
            if meter is not None and meter.frames
        ]
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
            inference_batches=self._inference_batches,
            batched_frames=self._batched_frames,
            max_batch_size=self._max_batch_size,
            stream_energy=dict(priced),
            shared_energy=shared_energy,
            queueing=queueing,
            aggregate_energy_upper_bound_j=sum(b.total_energy_j for _, b in priced),
            workers=self.workers,
            transport=self.transport_mode,
        )

    # ------------------------------------------------------------------
    # Convenience: whole sequences in, results out
    # ------------------------------------------------------------------
    def run_streams(
        self, sequences: Sequence["VideoSequence"]
    ) -> Tuple[Dict[str, SequenceResult], MultiplexerReport]:
        """Feed one stream per sequence, drain, and return (results, report).

        Each stream is named after its sequence, and each frame goes in
        with its ground truth.
        """
        for sequence in sequences:
            self.add_stream(sequence.name, width=sequence.width, height=sequence.height)
            for index, frame in sequence.iter_frames():
                self.submit(sequence.name, frame, truth=sequence.truth_detections(index))
        return self.finish(), self.report()
