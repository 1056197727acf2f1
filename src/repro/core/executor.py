"""Sharded execution core: one scheduling layer under sweeps and serving.

* :class:`StreamShard` is the scheduling core and the in-process shard:
  the two-phase (E-burst / batched-I) fair-share scheduler over the
  sessions it owns end-to-end.  With ``workers <= 1`` the executor drives
  one directly; with ``workers = N`` every worker process drives its own
  through the same calls (:class:`_ProcessShard` forwards them over a
  pipe, and only small picklable control messages cross it).  One worker
  and many thus share one open, submit, finish, drain and failure path.
* :class:`ShardedExecutor` places streams onto shards, keeps the
  table of open streams, and is the one place that decides what a
  stream failure does.  A shard always contains a failing session to its
  own stream and hands back every record of the round; the executor
  folds those records, then raises :class:`StreamFailedError` (batch
  runs) or records the failure (serving, ``isolate_failures=True``).
* :class:`SharedMemoryTransport` moves uint8 frames between processes
  zero-copy over ``multiprocessing.shared_memory`` segments.  Frames are
  never pickled: the producer writes pixels into a free slot and ships a
  tiny :class:`FrameRef`; the consumer maps the slot as a read-only
  ndarray view.  Only the producer writes a slot: the shard frontend
  hands it back once the frame's record arrives.  Slots are reused under
  generation counters so a stale reference can never silently read
  recycled pixels.

A stream opens from a name, a width and a height, and every caller
hands each frame its ground truth.  Sessions are fully isolated (own
backend copy, own controller clone, own ISP), so a stream named after a
sequence and fed its truth is bit-identical to ``EuphratesPipeline.run``
on it — property tested in ``tests/test_executor.py``.
"""

from __future__ import annotations

import pickle
import signal
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass, field
from multiprocessing import get_all_start_methods, get_context, shared_memory
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .profiler import stage_seconds
from .types import Detection, FrameKind, FrameTelemetry, SequenceResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..video.sequence import VideoSequence
    from .pipeline import EuphratesPipeline


#: Frame transports: ``auto`` picks shared memory when worker processes are
#: in play and the in-process transport otherwise; ``shm`` / ``inproc``
#: force one.
TRANSPORTS = ("auto", "shm", "inproc")

#: A slot's header: its 8-byte little-endian generation counter.
_SLOT_HEADER_BYTES = 8
_SLOTS_PER_SEGMENT = 16


@dataclass(frozen=True)
class ShardSchedule:
    """Scheduler knobs a shard applies to the streams it owns."""

    e_frame_burst: int = 4
    max_inference_batch: int = 4
    #: Retain per-frame telemetry and reattach it to the finished
    #: :class:`SequenceResult` (the batch ``run_dataset`` contract); the
    #: multiplexer drains telemetry into its cost meters instead.
    keep_telemetry: bool = False

    def __post_init__(self) -> None:
        if self.e_frame_burst < 1:
            raise ValueError("e_frame_burst must be >= 1")
        if self.max_inference_batch < 1:
            raise ValueError("max_inference_batch must be >= 1")


@dataclass(frozen=True)
class FrameRef:
    """Zero-copy handle to one frame sitting in a shared-memory slot."""

    segment: str
    slot: int
    generation: int
    shape: Tuple[int, ...]
    dtype: str
    data_offset: int
    header_offset: int


@dataclass(frozen=True)
class FrameRecord:
    """What a shard reports back for every processed frame.

    ``batch_id`` groups the I-frames of one dispatched inference batch
    (unique per shard, ``-1`` for E-frames) so the client can reconstruct
    batch sizes without sharing scheduler state.
    """

    shard: str
    key: str
    frame_index: int
    kind: FrameKind
    batch_size: int
    batch_id: int
    busy_s: float
    wait_s: float
    telemetry: Optional[FrameTelemetry]


#: :class:`StreamStats` counters the serving layers increment, reported
#: under ``faults`` by :meth:`StreamStats.as_dict`.
_FAULT_KEYS = (
    "duplicates",
    "late_drops",
    "reordered",
    "gaps",
    "overload_drops",
    "degraded_submits",
    "frame_errors",
    "acks_shed",
)


@dataclass
class StreamStats:
    """The one per-stream stats record.

    The executor counts submits and folds every :class:`FrameRecord`; the
    multiplexer tracks queue depth; the ingest core and the server count
    their faults on the same object.  :meth:`as_dict` is the one shape
    every report (STATS, BYE_OK, ``bench stream`` rows) is built from.
    """

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
    #: (keys from :data:`repro.core.profiler.STAGE_NAMES`).
    stage_s: Dict[str, float] = field(default_factory=dict)
    #: Reorder-window faults: dropped repeats, arrivals behind the
    #: delivery point, out-of-order arrivals, and sealed gaps (overload
    #: drops seal one too).
    duplicates: int = 0
    late_drops: int = 0
    reordered: int = 0
    gaps: int = 0
    #: Ready-queue overload: frames shed (``drop-oldest``) and frames
    #: submitted with inference deferred (``degrade``).
    overload_drops: int = 0
    degraded_submits: int = 0
    #: FRAME messages refused (dimensions differ from the HELLO).
    frame_errors: int = 0
    #: RESULT acks shed on a full connection outbox.
    acks_shed: int = 0

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

    def fold(self, record: FrameRecord) -> None:
        """Account one processed frame."""
        self.frames_processed += 1
        if record.kind is FrameKind.INFERENCE:
            self.inference_frames += 1
        else:
            self.extrapolation_frames += 1
        self.busy_s += record.busy_s
        self.wait_s += record.wait_s
        if record.telemetry is not None:
            if record.telemetry.degradation:
                self.degraded_frames += 1
            for stage, seconds in stage_seconds(record.telemetry).items():
                self.stage_s[stage] = self.stage_s.get(stage, 0.0) + seconds

    def as_dict(self) -> Dict[str, object]:
        """Every counter, JSON-ready; the fault counters nest under ``faults``."""
        row = asdict(self)
        row["faults"] = {key: row.pop(key) for key in _FAULT_KEYS}
        return row


class ShardError(RuntimeError):
    """A worker shard failed; carries the worker-side traceback."""


class StreamFailedError(ShardError):
    """One stream failed (its worker crashed or its session raised).

    Raised by :meth:`ShardedExecutor.submit` and
    :meth:`ShardedExecutor.finish_stream` for a failed stream and, without
    failure isolation, by the :meth:`~ShardedExecutor.pump` or
    :meth:`~ShardedExecutor.drain` call that first sees the failure.
    Unlike a bare :class:`ShardError` this is scoped: every other stream,
    on the same shard too, keeps running.
    """

    def __init__(self, key: str, message: str) -> None:
        super().__init__(message)
        self.key = key


def _assert_frame_free(obj: object, _depth: int = 0) -> None:
    """Refuse to ship frame pixel arrays over a pickling pipe.

    Frames must travel through the shared-memory transport; everything the
    control pipe carries is small (refs, truth boxes, records).  The scan
    is shallow: it catches a raw frame slipped into a message.
    """
    if isinstance(obj, np.ndarray):
        raise TypeError(
            "refusing to pickle a numpy array across a shard boundary; "
            "frames must travel through the shared-memory transport"
        )
    if _depth >= 3:
        return
    if isinstance(obj, (list, tuple)):
        for item in obj:
            _assert_frame_free(item, _depth + 1)
    elif isinstance(obj, dict):
        for item in obj.values():
            _assert_frame_free(item, _depth + 1)


# ----------------------------------------------------------------------
# Frame transport
# ----------------------------------------------------------------------
class InProcessTransport:
    """Trivial transport for the single-shard path: copy, no sharing.

    The copy mirrors the historical multiplexer contract — live capture
    loops reuse one buffer per capture, which would otherwise silently
    rewrite every frame still sitting in a queue.
    """

    mode = "inproc"

    def __init__(self) -> None:
        self.frames_sent = 0

    def send(self, frame: np.ndarray) -> np.ndarray:
        self.frames_sent += 1
        return np.array(frame, copy=True)

    def close(self) -> None:
        pass


class _ShmSegment:
    """Producer-side view of one shared-memory segment."""

    def __init__(self, shm: shared_memory.SharedMemory, slot_bytes: int) -> None:
        self.shm = shm
        self.slot_bytes = slot_bytes
        self.generations = [0] * _SLOTS_PER_SEGMENT

    def header_offset(self, slot: int) -> int:
        return slot * _SLOT_HEADER_BYTES

    def data_offset(self, slot: int) -> int:
        return _SLOTS_PER_SEGMENT * _SLOT_HEADER_BYTES + slot * self.slot_bytes


class SharedMemoryTransport:
    """Frame transport over ``multiprocessing.shared_memory`` segments.

    Segments are allocated per frame-size class, 16 slots each.  A slot is
    an 8-byte little-endian generation counter plus the pixel payload, and
    only this producer writes one.  :meth:`send` pops a free slot of the
    frame's size class, bumps its generation and writes the pixels; the
    consumer maps the payload read-only and checks the generation against
    its :class:`FrameRef`; :meth:`release` returns the slot to its free
    list once the frame has been consumed (the shard frontend calls it
    when the frame's record arrives).  A size class with no free slot
    grows a new segment, so producers never block and never overwrite
    live frames.
    """

    mode = "shm"

    def __init__(self) -> None:
        self._segments: Dict[str, _ShmSegment] = {}
        #: Frame bytes -> free (segment, slot) pairs of that size class.
        self._free: Dict[int, List[Tuple[_ShmSegment, int]]] = {}
        #: (segment name, slot) -> generation of each frame sent and not
        #: yet released.
        self._held: Dict[Tuple[str, int], int] = {}
        self.frames_sent = 0
        self.segments_allocated = 0

    def _allocate_segment(self, slot_bytes: int) -> List[Tuple[_ShmSegment, int]]:
        shm = _create_segment_memory(_SLOTS_PER_SEGMENT * (_SLOT_HEADER_BYTES + slot_bytes))
        segment = _ShmSegment(shm, slot_bytes)
        self._segments[shm.name] = segment
        self.segments_allocated += 1
        free = self._free.setdefault(slot_bytes, [])
        # Reversed, so a fresh segment hands out slot 0 first.
        free.extend((segment, slot) for slot in reversed(range(_SLOTS_PER_SEGMENT)))
        return free

    def send(self, frame: np.ndarray) -> FrameRef:
        """Write ``frame`` into a free slot and return its reference."""
        array = np.ascontiguousarray(frame)
        if array.nbytes == 0:
            raise ValueError("cannot ship an empty frame")
        free = self._free.get(array.nbytes) or self._allocate_segment(array.nbytes)
        segment, slot = free.pop()
        generation = segment.generations[slot] + 1
        segment.generations[slot] = generation
        header = segment.header_offset(slot)
        data = segment.data_offset(slot)
        buf = segment.shm.buf
        buf[header : header + _SLOT_HEADER_BYTES] = generation.to_bytes(8, "little")
        buf[data : data + array.nbytes] = array.data.cast("B")
        self._held[(segment.shm.name, slot)] = generation
        self.frames_sent += 1
        return FrameRef(
            segment=segment.shm.name,
            slot=slot,
            generation=generation,
            shape=tuple(array.shape),
            dtype=str(array.dtype),
            data_offset=data,
            header_offset=header,
        )

    @property
    def slots_in_flight(self) -> int:
        return len(self._held)

    def release(self, ref: FrameRef) -> None:
        """Return ``ref``'s slot to its free list.

        A ref that is not in flight (released before, or sent before the
        slot was recycled) is ignored.
        """
        key = (ref.segment, ref.slot)
        if self._held.get(key) != ref.generation:
            return
        del self._held[key]
        segment = self._segments[ref.segment]
        self._free[segment.slot_bytes].append((segment, ref.slot))

    def close(self) -> None:
        for segment in self._segments.values():
            segment.shm.close()
            _unlink_segment_memory(segment.shm)
        self._segments.clear()
        self._free.clear()
        self._held.clear()


def _shm_supports_track() -> bool:
    try:
        import inspect

        signature = inspect.signature(shared_memory.SharedMemory.__init__)
        return "track" in signature.parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic interpreters
        return False


#: Whether SharedMemory has the ``track`` parameter (Python 3.13+).
_SHM_HAS_TRACK = _shm_supports_track()


def _create_segment_memory(size: int) -> shared_memory.SharedMemory:
    """Create a segment the transport owns manually (no tracker autoclean).

    ``resource_tracker`` bookkeeping must stay balanced across the producer
    and fork-children (they share one tracker process), or the tracker's
    cache underflows and it logs KeyErrors.  So only the producer talks
    to the tracker: it deregisters right after create and takes explicit
    responsibility for unlinking in :meth:`close` (which every executor
    teardown path calls), and consumers attach without registering (see
    :func:`_attach_segment`).  A hard crash before close leaks the
    segment to ``/dev/shm``, the price of deterministic bookkeeping.
    """
    if _SHM_HAS_TRACK:
        return shared_memory.SharedMemory(create=True, size=size, track=False)
    shm = shared_memory.SharedMemory(create=True, size=size)
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass
    return shm


def _unlink_segment_memory(shm: shared_memory.SharedMemory) -> None:
    """Unlink a manually-owned segment, keeping the tracker balanced.

    Pre-3.13 ``unlink()`` unconditionally deregisters, so the entry is
    re-registered first to cancel that out; with ``track=False`` (3.13+)
    ``unlink()`` leaves the tracker alone and no dance is needed.
    """
    if not _SHM_HAS_TRACK:
        try:  # pragma: no cover - depends on interpreter internals
            from multiprocessing import resource_tracker

            resource_tracker.register(shm._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:
            pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without telling the resource tracker.

    The producer owns (and unlinks) every segment and is the only process
    that talks to the tracker.  Python 3.13 grew ``track=False`` for
    exactly this.  Older versions register every attach, so registration
    is suppressed around the call (the shard worker is single-threaded).
    Registering and then unregistering instead races: fork-children share
    the producer's tracker, and two workers attaching one segment at once
    interleave their messages until the tracker logs ``KeyError``\\ s.
    """
    if _SHM_HAS_TRACK:
        return shared_memory.SharedMemory(name=name, track=False)
    from multiprocessing import resource_tracker

    register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


class SharedMemorySlotReader:
    """Consumer side of :class:`SharedMemoryTransport` (one per worker).

    It never writes: the producer alone fills a slot and decides when it
    is free again.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}

    def read(self, ref: FrameRef) -> np.ndarray:
        """Read-only zero-copy ndarray view of the referenced slot."""
        shm = self._segments.get(ref.segment)
        if shm is None:
            shm = _attach_segment(ref.segment)
            self._segments[ref.segment] = shm
        header = ref.header_offset
        generation = int.from_bytes(shm.buf[header : header + _SLOT_HEADER_BYTES], "little")
        if generation != ref.generation:
            raise RuntimeError(
                f"stale frame ref: segment {ref.segment} slot {ref.slot} holds "
                f"generation {generation}, ref expects generation {ref.generation}"
            )
        view = np.ndarray(
            ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf, offset=ref.data_offset
        )
        view.flags.writeable = False
        return view

    def close(self) -> None:
        for shm in self._segments.values():
            shm.close()
        self._segments.clear()


# ----------------------------------------------------------------------
# The scheduling core
# ----------------------------------------------------------------------
class _ShardStream:
    """One stream a shard owns: its session and frame queue."""

    def __init__(self, key: str, session) -> None:
        self.key = key
        self.session = session
        #: Queue of (payload, truth, force_inference, defer_inference,
        #: degradation_note, enqueue_time); the payload is a FrameRef in
        #: worker shards, an ndarray in-process.
        self.queue: Deque[
            Tuple[object, Optional[Sequence[Detection]], bool, bool, str, float]
        ] = deque()
        self.kept_telemetry: List[FrameTelemetry] = []

    def head_kind(self) -> Optional[FrameKind]:
        if not self.queue:
            return None
        _, _, force, defer, _, _ = self.queue[0]
        if force:
            return FrameKind.INFERENCE
        return self.session.next_frame_kind(assume_defer=defer)


class StreamShard:
    """Schedules N sessions it owns end-to-end; the one scheduling core.

    This is the two-phase fair-share pump that used to live inside the
    multiplexer.  Each round rotates the stream order by one, then:

    1. **E-phase** — walk the streams, letting each process up to
       ``e_frame_burst`` queued frames as long as the session predicts
       they are cheap E-frames.
    2. **I-phase** — gather the streams whose next frame needs full
       inference and dispatch up to ``max_inference_batch`` of them
       back-to-back as one batch.

    Mis-predictions are benign: the authoritative I/E decision is made
    inside ``session.submit`` exactly as in the batch pipeline.  The
    executor drives one instance in-process (``workers <= 1``) and every
    worker process drives its own through the same calls
    (``workers > 1``), which is what makes sharded and serial execution
    bit-identical by construction.

    A session that raises fails only its own stream: its frame and the
    rest of its queue are discarded, the traceback is kept in
    :attr:`stream_failures`, and the call still returns the record of
    every other frame it processed.  Whether the
    failure raises is the executor's decision.
    """

    #: Shard-level failure reason.  An in-process shard cannot fail apart
    #: from its caller, so this stays ``None``; a worker frontend sets it
    #: when its process dies.
    failure: Optional[str] = None

    def __init__(
        self,
        pipeline: "EuphratesPipeline",
        schedule: ShardSchedule,
        *,
        name: str = "shard0",
        reader: Optional[SharedMemorySlotReader] = None,
    ) -> None:
        self.pipeline = pipeline
        self.schedule = schedule
        self.name = name
        self._reader = reader
        #: key -> traceback text for every failed stream not yet finished.
        self.stream_failures: Dict[str, str] = {}
        self._new_failures: List[Tuple[str, str]] = []
        self._streams: Dict[str, _ShardStream] = {}
        self._rr_offset = 0
        self._batch_counter = 0

    # -- stream management ---------------------------------------------
    def open_stream(self, key: str, *, name: str, width: int, height: int) -> None:
        if key in self._streams:
            raise ValueError(f"stream '{key}' already exists")
        session = self.pipeline.open_session(width, height, name=name)
        self._streams[key] = _ShardStream(key, session)

    def stream(self, key: str) -> _ShardStream:
        try:
            return self._streams[key]
        except KeyError:
            raise KeyError(f"unknown stream '{key}'") from None

    def submit(
        self,
        key: str,
        payload: object,
        truth: Optional[Sequence[Detection]],
        force_inference: bool,
        defer_inference: bool = False,
        note: str = "",
    ) -> None:
        """Queue one frame.

        A frame for a failed stream is dropped: a worker can receive
        submits that raced the failure notice.
        """
        if key in self.stream_failures:
            return
        self.stream(key).queue.append(
            (payload, truth, force_inference, defer_inference, note, time.perf_counter())
        )

    def take_new_failures(self) -> List[Tuple[str, str]]:
        """Drain stream failures recorded since the last call."""
        taken = self._new_failures
        if taken:
            self._new_failures = []
        return taken

    def _fail_stream(self, stream: _ShardStream, tb: str) -> None:
        """Tear down one stream whose session raised."""
        del self._streams[stream.key]
        self.stream_failures[stream.key] = tb
        self._new_failures.append((stream.key, tb))
        stream.queue.clear()
        stream.session.finish()

    def pending(self) -> int:
        return sum(len(stream.queue) for stream in self._streams.values())

    def pending_for(self, key: str) -> int:
        if key in self.stream_failures:
            return 0
        return len(self.stream(key).queue)

    # -- scheduling ----------------------------------------------------
    def _process_head(
        self,
        stream: _ShardStream,
        batch_size: int,
        batch_id: int,
        records: List[FrameRecord],
    ) -> None:
        """Process the head frame; a session error fails only this stream."""
        payload, truth, force, defer, note, enqueued_at = stream.queue.popleft()
        # A slot stays the frame's until its record reaches the producer,
        # and the session never retains the caller's buffer past submit
        # (the ISP denoiser widens to float64 working copies).
        frame = self._reader.read(payload) if isinstance(payload, FrameRef) else payload
        start = time.perf_counter()
        try:
            result = stream.session.submit(
                frame,
                truth=truth,
                force_inference=force,
                defer_inference=defer,
                degradation=note,
            )
        except Exception:
            self._fail_stream(stream, traceback.format_exc())
            return
        elapsed = time.perf_counter() - start
        events = stream.session.take_telemetry()
        if self.schedule.keep_telemetry:
            stream.kept_telemetry.extend(events)
        records.append(
            FrameRecord(
                shard=self.name,
                key=stream.key,
                frame_index=result.frame_index,
                kind=result.kind,
                batch_size=batch_size,
                batch_id=batch_id,
                busy_s=elapsed,
                wait_s=max(0.0, start - enqueued_at),
                telemetry=events[-1] if events else None,
            )
        )

    def pump(self) -> List[FrameRecord]:
        """Run one scheduling round; return a record per processed frame."""
        records: List[FrameRecord] = []
        if not self.pending():
            return records
        schedule = self.schedule
        active = list(self._streams.values())
        # One rotation per round (shared by both phases), so the lead
        # position really cycles over every stream.
        offset = self._rr_offset % len(active)
        self._rr_offset += 1
        order = active[offset:] + active[:offset]

        for stream in order:
            burst = 0
            while (
                burst < schedule.e_frame_burst
                and stream.queue
                and stream.head_kind() is FrameKind.EXTRAPOLATION
            ):
                self._process_head(stream, 1, -1, records)
                burst += 1

        batch = [
            stream
            for stream in order
            if stream.queue and stream.head_kind() is FrameKind.INFERENCE
        ][: schedule.max_inference_batch]
        if batch:
            batch_id = self._batch_counter
            self._batch_counter += 1
            for stream in batch:
                self._process_head(stream, len(batch), batch_id, records)
        return records

    def _pump_while(self, condition) -> List[FrameRecord]:
        """Run scheduling rounds while ``condition()`` holds."""
        records: List[FrameRecord] = []
        while condition():
            before = self.pending()
            round_records = self.pump()
            if not round_records and self.pending() >= before:
                # Cannot happen with the two-phase pump (every head frame is
                # either E or I, and a failure empties its queue), but
                # guard against a livelocked scheduler.
                raise RuntimeError("scheduler made no progress with frames pending")
            records.extend(round_records)
        return records

    def drain(self) -> List[FrameRecord]:
        """Pump until every queue is empty."""
        return self._pump_while(self.pending)

    def throttle(self, limit: int) -> List[FrameRecord]:
        """Flow control: pump until fewer than ``limit`` frames are queued."""
        return self._pump_while(lambda: self.pending() >= limit)

    def finish_stream(self, key: str) -> Tuple[Optional[SequenceResult], List[FrameRecord]]:
        """Pump ``key``'s queue dry, then close the stream.

        Returns its result and the records of every round this took (other
        streams' frames included).  The result is ``None`` when the stream
        failed, before or during the call; the failure is then forgotten.
        """
        records = self._pump_while(lambda: self.pending_for(key))
        if self.stream_failures.pop(key, None) is not None:
            return None, records
        stream = self._streams.pop(key)
        result = stream.session.finish()
        if self.schedule.keep_telemetry:
            # The shard drained telemetry per frame; hand it back on the
            # result so sharded run_dataset matches serial run() outputs.
            result = SequenceResult(
                sequence_name=result.sequence_name,
                frames=result.frames,
                telemetry=stream.kept_telemetry,
            )
        return result, records

    def close(self) -> None:
        """Nothing to reclaim: the sessions live in this process."""


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
def _shard_worker_main(
    conn, pipeline_blob: bytes, schedule: ShardSchedule, shard_name: str
) -> None:
    """Entry point of one worker process: a :class:`StreamShard` on a pipe.

    Control protocol (all messages tuples, tag first):

    * main -> worker: ``("open", key, name, width, height)``, ``("frame",
      key, ref, truth, force, defer, note)``, ``("finish", key)``,
      ``("stop",)``.
    * worker -> main: ``("opened", key, error)``, ``("records", [FrameRecord],
      [(key, traceback)])``, ``("finished", key, result)``, ``("error",
      shard, traceback)``.

    While frames are queued the worker absorbs whatever control messages
    have arrived, then runs one scheduling round and sends its records and
    the streams it failed.  A failed open answers with its traceback
    (``error``, else ``None``); ``result`` is ``None`` for a failed stream.
    Any other exception ends the worker with an ``error`` message.

    The worker ignores SIGINT.  Ctrl-C reaches the whole process group,
    and the main process drains its workers and then stops them through
    the pipe, so a worker interrupted on its own would lose its queued
    frames.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    reader = SharedMemorySlotReader()
    try:
        shard = StreamShard(
            pickle.loads(pipeline_blob), schedule, name=shard_name, reader=reader
        )

        def send_records(records: List[FrameRecord]) -> None:
            failures = shard.take_new_failures()
            if records or failures:
                conn.send(("records", records, failures))

        while True:
            if shard.pending() and not conn.poll(0):
                send_records(shard.pump())
                continue
            try:
                message = conn.recv()
            except EOFError:
                break
            tag = message[0]
            if tag == "frame":
                shard.submit(*message[1:])
            elif tag == "open":
                _, key, name, width, height = message
                try:
                    shard.open_stream(key, name=name, width=width, height=height)
                except Exception:
                    conn.send(("opened", key, traceback.format_exc()))
                else:
                    conn.send(("opened", key, None))
            elif tag == "finish":
                result, records = shard.finish_stream(message[1])
                send_records(records)
                conn.send(("finished", message[1], result))
            elif tag == "stop":
                break
            else:
                raise ValueError(f"unknown message tag {tag!r}")
    except Exception:
        conn.send(("error", shard_name, traceback.format_exc()))
    finally:
        reader.close()
        conn.close()


class _ProcessShard:
    """Pipe frontend to one worker process driving its own StreamShard.

    Offers the :class:`StreamShard` calls the executor makes.  Records the
    worker sends are buffered until the next call that returns records.
    The frontend owns the shared-memory slots of the frames it sent: each
    goes back to the transport when the frame's record arrives, and all of
    a stream's go back when that stream or the whole worker fails, so the
    worker only ever reads them.
    """

    def __init__(
        self,
        index: int,
        ctx,
        pipeline_blob: bytes,
        schedule: ShardSchedule,
        transport: SharedMemoryTransport,
    ) -> None:
        self.name = f"shard{index}"
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, pipeline_blob, schedule, self.name),
            name=f"repro-{self.name}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._transport = transport
        self._records: List[FrameRecord] = []
        self._opened: Dict[str, Optional[str]] = {}
        self._finished: Dict[str, Optional[SequenceResult]] = {}
        #: key -> refs of the frames sent and not yet recorded, oldest first
        #: (a stream's records arrive in submit order); their count is the
        #: drain and flow-control condition.
        self._sent: Dict[str, Deque[FrameRef]] = {}
        #: (key, traceback) of the streams the worker failed, until taken.
        self._new_failures: List[Tuple[str, str]] = []
        #: Shard-level failure reason (dead worker, broken pipe, an error
        #: outside any session).  Once set, the executor scopes the loss to
        #: this shard's streams.
        self.failure: Optional[str] = None

    # -- failures -----------------------------------------------------
    def _lost(self, reason: str) -> ShardError:
        """Mark the worker lost and hand back every slot it held."""
        self.failure = self.failure or reason
        for sent in self._sent.values():
            for ref in sent:
                self._transport.release(ref)
        self._sent.clear()
        return ShardError(self.failure)

    def _dead(self, context: str = "") -> ShardError:
        detail = f" (exit code {self.process.exitcode})" if not self.process.is_alive() else ""
        reason = f"worker process for {self.name} died unexpectedly{detail}"
        if context:
            reason = f"{reason}: {context}"
        return self._lost(reason)

    # -- message plumbing ----------------------------------------------
    def _send(self, message) -> None:
        if self.failure is not None:
            raise ShardError(self.failure)
        _assert_frame_free(message)
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as error:
            raise self._dead(str(error)) from error

    def _absorb(self, message) -> None:
        tag = message[0]
        if tag == "records":
            _, records, failures = message
            for record in records:
                sent = self._sent.get(record.key)
                if sent:  # gone once the worker was lost
                    self._transport.release(sent.popleft())
            self._records.extend(records)
            self._new_failures.extend(failures)
            for key, _tb in failures:
                for ref in self._sent.pop(key, ()):
                    self._transport.release(ref)
        elif tag == "opened":
            self._opened[message[1]] = message[2]
        elif tag == "finished":
            self._finished[message[1]] = message[2]
        elif tag == "error":
            raise self._lost(f"worker for {self.name} failed:\n{message[2]}")
        else:  # pragma: no cover - protocol invariant
            raise ShardError(f"unknown worker message tag {tag!r}")

    def _pump_pipe(self) -> None:
        """Absorb everything the worker has sent without blocking."""
        try:
            while self.conn.poll(0):
                self._absorb(self.conn.recv())
        except (EOFError, OSError) as error:
            raise self._dead(str(error) or type(error).__name__) from error

    def _wait(self, predicate) -> None:
        while not predicate():
            try:
                if self.conn.poll(0.05):
                    self._absorb(self.conn.recv())
                    continue
            except (EOFError, OSError) as error:
                raise self._dead(str(error) or type(error).__name__) from error
            if not self.process.is_alive():
                # Drain whatever the dying worker managed to flush before
                # declaring it gone (the pipe may still buffer messages).
                try:
                    while self.conn.poll(0):
                        self._absorb(self.conn.recv())
                except (EOFError, OSError):
                    pass
                if predicate():
                    return
                raise self._dead()

    def _take_records(self) -> List[FrameRecord]:
        records, self._records = self._records, []
        return records

    # -- the StreamShard calls -----------------------------------------
    take_new_failures = StreamShard.take_new_failures

    def open_stream(self, key: str, *, name: str, width: int, height: int) -> None:
        self._send(("open", key, name, width, height))
        self._wait(lambda: key in self._opened)
        error = self._opened.pop(key)
        if error is not None:
            raise ShardError(f"stream '{key}' failed to open on {self.name}:\n{error}")
        self._sent[key] = deque()

    def submit(self, key, payload, truth, force, defer=False, note="") -> None:
        try:
            self._send(("frame", key, payload, truth, force, defer, note))
        except ShardError:
            self._transport.release(payload)  # it never reached the worker
            raise
        self._sent[key].append(payload)

    def pump(self) -> List[FrameRecord]:
        """Absorb the records sent so far (the worker pumps on its own)."""
        self._pump_pipe()
        return self._take_records()

    def drain(self) -> List[FrameRecord]:
        self._wait(lambda: not any(self._sent.values()))
        return self._take_records()

    def throttle(self, limit: int) -> List[FrameRecord]:
        self._wait(lambda: self.pending() < limit)
        return self._take_records()

    def finish_stream(self, key: str) -> Tuple[Optional[SequenceResult], List[FrameRecord]]:
        self._send(("finish", key))
        self._wait(lambda: key in self._finished)
        self._sent.pop(key, None)  # already gone if the stream failed
        return self._finished.pop(key), self._take_records()

    def pending_for(self, key: str) -> int:
        self._pump_pipe()
        return len(self._sent.get(key, ()))

    def pending(self) -> int:
        self._pump_pipe()
        return sum(len(sent) for sent in self._sent.values())

    def close(self) -> None:
        try:
            if self.failure is None and self.process.is_alive():
                self._send(("stop",))
            self.process.join(timeout=5.0)
        except (BrokenPipeError, OSError, ShardError):  # pragma: no cover - dying worker
            pass
        finally:
            if self.process.is_alive():  # pragma: no cover - stuck worker
                self.process.terminate()
                self.process.join(timeout=5.0)
            self.conn.close()


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
@dataclass
class _OpenStream:
    """The executor's entry for one open stream."""

    shard: object
    stats: StreamStats
    #: Why the stream failed (its session raised or its shard was lost).
    failure: Optional[str] = None


class ShardedExecutor:
    """Places streams onto shards; one execution layer for sweeps and serving.

    ``workers <= 1`` drives one in-process :class:`StreamShard` over the
    in-process transport.  ``workers = N`` forks N shard workers, each
    driving its own :class:`StreamShard` through the same calls; streams
    are placed by load, frames cross over the shared-memory transport,
    and only small control messages are ever pickled.

    Lifecycle: :meth:`open_stream` places a stream on a shard (the
    placement is deterministic in arrival order — worker count never
    changes outputs), :meth:`submit` hands it frames, :meth:`pump` /
    :meth:`drain` collect completed :class:`FrameRecord` batches, and
    :meth:`finish_stream` closes one stream and returns its
    :class:`~repro.core.types.SequenceResult` plus its :class:`StreamStats`.
    The executor keeps the table of open streams: it counts every
    submit and folds every record it hands out, and :meth:`stats_for`
    reads a stream's stats until it finishes, failed or not (its key is
    then free again).
    :meth:`run_sequences` wraps that cycle for batch sweeps; the serving
    front end (:class:`~repro.core.ingest.IngestCore` via
    :class:`~repro.core.streaming.StreamMultiplexer`) drives it
    incrementally.  Always :meth:`close` (or use as a context manager) so
    worker processes and shared-memory segments are reclaimed.

    This is the one place that decides what a stream failure does.  Every
    shard contains a failing session to its stream and hands back the
    round's other records, which are folded first.  Without
    ``isolate_failures`` the :meth:`pump` or :meth:`drain` call that first
    sees the failure then raises :class:`StreamFailedError` carrying the
    session traceback (:meth:`submit` and :meth:`finish_stream` raise it
    for their own stream), and a dead worker raises :class:`ShardError`.
    With ``isolate_failures=True`` both are recorded in
    :attr:`stream_failures` instead and every other stream keeps running —
    the serving path uses this so one bad camera cannot take down the
    fleet.
    """

    def __init__(
        self,
        pipeline: "EuphratesPipeline",
        *,
        workers: int = 1,
        transport: str = "auto",
        schedule: Optional[ShardSchedule] = None,
        isolate_failures: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport '{transport}' (expected one of {TRANSPORTS})"
            )
        self.schedule = schedule or ShardSchedule()
        self.pipeline = pipeline
        self.workers = workers
        if workers <= 1:
            # Graceful fallback: a single shard needs no process boundary,
            # whatever transport was asked for.
            self.transport_mode = "inproc"
        elif transport == "inproc":
            raise ValueError(
                "transport='inproc' cannot cross process boundaries; "
                "use workers=1 or transport='shm'"
            )
        else:
            self.transport_mode = "shm"

        self.isolate_failures = bool(isolate_failures)
        #: key -> entry of every open stream, in arrival order.
        self._streams: Dict[str, _OpenStream] = {}
        #: Folded records the next pump()/drain() hands out.
        self._records: List[FrameRecord] = []
        #: Failed streams no call has raised for yet (without isolation).
        self._unraised: List[str] = []
        self._closed = False

        if self.transport_mode == "inproc":
            self.transport = InProcessTransport()
            self._shards: List[object] = [StreamShard(pipeline, self.schedule)]
        else:
            self.transport = SharedMemoryTransport()
            methods = get_all_start_methods()
            ctx = get_context("fork" if "fork" in methods else "spawn")
            blob = pickle.dumps(pipeline)
            self._shards = [
                _ProcessShard(index, ctx, blob, self.schedule, self.transport)
                for index in range(self.workers)
            ]

    # -- stream management ---------------------------------------------
    def open_stream(self, key: str, *, name: str, width: int, height: int) -> None:
        """Open one stream on the live shard with the fewest open streams.

        The shard opens a session named ``name`` on ``width`` x ``height``
        frames; the name seeds the simulated backends, so a stream named
        after a sequence and fed its truth matches ``EuphratesPipeline.run``.
        A failed open raises here and leaves the shard serving.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        if key in self._streams:
            raise ValueError(f"stream '{key}' already exists")
        # Ties go to the lowest index; with every shard dead, one refuses.
        live = [s for s in self._shards if s.failure is None] or self._shards
        opened = [entry.shard for entry in self._streams.values()]
        shard = min(live, key=opened.count)
        shard.open_stream(key, name=name, width=width, height=height)
        self._streams[key] = _OpenStream(shard, StreamStats(name=key))

    def _entry(self, key: str) -> _OpenStream:
        try:
            return self._streams[key]
        except KeyError:
            raise KeyError(f"unknown stream '{key}'") from None

    def stats_for(self, key: str) -> StreamStats:
        """The open stream's stats (:meth:`finish_stream` hands them over)."""
        return self._entry(key).stats

    def shard_of(self, key: str):
        return self._entry(key).shard

    # -- failure scoping -------------------------------------------------
    @property
    def stream_failures(self) -> Dict[str, str]:
        """key -> reason for every failed stream not yet finished."""
        self._sync_failures()
        return {
            key: entry.failure
            for key, entry in self._streams.items()
            if entry.failure is not None
        }

    def _sync_failures(self) -> None:
        for shard in self._shards:
            for key, reason in shard.take_new_failures():
                # A stream can close first when its worker dies finishing it.
                entry = self._streams.get(key)
                if entry is not None and entry.failure is None:
                    entry.failure = f"stream '{key}' failed on {shard.name}:\n{reason}"
                    if not self.isolate_failures:
                        self._unraised.append(key)

    def _shard_failed(self, shard, error: ShardError) -> None:
        """Scope the loss of one shard to its streams (raise without isolation)."""
        shard.failure = shard.failure or str(error)
        for key, entry in self._streams.items():
            if entry.shard is shard and entry.failure is None:
                entry.failure = f"stream '{key}' lost: {error}"
        if not self.isolate_failures:
            raise error

    def _raise_failed(self, key: str, reason: str) -> None:
        if key in self._unraised:
            self._unraised.remove(key)
        raise StreamFailedError(key, reason)

    # -- frame ingress --------------------------------------------------
    def submit(
        self,
        key: str,
        frame: np.ndarray,
        *,
        truth: Optional[Sequence[Detection]] = None,
        force_inference: bool = False,
        defer_inference: bool = False,
        degradation: str = "",
    ) -> None:
        self._sync_failures()
        entry = self._entry(key)
        if entry.failure is not None:
            self._raise_failed(key, entry.failure)
        payload = self.transport.send(frame)
        try:
            entry.shard.submit(
                key, payload, truth, force_inference, defer_inference, degradation
            )
        except ShardError as error:
            self._shard_failed(entry.shard, error)
            self._raise_failed(key, entry.failure)
        entry.stats.frames_submitted += 1

    def pending_for(self, key: str) -> int:
        entry = self._entry(key)
        if entry.failure is not None:
            return 0
        try:
            return entry.shard.pending_for(key)
        except ShardError as error:
            self._shard_failed(entry.shard, error)
            return 0

    @property
    def pending_frames(self) -> int:
        total = 0
        for shard in self._shards:
            if shard.failure is not None:
                continue
            try:
                total += shard.pending()
            except ShardError as error:
                self._shard_failed(shard, error)
        return total

    # -- scheduling ------------------------------------------------------
    def _fold(self, records: List[FrameRecord]) -> None:
        for record in records:
            self._streams[record.key].stats.fold(record)
        self._records.extend(records)

    def _absorb(self, shard, call) -> None:
        """Make ``call(shard)`` on a live shard and fold the records it returns."""
        if shard.failure is not None:
            return
        try:
            self._fold(call(shard))
        except ShardError as error:
            self._shard_failed(shard, error)

    def _collect(self, call) -> List[FrameRecord]:
        for shard in self._shards:
            self._absorb(shard, call)
        self._sync_failures()
        if self._unraised:
            # The round's records stay folded and queued for the next call.
            key = self._unraised[0]
            self._raise_failed(key, self._streams[key].failure)
        records, self._records = self._records, []
        return records

    def pump(self) -> List[FrameRecord]:
        """Collect one round of progress from every shard.

        In-process this runs one scheduling round; with worker shards it
        absorbs whatever records have arrived (the workers pump on their
        own).
        """
        return self._collect(lambda shard: shard.pump())

    def drain(self) -> List[FrameRecord]:
        """Block until every queue on every live shard is empty."""
        return self._collect(lambda shard: shard.drain())

    def finish_stream(self, key: str) -> Tuple[SequenceResult, StreamStats]:
        """Close one stream and return its (result, stats).

        The stream's shard pumps it dry first.  The records of those
        rounds are folded now and handed out by the next :meth:`pump` /
        :meth:`drain` call, so clients tracking per-frame statistics never
        lose any.  A failed stream raises :class:`StreamFailedError` with
        the original traceback; other streams stay serviceable.
        """
        self._sync_failures()
        entry = self._entry(key)
        result = None
        if entry.shard.failure is None:
            try:
                result, records = entry.shard.finish_stream(key)
            except ShardError as error:
                self._shard_failed(entry.shard, error)
            else:
                self._fold(records)
                self._sync_failures()
        del self._streams[key]
        if result is None:
            self._raise_failed(key, entry.failure)
        return result, entry.stats

    # -- whole-dataset convenience --------------------------------------
    def run_sequences(
        self, sequences: Sequence["VideoSequence"], *, max_outstanding: int = 64
    ) -> List[Tuple[SequenceResult, StreamStats]]:
        """Run one stream per sequence to completion; results in order.

        Frames are interleaved round-robin across the sequences so every
        shard keeps all of its streams busy; ``max_outstanding`` bounds the
        frames in flight per shard (which also bounds shared-memory slots).
        """
        sequences = list(sequences)
        keys = [f"seq{index}" for index in range(len(sequences))]
        for key, sequence in zip(keys, sequences):
            self.open_stream(
                key, name=sequence.name, width=sequence.width, height=sequence.height
            )
        longest = max((s.num_frames for s in sequences), default=0)
        for frame_index in range(longest):
            for key, sequence in zip(keys, sequences):
                if frame_index >= sequence.num_frames:
                    continue
                self._absorb(
                    self.shard_of(key), lambda shard: shard.throttle(max_outstanding)
                )
                self.submit(
                    key,
                    sequence.frame(frame_index),
                    truth=sequence.truth_detections(frame_index),
                )
        self.drain()
        return [self.finish_stream(key) for key in keys]

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._streams.clear()
        for shard in self._shards:
            shard.close()
        self.transport.close()

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
