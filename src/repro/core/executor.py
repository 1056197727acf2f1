"""Sharded execution core: one scheduling layer under sweeps and serving.

Historically the repo had two disjoint parallel-execution paths:
``EuphratesPipeline.run_dataset(max_workers)`` pickled whole
``VideoSequence`` objects into a ``ProcessPoolExecutor`` while the
:class:`~repro.core.streaming.StreamMultiplexer` scheduled in-process
sessions single-threaded.  This module unifies them:

* :class:`StreamShard` is the scheduling core — the two-phase
  (E-burst / batched-I) fair-share and energy/deadline policies that used
  to live inside the multiplexer, operating on any number of sessions it
  owns end-to-end.
* :class:`ShardedExecutor` places streams onto shards.  With
  ``workers <= 1`` the single shard runs in-process (bit-identical to the
  pre-sharding code path, which keeps single-core CI and the oracle path
  unchanged).  With ``workers = N`` it forks N worker processes, each
  owning its sessions end-to-end; only small picklable control messages
  cross the pipe.
* :class:`SharedMemoryTransport` moves uint8 frames between processes
  zero-copy over ``multiprocessing.shared_memory`` ring buffers.  Frames
  are never pickled: the producer writes pixels into a free slot and
  ships a tiny :class:`FrameRef`; the consumer maps the slot as an
  ndarray view.  Slots are reused under generation counters so a stale
  reference can never silently read recycled pixels.

Sessions are fully isolated (own backend copy, own controller clone, own
ISP), so sharded output is bit-identical to serial execution — property
tested in ``tests/test_executor.py`` for every task/policy combination.
"""

from __future__ import annotations

import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context, shared_memory
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .types import Detection, FrameKind, FrameTelemetry, SequenceResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..video.sequence import VideoSequence
    from .pipeline import EuphratesPipeline
    from .session import SessionStats


#: Scheduling policies: ``fair`` is the round-robin fair-share scheduler;
#: ``energy`` defers I-frames (within a deadline) to build full inference
#: batches, maximising NNX weight reuse, and serves the deepest queues first.
SCHEDULING_POLICIES = ("fair", "energy")

#: Frame transports: ``auto`` picks shared memory when worker processes are
#: in play and the in-process transport otherwise; ``shm`` / ``inproc``
#: force one.
TRANSPORTS = ("auto", "shm", "inproc")

_SLOT_HEADER_BYTES = 16
_SLOT_FREE = 0
_SLOT_FULL = 1


@dataclass(frozen=True)
class ExecutionSpec:
    """How a pipeline's dataset/stream work is executed (not *what* runs).

    Execution knobs never change outputs — sharded results are bit-identical
    to serial ones — which is why :meth:`PipelineSpec.cache_key` excludes
    them.
    """

    workers: int = 1
    transport: str = "auto"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport '{self.transport}' (expected one of {TRANSPORTS})"
            )


@dataclass(frozen=True)
class ShardSchedule:
    """Scheduling-policy knobs a shard applies to the streams it owns."""

    policy: str = "fair"
    e_frame_burst: int = 4
    max_inference_batch: int = 4
    deadline_frames: int = 8
    #: Retain per-frame telemetry and reattach it to the finished
    #: :class:`SequenceResult` (the batch ``run_dataset`` contract); the
    #: multiplexer drains telemetry into its cost meters instead.
    keep_telemetry: bool = False

    def __post_init__(self) -> None:
        if self.e_frame_burst < 1:
            raise ValueError("e_frame_burst must be >= 1")
        if self.max_inference_batch < 1:
            raise ValueError("max_inference_batch must be >= 1")
        if self.policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"unknown policy '{self.policy}' (expected one of {SCHEDULING_POLICIES})"
            )
        if self.deadline_frames < 1:
            raise ValueError("deadline_frames must be >= 1")


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


class ShardError(RuntimeError):
    """A worker shard failed; carries the worker-side traceback."""


class StreamFailedError(ShardError):
    """One stream failed (its worker crashed or its session raised).

    Raised by :meth:`ShardedExecutor.finish_stream` /
    :meth:`ShardedExecutor.submit` for a stream that previously failed.
    Unlike a bare :class:`ShardError` this is scoped: every other stream —
    including streams on the same shard when failure isolation is on —
    keeps running.
    """

    def __init__(self, key: str, message: str) -> None:
        super().__init__(message)
        self.key = key


def _assert_frame_free(obj: object, _depth: int = 0) -> None:
    """Refuse to ship frame pixel arrays over a pickling pipe.

    Frames must travel through the shared-memory transport; everything the
    control pipe carries is small (refs, truth boxes, records).  The scan
    is shallow on purpose — it catches a raw frame slipped into a message,
    not arrays legitimately embedded deep inside opaque objects such as a
    custom backend shipped at stream-open time.
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
    """Producer-side view of one shared-memory ring segment."""

    def __init__(self, shm: shared_memory.SharedMemory, slot_bytes: int, slots: int) -> None:
        self.shm = shm
        self.slot_bytes = slot_bytes
        self.slots = slots
        self.generations = [0] * slots

    def header_offset(self, slot: int) -> int:
        return slot * _SLOT_HEADER_BYTES

    def data_offset(self, slot: int) -> int:
        return self.slots * _SLOT_HEADER_BYTES + slot * self.slot_bytes

    def state(self, slot: int) -> int:
        return self.shm.buf[self.header_offset(slot) + 8]


class SharedMemoryTransport:
    """Ring-buffer frame transport over ``multiprocessing.shared_memory``.

    Segments are allocated per frame-size class, each holding a fixed
    number of slots.  A slot is a 16-byte header (8-byte little-endian
    generation counter + 1 state byte) plus the pixel payload.  The
    producer claims a FREE slot, bumps its generation, writes the pixels
    and marks it FULL; the consumer maps the payload zero-copy, validates
    the generation against its :class:`FrameRef`, and marks the slot FREE
    once the frame has been consumed.  When every slot of a size class is
    in flight a new segment is allocated on demand, so producers never
    block and never overwrite live frames.
    """

    mode = "shm"

    def __init__(self, slots_per_segment: int = 16) -> None:
        if slots_per_segment < 1:
            raise ValueError("slots_per_segment must be >= 1")
        self.slots_per_segment = slots_per_segment
        self._segments: Dict[str, _ShmSegment] = {}
        self._by_size: Dict[int, List[str]] = {}
        self.frames_sent = 0
        self.segments_allocated = 0

    def _allocate_segment(self, slot_bytes: int) -> _ShmSegment:
        slots = self.slots_per_segment
        size = slots * (_SLOT_HEADER_BYTES + slot_bytes)
        shm = _create_segment_memory(size)
        # A fresh mapping is zero-filled: every header reads generation 0,
        # state FREE.
        segment = _ShmSegment(shm, slot_bytes, slots)
        self._segments[shm.name] = segment
        self._by_size.setdefault(slot_bytes, []).append(shm.name)
        self.segments_allocated += 1
        return segment

    def _claim_slot(self, slot_bytes: int) -> Tuple[_ShmSegment, int]:
        for name in self._by_size.get(slot_bytes, ()):
            segment = self._segments[name]
            for slot in range(segment.slots):
                if segment.state(slot) == _SLOT_FREE:
                    return segment, slot
        return self._allocate_segment(slot_bytes), 0

    def send(self, frame: np.ndarray) -> FrameRef:
        """Write ``frame`` into a free slot and return its reference."""
        array = np.ascontiguousarray(frame)
        if array.nbytes == 0:
            raise ValueError("cannot ship an empty frame")
        segment, slot = self._claim_slot(array.nbytes)
        generation = segment.generations[slot] + 1
        segment.generations[slot] = generation
        header = segment.header_offset(slot)
        data = segment.data_offset(slot)
        buf = segment.shm.buf
        buf[header : header + 8] = generation.to_bytes(8, "little")
        buf[data : data + array.nbytes] = array.tobytes()
        buf[header + 8] = _SLOT_FULL
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
        return sum(
            1
            for segment in self._segments.values()
            for slot in range(segment.slots)
            if segment.state(slot) == _SLOT_FULL
        )

    def release(self, ref: FrameRef) -> None:
        """Producer-side slot release for a frame that never reached a shard.

        Consumers normally release slots through their
        :class:`SharedMemorySlotReader`; when a submit fails client-side
        (dead worker, failed stream) the producer hands the slot back
        itself so in-flight failures cannot leak ring capacity.  Stale
        refs (slot already recycled) are ignored.
        """
        segment = self._segments.get(ref.segment)
        if segment is None or segment.generations[ref.slot] != ref.generation:
            return
        segment.shm.buf[ref.header_offset + 8] = _SLOT_FREE

    def close(self) -> None:
        for segment in self._segments.values():
            segment.shm.close()
            _unlink_segment_memory(segment.shm)
        self._segments.clear()
        self._by_size.clear()


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
    and fork-children (they share one tracker process): if both the
    producer's unlink and a worker's attach-unregister touch the same
    entry, the tracker's cache underflows and it logs KeyErrors at
    shutdown.  So the producer deregisters right after create and takes
    explicit responsibility for unlinking in :meth:`close` (which every
    executor teardown path calls); a hard crash before close leaks the
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
    """Attach to an existing segment without re-registering ownership.

    The producer owns (and unlinks) every segment; a consumer attaching
    through the default constructor would get the segment re-registered
    with its own ``resource_tracker``, which then spuriously unlinks it —
    and warns — at interpreter shutdown.  Python 3.13 grew ``track=False``
    for exactly this; on older versions unregister by hand.
    """
    if _SHM_HAS_TRACK:
        return shared_memory.SharedMemory(name=name, track=False)
    shm = shared_memory.SharedMemory(name=name)
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass
    return shm


class SharedMemorySlotReader:
    """Consumer side of :class:`SharedMemoryTransport` (one per worker)."""

    def __init__(self) -> None:
        self._segments: Dict[str, shared_memory.SharedMemory] = {}

    def _attach(self, name: str) -> shared_memory.SharedMemory:
        shm = self._segments.get(name)
        if shm is None:
            shm = _attach_segment(name)
            self._segments[name] = shm
        return shm

    def _check(self, ref: FrameRef, shm: shared_memory.SharedMemory) -> None:
        header = ref.header_offset
        generation = int.from_bytes(shm.buf[header : header + 8], "little")
        state = shm.buf[header + 8]
        if generation != ref.generation or state != _SLOT_FULL:
            raise RuntimeError(
                f"stale frame ref: segment {ref.segment} slot {ref.slot} holds "
                f"generation {generation} (state {state}), ref expects "
                f"generation {ref.generation}"
            )

    def read(self, ref: FrameRef) -> np.ndarray:
        """Zero-copy ndarray view of the referenced slot."""
        shm = self._attach(ref.segment)
        self._check(ref, shm)
        return np.ndarray(
            ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf, offset=ref.data_offset
        )

    def release(self, ref: FrameRef) -> None:
        """Hand the slot back to the producer for reuse."""
        shm = self._attach(ref.segment)
        self._check(ref, shm)
        shm.buf[ref.header_offset + 8] = _SLOT_FREE

    def close(self) -> None:
        for shm in self._segments.values():
            shm.close()
        self._segments.clear()


# ----------------------------------------------------------------------
# The scheduling core
# ----------------------------------------------------------------------
class _ShardStream:
    """One stream a shard owns: session + frame queue + deferral state."""

    def __init__(self, key: str, session) -> None:
        self.key = key
        self.session = session
        #: Queue of (payload, truth, force_inference, defer_inference,
        #: degradation_note, enqueue_time); the payload is a FrameRef in
        #: worker shards, an ndarray in-process.
        self.queue: Deque[
            Tuple[object, Optional[Sequence[Detection]], bool, bool, str, float]
        ] = deque()
        #: Scheduling rounds this stream's head frame has sat as a deferred
        #: I-frame (energy policy's age-based deadline).
        self.i_head_rounds = 0
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

    This is the two-phase pump that used to live inside the multiplexer:

    1. **E-phase** — walk the streams in policy order (round-robin for
       ``fair``, deepest-backlog-first for ``energy``), letting each
       process up to ``e_frame_burst`` queued frames as long as the
       session predicts they are cheap E-frames.
    2. **I-phase** — gather the streams whose next frame needs full
       inference and dispatch up to ``max_inference_batch`` of them
       back-to-back as one batch.  The ``energy`` policy defers a partial
       batch — unless a gathered stream breaches its deadline (queue
       depth or rounds-deferred reaching ``deadline_frames``) or nothing
       else was processed this round.

    Mis-predictions are benign: the authoritative I/E decision is made
    inside ``session.submit`` exactly as in the batch pipeline.  The same
    instance runs in-process (single-shard executor, the multiplexer's
    serial path) and inside worker processes (``workers > 1``), which is
    what makes sharded and serial execution bit-identical by construction.
    """

    def __init__(
        self,
        pipeline: "EuphratesPipeline",
        schedule: ShardSchedule,
        *,
        name: str = "shard0",
        reader: Optional[SharedMemorySlotReader] = None,
        isolate_failures: bool = False,
    ) -> None:
        self.pipeline = pipeline
        self.schedule = schedule
        self.name = name
        self._reader = reader
        #: When set, a session exception fails only that stream — the queue
        #: is discarded (slots released), the failure recorded in
        #: :attr:`stream_failures`, and every other stream keeps running.
        #: Off by default: the batch paths want the historical semantics
        #: where the head frame is re-queued and the exception propagates
        #: (the caller may retry, e.g. resubmitting with first-frame truth).
        self.isolate_failures = isolate_failures
        #: key -> traceback text for every stream this shard has failed.
        self.stream_failures: Dict[str, str] = {}
        self._new_failures: List[Tuple[str, str]] = []
        self._streams: Dict[str, _ShardStream] = {}
        self._order: List[str] = []
        self._rr_offset = 0
        self._batch_counter = 0

    # -- stream management ---------------------------------------------
    def open_stream(self, key: str, **session_kwargs) -> None:
        if key in self._streams:
            raise ValueError(f"stream '{key}' already exists")
        session = self.pipeline.open_session(**session_kwargs)
        self._streams[key] = _ShardStream(key, session)
        self._order.append(key)

    def stream(self, key: str) -> _ShardStream:
        try:
            return self._streams[key]
        except KeyError:
            raise KeyError(f"unknown stream '{key}'") from None

    def enqueue(
        self,
        key: str,
        payload: object,
        truth: Optional[Sequence[Detection]],
        force_inference: bool,
        defer_inference: bool = False,
        note: str = "",
    ) -> None:
        self.stream(key).queue.append(
            (payload, truth, force_inference, defer_inference, note, time.perf_counter())
        )

    def take_new_failures(self) -> List[Tuple[str, str]]:
        """Drain stream failures recorded since the last call."""
        taken, self._new_failures = self._new_failures, []
        return taken

    def _fail_stream(self, key: str, tb: str) -> None:
        """Tear down one stream after an isolated failure."""
        stream = self._streams.pop(key, None)
        if stream is None:
            return
        self._order.remove(key)
        self.stream_failures[key] = tb
        self._new_failures.append((key, tb))
        for payload, *_ in stream.queue:
            if isinstance(payload, FrameRef) and self._reader is not None:
                try:
                    self._reader.release(payload)
                except Exception:  # pragma: no cover - slot already recycled
                    pass
        stream.queue.clear()
        try:
            stream.session.finish()
        except Exception:
            pass

    def pending(self) -> int:
        return sum(len(stream.queue) for stream in self._streams.values())

    def pending_for(self, key: str) -> int:
        return len(self.stream(key).queue)

    # -- scheduling ----------------------------------------------------
    def _process_head(
        self, stream: _ShardStream, batch_size: int, batch_id: int
    ) -> FrameRecord:
        payload, truth, force, defer, note, enqueued_at = stream.queue.popleft()
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
        except BaseException:
            # Put the frame back so the stream stays aligned with its queue
            # and the caller can retry (the session rolls itself back for
            # pre-ISP failures, e.g. missing first-frame truth).
            stream.queue.appendleft((payload, truth, force, defer, note, enqueued_at))
            raise
        elapsed = time.perf_counter() - start
        if isinstance(payload, FrameRef):
            # The session never retains the caller's buffer past submit
            # (the ISP denoiser widens to float64 working copies, the
            # oracle copies frame 0), so the slot can be recycled now.
            self._reader.release(payload)
        events = stream.session.take_telemetry()
        if self.schedule.keep_telemetry:
            stream.kept_telemetry.extend(events)
        return FrameRecord(
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

    def _deadline_breached(self, stream: _ShardStream) -> bool:
        return (
            len(stream.queue) >= self.schedule.deadline_frames
            or stream.i_head_rounds >= self.schedule.deadline_frames
        )

    def _process_safe(
        self, stream: _ShardStream, batch_size: int, batch_id: int,
        records: List[FrameRecord],
    ) -> bool:
        """Process one head frame, failing only its stream under isolation."""
        try:
            records.append(self._process_head(stream, batch_size, batch_id))
            return True
        except BaseException:
            if not self.isolate_failures:
                raise
            self._fail_stream(stream.key, traceback.format_exc())
            return False

    def pump(self) -> List[FrameRecord]:
        """Run one scheduling round; return a record per processed frame."""
        schedule = self.schedule
        records: List[FrameRecord] = []
        active = [self._streams[key] for key in self._order if key in self._streams]
        if schedule.policy == "energy":
            # Deadline pressure first: the deepest backlog is the stream
            # closest to missing its (frame-budget) deadline.
            order = sorted(active, key=lambda stream: -len(stream.queue))
        elif active:
            # One rotation per round (shared by both phases), so the lead
            # position really cycles over every stream.
            offset = self._rr_offset % len(active)
            self._rr_offset += 1
            order = active[offset:] + active[:offset]
        else:
            order = []

        for stream in order:
            burst = 0
            while (
                burst < schedule.e_frame_burst
                and stream.queue
                and stream.head_kind() is FrameKind.EXTRAPOLATION
            ):
                if not self._process_safe(stream, 1, -1, records):
                    break
                burst += 1

        batch = [
            stream
            for stream in order
            if stream.key in self._streams
            and stream.queue
            and stream.head_kind() is FrameKind.INFERENCE
        ]
        if batch and schedule.policy == "energy":
            for stream in batch:
                stream.i_head_rounds += 1
            dispatch = (
                len(batch) >= schedule.max_inference_batch
                or any(self._deadline_breached(stream) for stream in batch)
                or not records
            )
            if not dispatch:
                batch = []
            else:
                # Most-overdue heads board first (age, then queue depth):
                # the batch is about to be truncated, and the whole point
                # of the deadline is that an aged head cannot keep losing
                # its seat to deeper queues round after round.
                batch.sort(
                    key=lambda stream: (-stream.i_head_rounds, -len(stream.queue))
                )
        batch = batch[: schedule.max_inference_batch]
        if batch:
            batch_id = self._batch_counter
            self._batch_counter += 1
            for stream in batch:
                stream.i_head_rounds = 0
                self._process_safe(stream, len(batch), batch_id, records)
        return records

    def drain(self) -> List[FrameRecord]:
        """Pump until every queue is empty."""
        records: List[FrameRecord] = []
        while self.pending():
            before = self.pending()
            round_records = self.pump()
            if not round_records and self.pending() >= before:
                # Cannot happen with the two-phase pump (every head frame is
                # either E or I, and an isolated failure empties its queue),
                # but guard against a livelocked scheduler.
                raise RuntimeError("scheduler made no progress with frames pending")
            records.extend(round_records)
        return records

    def finish_stream(self, key: str) -> Tuple[SequenceResult, "SessionStats"]:
        stream = self.stream(key)
        if stream.queue:
            raise RuntimeError(
                f"stream '{key}' still has {len(stream.queue)} pending frames; "
                "drain before finishing"
            )
        result = stream.session.finish()
        if self.schedule.keep_telemetry:
            # The shard drained telemetry per frame; hand it back on the
            # result so sharded run_dataset matches serial run() outputs.
            result = SequenceResult(
                sequence_name=result.sequence_name,
                frames=result.frames,
                telemetry=list(stream.kept_telemetry),
            )
        stats = stream.session.stats
        del self._streams[key]
        self._order.remove(key)
        return result, stats


# ----------------------------------------------------------------------
# Worker process protocol
# ----------------------------------------------------------------------
def _shard_worker_main(
    conn,
    pipeline_blob: bytes,
    schedule: ShardSchedule,
    shard_name: str,
    isolate_failures: bool = False,
) -> None:
    """Entry point of one shard worker process.

    Control protocol (all messages tuples, tag first):

    * main -> worker: ``("open", key, kwargs)``, ``("frame", key, ref,
      truth, force, defer, note)``, ``("drain",)``, ``("finish", key)``,
      ``("stop",)``.
    * worker -> main: ``("opened", key)``, ``("records", [FrameRecord])``,
      ``("drained", shard)``, ``("finished", key, result, stats)``,
      ``("stream_error", key, traceback)``, ``("error", shard, traceback)``.

    With ``isolate_failures`` a session exception fails only its stream
    (reported as ``stream_error``; the worker keeps pumping the rest).
    Otherwise an error pauses the worker (no pumping) until the next
    message arrives, so a poisoned head frame cannot spam the pipe.
    """
    pipeline = pickle.loads(pipeline_blob)
    reader = SharedMemorySlotReader()
    core = StreamShard(
        pipeline,
        schedule,
        name=shard_name,
        reader=reader,
        isolate_failures=isolate_failures,
    )
    drain_requested = False
    paused = False

    def flush_failures() -> None:
        for key, tb in core.take_new_failures():
            conn.send(("stream_error", key, tb))

    def handle(message) -> str:
        nonlocal drain_requested
        tag = message[0]
        if tag == "stop":
            return "stop"
        if tag == "frame":
            _, key, payload, truth, force, defer, note = message
            if key in core.stream_failures:
                # The client raced a submit against this stream's failure
                # notice; drop the frame but hand its slot back.
                if isinstance(payload, FrameRef):
                    reader.release(payload)
                return "continue"
            core.enqueue(key, payload, truth, force, defer, note)
            return "continue"
        if tag == "drain":
            drain_requested = True
            return "continue"
        if tag == "open":
            _, key, kwargs = message
            try:
                core.open_stream(key, **kwargs)
            except Exception:
                conn.send(("error", shard_name, traceback.format_exc()))
                return "pause"
            conn.send(("opened", key))
            return "continue"
        if tag == "finish":
            _, key = message
            try:
                while (
                    key not in core.stream_failures and core.pending_for(key)
                ):
                    before = core.pending()
                    records = core.pump()
                    flush_failures()
                    if not records and core.pending() >= before:
                        raise RuntimeError(
                            "scheduler made no progress with frames pending"
                        )
                    if records:
                        conn.send(("records", records))
                if key in core.stream_failures:
                    conn.send(("stream_error", key, core.stream_failures[key]))
                    return "continue"
                result, stats = core.finish_stream(key)
            except Exception:
                conn.send(("error", shard_name, traceback.format_exc()))
                return "pause"
            conn.send(("finished", key, result, stats))
            return "continue"
        conn.send(("error", shard_name, f"unknown message tag {message[0]!r}"))
        return "pause"

    try:
        while True:
            if paused or not core.pending():
                if drain_requested and not core.pending():
                    conn.send(("drained", shard_name))
                    drain_requested = False
                    continue
                try:
                    message = conn.recv()
                except EOFError:
                    break
                paused = False
                action = handle(message)
                if action == "stop":
                    break
                if action == "pause":
                    paused = True
                continue
            # Frames pending: absorb whatever control traffic has arrived
            # without blocking, then run one scheduling round.
            stopped = False
            while conn.poll(0):
                try:
                    message = conn.recv()
                except EOFError:
                    return
                action = handle(message)
                if action == "stop":
                    stopped = True
                    break
                if action == "pause":
                    paused = True
                    break
            if stopped:
                break
            if paused:
                continue
            try:
                records = core.pump()
            except Exception:
                conn.send(("error", shard_name, traceback.format_exc()))
                paused = True
                continue
            flush_failures()
            if records:
                conn.send(("records", records))
    finally:
        reader.close()
        conn.close()


# ----------------------------------------------------------------------
# Shard frontends (what the executor talks to)
# ----------------------------------------------------------------------
class _InProcessShard:
    """Single-shard fallback: the scheduling core runs in this process."""

    is_process = False

    def __init__(
        self,
        pipeline: "EuphratesPipeline",
        schedule: ShardSchedule,
        *,
        isolate_failures: bool = False,
    ) -> None:
        self.name = "shard0"
        self.core = StreamShard(
            pipeline, schedule, name=self.name, isolate_failures=isolate_failures
        )
        #: Shard-level failure reason; an in-process shard cannot crash
        #: independently of the client, so this stays ``None`` (mirrors the
        #: :class:`_ProcessShard` attribute for uniform executor handling).
        self.failure: Optional[str] = None
        self._buffered: List[FrameRecord] = []

    @property
    def stream_errors(self) -> Dict[str, str]:
        return self.core.stream_failures

    def open_stream(self, key: str, **kwargs) -> None:
        self.core.open_stream(key, **kwargs)

    def submit(self, key, payload, truth, force, defer=False, note="") -> None:
        self.core.enqueue(key, payload, truth, force, defer, note)

    def collect(self) -> List[FrameRecord]:
        """One scheduling round (the in-process analogue of 'poll')."""
        records, self._buffered = self._buffered, []
        if self.core.pending():
            records.extend(self.core.pump())
        return records

    def drain(self) -> List[FrameRecord]:
        records, self._buffered = self._buffered, []
        records.extend(self.core.drain())
        return records

    def finish_stream(self, key: str):
        # Mirror the worker shards' behavior: pump this stream's own queue
        # dry first, buffering the records for the next pump()/drain().
        while (
            key not in self.core.stream_failures and self.core.pending_for(key)
        ):
            self._buffered.extend(self.core.pump())
        if key in self.core.stream_failures:
            raise StreamFailedError(
                key,
                f"stream '{key}' failed on {self.name}:\n"
                f"{self.core.stream_failures[key]}",
            )
        return self.core.finish_stream(key)

    def pending_for(self, key: str) -> int:
        return self.core.pending_for(key)

    def outstanding(self) -> int:
        return self.core.pending()

    def close(self) -> None:
        pass


class _ProcessShard:
    """Pipe frontend to one worker process owning its sessions end-to-end."""

    is_process = True

    def __init__(
        self,
        index: int,
        ctx,
        pipeline_blob: bytes,
        schedule: ShardSchedule,
        *,
        isolate_failures: bool = False,
    ) -> None:
        self.name = f"shard{index}"
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, pipeline_blob, schedule, self.name, isolate_failures),
            name=f"repro-{self.name}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._records: List[FrameRecord] = []
        self._opened: set = set()
        self._finished: Dict[str, tuple] = {}
        self._pending: Dict[str, int] = {}
        self._drained = False
        #: key -> traceback text for streams the worker failed in isolation.
        self.stream_errors: Dict[str, str] = {}
        #: Shard-level failure reason (dead worker / broken pipe).  Once
        #: set, the executor scopes the loss to this shard's streams.
        self.failure: Optional[str] = None

    # -- message plumbing ----------------------------------------------
    def _dead(self, context: str = "") -> ShardError:
        detail = f" (exit code {self.process.exitcode})" if not self.process.is_alive() else ""
        reason = f"worker process for {self.name} died unexpectedly{detail}"
        if context:
            reason = f"{reason}: {context}"
        self.failure = self.failure or reason
        return ShardError(self.failure)

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
            for record in message[1]:
                if record.key in self._pending:
                    self._pending[record.key] -= 1
            self._records.extend(message[1])
        elif tag == "finished":
            self._finished[message[1]] = (message[2], message[3])
        elif tag == "drained":
            self._drained = True
        elif tag == "opened":
            self._opened.add(message[1])
        elif tag == "stream_error":
            # Isolated failure: only this stream is lost; the worker keeps
            # serving its other streams.
            self.stream_errors[message[1]] = message[2]
            self._pending[message[1]] = 0
        elif tag == "error":
            raise ShardError(
                f"worker for {self.name} failed:\n{message[2]}"
            )
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

    # -- shard interface -----------------------------------------------
    def open_stream(self, key: str, **kwargs) -> None:
        self._pending[key] = 0
        self._send(("open", key, kwargs))
        self._wait(lambda: key in self._opened)

    def submit(self, key, payload, truth, force, defer=False, note="") -> None:
        self._send(("frame", key, payload, truth, force, defer, note))
        self._pending[key] = self._pending.get(key, 0) + 1

    def collect(self) -> List[FrameRecord]:
        self._pump_pipe()
        records, self._records = self._records, []
        return records

    def drain(self) -> List[FrameRecord]:
        self._drained = False
        self._send(("drain",))
        self._wait(lambda: self._drained)
        records, self._records = self._records, []
        return records

    def finish_stream(self, key: str):
        if key in self.stream_errors:
            raise StreamFailedError(
                key,
                f"stream '{key}' failed on {self.name}:\n{self.stream_errors[key]}",
            )
        self._send(("finish", key))
        self._wait(lambda: key in self._finished or key in self.stream_errors)
        self._pending.pop(key, None)
        if key in self.stream_errors:
            raise StreamFailedError(
                key,
                f"stream '{key}' failed on {self.name}:\n{self.stream_errors[key]}",
            )
        return self._finished.pop(key)

    def pending_for(self, key: str) -> int:
        self._pump_pipe()
        return self._pending.get(key, 0)

    def outstanding(self) -> int:
        self._pump_pipe()
        return sum(self._pending.values())

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
class ShardedExecutor:
    """Places streams onto shards; one execution layer for sweeps and serving.

    ``workers <= 1`` runs a single in-process shard over the in-process
    transport — semantically (and bit-) identical to the pre-sharding
    serial paths, so single-core CI and the oracle path are unchanged.
    ``workers = N`` forks N shard workers; streams are placed round-robin,
    frames cross over the shared-memory transport, and only small control
    messages are ever pickled.

    Lifecycle: :meth:`open_stream` places a stream on a shard (the
    placement is deterministic in arrival order — worker count never
    changes outputs), :meth:`submit` hands it frames, :meth:`pump` /
    :meth:`drain` collect completed :class:`FrameRecord` batches, and
    :meth:`finish_stream` closes one stream and returns its
    :class:`~repro.core.types.SequenceResult` plus session stats.
    :meth:`run_sequences` wraps that cycle for batch sweeps; the serving
    front end (:class:`~repro.core.ingest.IngestCore` via
    :class:`~repro.core.streaming.StreamMultiplexer`) drives it
    incrementally.  Always :meth:`close` (or use as a context manager) so
    worker processes and shared-memory segments are reclaimed.

    ``isolate_failures=True`` turns a stream crash inside a shard into a
    per-stream failure recorded in :attr:`stream_failures` instead of
    tearing down the executor — the serving path uses this so one bad
    camera cannot take down the fleet.
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
        spec = ExecutionSpec(workers=workers, transport=transport)  # validates
        self.schedule = schedule or ShardSchedule()
        self.pipeline = pipeline
        self.workers = spec.workers
        if spec.workers <= 1:
            # Graceful fallback: a single shard needs no process boundary,
            # whatever transport was asked for.
            self.transport_mode = "inproc"
        elif spec.transport == "inproc":
            raise ValueError(
                "transport='inproc' cannot cross process boundaries; "
                "use workers=1 or transport='shm'"
            )
        else:
            self.transport_mode = "shm"

        self.isolate_failures = bool(isolate_failures)
        self._sources: Dict[str, "VideoSequence"] = {}
        self._assignment: Dict[str, object] = {}
        self._order: List[str] = []
        self._submitted: Dict[str, int] = {}
        self._stray_records: List[FrameRecord] = []
        #: key -> reason for streams lost to an isolated failure (their own
        #: session crashing, or their shard's worker process dying).
        self._failures: Dict[str, str] = {}
        self._closed = False

        if self.transport_mode == "inproc":
            self.transport = InProcessTransport()
            self._shards: List[object] = [
                _InProcessShard(
                    pipeline, self.schedule, isolate_failures=self.isolate_failures
                )
            ]
        else:
            self.transport = SharedMemoryTransport()
            methods = get_all_start_methods()
            ctx = get_context("fork" if "fork" in methods else "spawn")
            blob = pickle.dumps(pipeline)
            self._shards = [
                _ProcessShard(
                    index,
                    ctx,
                    blob,
                    self.schedule,
                    isolate_failures=self.isolate_failures,
                )
                for index in range(self.workers)
            ]

    # -- stream management ---------------------------------------------
    def open_stream(
        self,
        key: str,
        *,
        source: "VideoSequence | None" = None,
        name: Optional[str] = None,
        width: Optional[int] = None,
        height: Optional[int] = None,
        backend=None,
        window_controller=None,
    ) -> None:
        """Open one stream on the next shard (round-robin placement)."""
        if self._closed:
            raise RuntimeError("executor is closed")
        if key in self._assignment:
            raise ValueError(f"stream '{key}' already exists")
        shard = self._shards[len(self._order) % len(self._shards)]
        kwargs: Dict[str, object] = {
            "name": name,
            "backend": backend,
            "window_controller": window_controller,
        }
        if shard.is_process and source is not None:
            # Worker shards never receive the sequence (its frame stack
            # would be pickled wholesale).  They open an oracle-fed session
            # with the source's geometry; the executor feeds frames over
            # the transport and ground truth per submit.  ``oracle_name``
            # keeps the oracle presenting the true sequence name, so
            # simulated backends seeded by sequence name stay bit-identical
            # to a sequence-bound session.
            kwargs.update(
                width=source.width,
                height=source.height,
                name=name or source.name,
                oracle_name=source.name,
                oracle_labels=dict(source.labels),
            )
            self._sources[key] = source
        else:
            kwargs.update(source=source, width=width, height=height)
        shard.open_stream(key, **kwargs)
        self._assignment[key] = shard
        self._order.append(key)
        self._submitted[key] = 0

    def shard_of(self, key: str):
        try:
            return self._assignment[key]
        except KeyError:
            raise KeyError(f"unknown stream '{key}'") from None

    # -- failure scoping -------------------------------------------------
    @property
    def stream_failures(self) -> Dict[str, str]:
        """key -> reason for every stream lost to an isolated failure."""
        self._sync_failures()
        return dict(self._failures)

    def _sync_failures(self) -> None:
        for shard in self._shards:
            for key, reason in shard.stream_errors.items():
                self._failures.setdefault(
                    key, f"stream '{key}' failed on {shard.name}:\n{reason}"
                )

    def _fail_shard(self, shard, reason: str) -> None:
        """Scope the loss of one shard to the streams placed on it."""
        shard.failure = shard.failure or reason
        for key in [k for k, s in self._assignment.items() if s is shard]:
            self._failures.setdefault(key, f"stream '{key}' lost: {reason}")

    def _shard_failed(self, shard, error: ShardError) -> None:
        """Handle a shard-level error according to the isolation policy."""
        if not self.isolate_failures:
            raise error
        self._fail_shard(shard, str(error))

    def _forget(self, key: str) -> None:
        self._assignment.pop(key, None)
        if key in self._order:
            self._order.remove(key)
        self._sources.pop(key, None)
        self._submitted.pop(key, None)

    def _raise_failed(self, key: str) -> None:
        raise StreamFailedError(key, self._failures[key])

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
        if key in self._failures:
            self._raise_failed(key)
        shard = self.shard_of(key)
        if shard.failure is not None:
            self._shard_failed(shard, ShardError(shard.failure))
            self._raise_failed(key)
        source = self._sources.get(key)
        if source is not None and truth is None:
            # Sequence-bound streams on worker shards: the oracle needs the
            # truth a sequence-bound session would have read itself.
            truth = source.truth_detections(self._submitted[key])
        payload = self.transport.send(frame)
        try:
            shard.submit(
                key, payload, truth, force_inference, defer_inference, degradation
            )
        except ShardError as error:
            # The frame never reached the shard: hand its slot back so a
            # dead worker doesn't leak ring-buffer capacity.
            release = getattr(self.transport, "release", None)
            if release is not None and isinstance(payload, FrameRef):
                release(payload)
            self._shard_failed(shard, error)
            self._raise_failed(key)
        self._submitted[key] += 1

    def pending_for(self, key: str) -> int:
        if key in self._failures:
            return 0
        shard = self.shard_of(key)
        try:
            return shard.pending_for(key)
        except ShardError as error:
            self._shard_failed(shard, error)
            return 0

    @property
    def pending_frames(self) -> int:
        total = 0
        for shard in self._shards:
            if shard.failure is not None:
                continue
            try:
                total += shard.outstanding()
            except ShardError as error:
                self._shard_failed(shard, error)
        return total

    # -- scheduling ------------------------------------------------------
    def pump(self) -> List[FrameRecord]:
        """Collect one round of progress from every shard.

        In-process this runs one scheduling round; with worker shards it
        absorbs whatever records have arrived (the workers pump on their
        own).
        """
        records = self._stray_records
        self._stray_records = []
        for shard in self._shards:
            if shard.failure is not None:
                continue
            try:
                records.extend(shard.collect())
            except ShardError as error:
                self._shard_failed(shard, error)
        self._sync_failures()
        return records

    def drain(self) -> List[FrameRecord]:
        """Block until every queue on every live shard is empty."""
        records = self._stray_records
        self._stray_records = []
        for shard in self._shards:
            if shard.failure is not None:
                continue
            try:
                records.extend(shard.drain())
            except ShardError as error:
                self._shard_failed(shard, error)
        self._sync_failures()
        return records

    def finish_stream(self, key: str) -> Tuple[SequenceResult, "SessionStats"]:
        """Close one stream and return its (result, session stats).

        Records produced while the stream's shard catches up are kept and
        handed out by the next :meth:`pump`/:meth:`drain` call, so clients
        tracking per-frame statistics never lose any.  A stream lost to an
        isolated failure raises :class:`StreamFailedError` with the original
        worker traceback; other streams stay serviceable.
        """
        self._sync_failures()
        if key in self._failures:
            self._forget(key)
            self._raise_failed(key)
        shard = self.shard_of(key)
        try:
            result, stats = shard.finish_stream(key)
        except StreamFailedError as error:
            self._failures.setdefault(key, str(error))
            self._forget(key)
            raise
        except ShardError as error:
            self._shard_failed(shard, error)
            self._forget(key)
            self._raise_failed(key)
        if shard.is_process:
            try:
                self._stray_records.extend(shard.collect())
            except ShardError as error:
                self._shard_failed(shard, error)
            # Worker sessions report their finish to the *worker's* pipeline
            # copy; mirror the op total onto the client-side pipeline, which
            # is the aggregate run_dataset and the sweeps report on.
            self.pipeline.total_extrapolation_ops += stats.extrapolation_ops
        self._forget(key)
        return result, stats

    # -- whole-dataset convenience --------------------------------------
    def run_sequences(
        self, sequences: Sequence["VideoSequence"], *, max_outstanding: int = 64
    ) -> List[Tuple[SequenceResult, "SessionStats"]]:
        """Run one stream per sequence to completion; results in order.

        Frames are interleaved round-robin across the sequences so every
        shard keeps all of its streams busy; ``max_outstanding`` bounds the
        frames in flight per shard (which also bounds shared-memory slots).
        """
        sequences = list(sequences)
        keys = [f"seq{index}" for index in range(len(sequences))]
        for key, sequence in zip(keys, sequences):
            self.open_stream(key, source=sequence, name=sequence.name)
        longest = max((s.num_frames for s in sequences), default=0)
        for frame_index in range(longest):
            for key, sequence in zip(keys, sequences):
                if frame_index >= sequence.num_frames:
                    continue
                shard = self.shard_of(key)
                if shard.is_process:
                    # Flow control: absorbed records land in the shard's
                    # buffer and come back from the next drain()/pump().
                    shard._wait(lambda: shard.outstanding() < max_outstanding)
                self.submit(key, sequence.frame(frame_index))
        self.drain()
        return [self.finish_stream(key) for key in keys]

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.close()
        self.transport.close()

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
