"""Network ingestion core: wire protocol, reorder window, overload policies.

This module is the *synchronous* heart of the serving front end
(:mod:`repro.core.server` wraps it in asyncio): everything that decides
what happens to an arriving frame lives here, with no sockets involved,
so the fault-injection and property tests drive it directly.

Pipeline of one arriving frame::

    bytes on the wire
      └─ decode_frame()            length-prefixed, uint8 payload viewed
      └─ ReorderWindow.push()      in-order release; dups/late dropped;
                                   bounded wait for stragglers, then a
                                   *gap* is declared and sealed
      └─ bounded ready queue       per-stream; overload policy applies
                                   (drop-oldest / degrade)
      └─ StreamMultiplexer.submit  frames enter the shared execution core;
                                   a sealed gap forces an I-frame and tags
                                   telemetry ``dropped-frame-gap``

Ordering invariant (property-tested): the frames the core *accepts*
produce results bit-identical to feeding the same surviving subsequence —
with an I-frame forced at every gap — to a serial
:class:`~repro.core.session.EuphratesSession`.  Degradation is observable
but never silent: every drop, deferral and gap lands in
:class:`~repro.core.types.FrameTelemetry` and the fault counters of the
stream's :class:`~repro.core.executor.StreamStats`.

Admission control prices a new stream on the
:class:`~repro.soc.frame_cost.CapacityModel` M/D/1 budget: a stream is
rejected exactly when the projected shared-backend utilisation would
reach 1 (the queueing wait diverges — the pool can never catch up).

Wire protocol (asyncio TCP, but codec usable over any byte transport)::

    message   := u32 length (big endian, of what follows) | u8 type | body
    FRAME body:= u32 handle | u32 seq | u16 height | u16 width
                 | u32 truth_len | truth JSON (truth_len bytes)
                 | h*w uint8 luma pixels
    other bodies are UTF-8 JSON objects.

Frame payloads stay ``uint8`` end to end: the decoder returns a zero-copy
:class:`numpy.ndarray` view of the receive buffer, and submission copies
it once into the executor's transport (a shared-memory slot under worker
shards) — frames are never pickled.
"""

from __future__ import annotations

import json
import struct
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .executor import FrameRecord, StreamFailedError, StreamStats
from .geometry import BoundingBox
from .types import Detection, SequenceResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..soc.frame_cost import CapacityModel, QueueingEstimate
    from .streaming import StreamMultiplexer

__all__ = [
    "MSG_BYE",
    "MSG_BYE_OK",
    "MSG_ERROR",
    "MSG_FRAME",
    "MSG_HEALTH",
    "MSG_HELLO",
    "MSG_HELLO_OK",
    "MSG_REJECT",
    "MSG_RESULT",
    "MSG_STATS",
    "DEGRADE_QUEUE_FACTOR",
    "OVERLOAD_POLICIES",
    "AdmissionError",
    "FrameRefused",
    "IngestConfig",
    "IngestCore",
    "ProtocolError",
    "ReorderWindow",
    "decode_frame",
    "decode_json",
    "encode_frame",
    "encode_json",
    "encode_message",
    "read_message",
]


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
MSG_HELLO = 1  #: client -> server: open a stream (JSON config)
MSG_HELLO_OK = 2  #: server -> client: admitted (JSON: handle)
MSG_REJECT = 3  #: server -> client: admission rejected (JSON: reason)
MSG_FRAME = 4  #: client -> server: one captured frame (binary)
MSG_RESULT = 5  #: server -> client: per-frame result ack (JSON)
MSG_STATS = 6  #: either direction: stats request / reply (JSON)
MSG_HEALTH = 7  #: either direction: health request / reply (JSON)
MSG_BYE = 8  #: client -> server: graceful end of stream
MSG_BYE_OK = 9  #: server -> client: stream settled (JSON summary)
MSG_ERROR = 10  #: server -> client: stream failed (JSON reason)

_HEADER = struct.Struct(">I")
_FRAME_HEAD = struct.Struct(">IIHHI")

#: Refuse absurd lengths before allocating (64 MiB >> any 1080p frame).
MAX_MESSAGE_BYTES = 64 * 1024 * 1024
#: FRAME carries height and width as u16.
MAX_FRAME_SIDE = 0xFFFF


class ProtocolError(ValueError):
    """A malformed message on the wire."""


class FrameRefused(ProtocolError):
    """A FRAME whose framing holds but whose ground truth is malformed.

    The connection survives: the server refuses the frame like a
    mis-shaped one, and ``handle`` and ``seq`` say which frame it was.
    """

    def __init__(self, handle: int, seq: int, reason: str) -> None:
        super().__init__(reason)
        self.handle = handle
        self.seq = seq


def encode_message(msg_type: int, body: bytes = b"") -> bytes:
    """Frame one message: u32 length | u8 type | body."""
    return _HEADER.pack(len(body) + 1) + bytes([msg_type]) + body


def encode_json(msg_type: int, payload: dict) -> bytes:
    return encode_message(msg_type, json.dumps(payload).encode("utf-8"))


def decode_json(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError as error:  # bad UTF-8, bad JSON, an integer over 4300 digits
        raise ProtocolError(f"malformed JSON body: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError("JSON body must be an object")
    return payload


def _truth_to_json(truth: Optional[Sequence[Detection]]) -> bytes:
    if truth is None:
        return b""
    items = [
        {
            "x": d.box.x,
            "y": d.box.y,
            "w": d.box.width,
            "h": d.box.height,
            "label": d.label,
            "score": d.score,
            "object_id": d.object_id,
        }
        for d in truth
    ]
    return json.dumps(items).encode("utf-8")


def _detection_from_json(item: object) -> Detection:
    if not isinstance(item, dict):
        raise ProtocolError("truth must be a JSON list of objects")
    try:
        x, y, w, h = item["x"], item["y"], item["w"], item["h"]
    except KeyError as error:
        raise ProtocolError(f"truth box lacks {error}") from None
    if not all(type(v) in (int, float) for v in (x, y, w, h)):
        raise ProtocolError(
            f"truth box fields must be numbers, got {x!r}, {y!r}, {w!r}, {h!r}"
        )
    if w < 0 or h < 0:
        raise ProtocolError(f"truth box has a negative size {w}x{h}")
    object_id = item.get("object_id")
    if object_id is not None and type(object_id) is not int:
        raise ProtocolError(f"truth object_id {object_id!r} is not an integer")
    return Detection(
        box=BoundingBox(x, y, w, h),
        label=item.get("label", "object"),
        score=item.get("score", 1.0),
        object_id=object_id,
    )


def _truth_from_json(blob: bytes) -> Optional[List[Detection]]:
    if not blob:
        return None
    try:
        items = json.loads(blob.decode("utf-8"))
    except ValueError as error:  # bad UTF-8, bad JSON, an integer over 4300 digits
        raise ProtocolError(f"malformed truth JSON: {error}") from None
    if not isinstance(items, list):
        raise ProtocolError("truth must be a JSON list of objects")
    return [_detection_from_json(item) for item in items]


def encode_frame(
    handle: int,
    seq: int,
    frame: np.ndarray,
    truth: Optional[Sequence[Detection]] = None,
) -> bytes:
    """Encode one FRAME message (uint8 luma payload, raw bytes)."""
    if frame.dtype != np.uint8 or frame.ndim != 2:
        raise ProtocolError(
            f"frames on the wire are 2-D uint8 luma, got {frame.dtype} "
            f"ndim={frame.ndim}"
        )
    height, width = frame.shape
    truth_blob = _truth_to_json(truth)
    body = (
        _FRAME_HEAD.pack(handle, seq, height, width, len(truth_blob))
        + truth_blob
        + np.ascontiguousarray(frame).tobytes()
    )
    return encode_message(MSG_FRAME, body)


def decode_frame(
    body: bytes | memoryview,
) -> Tuple[int, int, np.ndarray, Optional[List[Detection]]]:
    """Decode a FRAME body to ``(handle, seq, frame_view, truth)``.

    The returned frame is a zero-copy uint8 view of ``body`` — the caller
    submits it straight to the executor's transport (which copies it) and
    must not retain the view past the buffer's lifetime.  Malformed
    framing raises :class:`ProtocolError`; a malformed truth raises
    :class:`FrameRefused`, which names the frame.
    """
    view = memoryview(body)
    if len(view) < _FRAME_HEAD.size:
        raise ProtocolError(f"FRAME body too short ({len(view)} bytes)")
    handle, seq, height, width, truth_len = _FRAME_HEAD.unpack_from(view, 0)
    offset = _FRAME_HEAD.size
    if len(view) != offset + truth_len + height * width:
        raise ProtocolError(
            f"FRAME length mismatch: {len(view)} bytes for "
            f"{height}x{width} + {truth_len} truth"
        )
    try:
        truth = _truth_from_json(bytes(view[offset : offset + truth_len]))
    except ProtocolError as error:
        raise FrameRefused(handle, seq, str(error)) from None
    offset += truth_len
    frame = np.frombuffer(view, dtype=np.uint8, offset=offset).reshape(height, width)
    return handle, seq, frame, truth


def read_message(buffer: bytearray) -> Optional[Tuple[int, bytes]]:
    """Pop one complete ``(type, body)`` message off ``buffer``, if any.

    The incremental receive-side parser: append raw socket bytes to
    ``buffer``, call until it returns ``None``.
    """
    if len(buffer) < _HEADER.size:
        return None
    (length,) = _HEADER.unpack_from(buffer, 0)
    if length < 1 or length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"bad message length {length}")
    if len(buffer) < _HEADER.size + length:
        return None
    msg_type = buffer[_HEADER.size]
    body = bytes(buffer[_HEADER.size + 1 : _HEADER.size + length])
    del buffer[: _HEADER.size + length]
    return msg_type, body


# ----------------------------------------------------------------------
# Reorder window
# ----------------------------------------------------------------------
class ReorderWindow:
    """Re-establishes source order for late / out-of-order / duplicate frames.

    Frames carry a source sequence number; the window buffers up to
    ``window`` out-of-order arrivals waiting for the missing ones.  When
    the buffer fills (or :meth:`flush` is called), the missing range is
    *sealed* as a gap: delivery resumes at the earliest buffered frame,
    which is flagged ``gap=True`` so the pipeline can force an I-frame —
    extrapolating across dropped frames would violate EVA²'s temporal
    assumption.  Duplicates and frames older than the delivery point are
    dropped (counted, never delivered twice).  The counters live on
    ``stats`` (the stream's registry entry when the ingest core owns the
    window).
    """

    def __init__(self, window: int = 8, stats: Optional[StreamStats] = None) -> None:
        if window < 1:
            raise ValueError(f"reorder window must be >= 1, got {window}")
        self.window = window
        self.next_seq = 0
        self._buffer: Dict[int, object] = {}
        self.stats = stats if stats is not None else StreamStats(name="reorder")

    # Read-only views of the window's counters on ``stats``.
    duplicates = property(lambda self: self.stats.duplicates)
    late_drops = property(lambda self: self.stats.late_drops)
    reordered = property(lambda self: self.stats.reordered)
    gaps = property(lambda self: self.stats.gaps)

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def push(self, seq: int, item: object) -> List[Tuple[int, object, bool]]:
        """Accept one arrival; return ``(seq, item, gap)`` ready in order."""
        if seq < self.next_seq:
            self.stats.late_drops += 1
            return []
        if seq in self._buffer:
            self.stats.duplicates += 1
            return []
        if seq != self.next_seq:
            self.stats.reordered += 1
        self._buffer[seq] = item
        released = self._release_contiguous()
        while len(self._buffer) > self.window:
            # Stragglers kept the window full: seal the gap and move on.
            released.extend(self._seal_gap())
            released.extend(self._release_contiguous())
        return released

    def _release_contiguous(self) -> List[Tuple[int, object, bool]]:
        released: List[Tuple[int, object, bool]] = []
        while self.next_seq in self._buffer:
            released.append((self.next_seq, self._buffer.pop(self.next_seq), False))
            self.next_seq += 1
        return released

    def _seal_gap(self) -> List[Tuple[int, object, bool]]:
        earliest = min(self._buffer)
        self.stats.gaps += 1
        self.next_seq = earliest + 1
        return [(earliest, self._buffer.pop(earliest), True)]

    def flush(self) -> List[Tuple[int, object, bool]]:
        """Release everything still buffered (end of stream), sealing gaps."""
        released = self._release_contiguous()
        while self._buffer:
            released.extend(self._seal_gap())
            released.extend(self._release_contiguous())
        return released


# ----------------------------------------------------------------------
# Ingestion core
# ----------------------------------------------------------------------
OVERLOAD_POLICIES = ("drop-oldest", "degrade")

#: Under ``degrade`` a stream's ready queue holds at most this many times
#: ``queue_capacity`` frames; beyond that it sheds the oldest frame exactly
#: as ``drop-oldest`` does at ``queue_capacity``.
DEGRADE_QUEUE_FACTOR = 2


class AdmissionError(RuntimeError):
    """The capacity budget rejected a new stream."""


@dataclass
class IngestConfig:
    """Knobs of the ingestion core (per server, applied per stream)."""

    #: Bounded ready-queue depth per stream (frames reordered and waiting
    #: to enter the execution core).
    queue_capacity: int = 32
    #: What to do when a stream's ready queue is full:
    #: ``"drop-oldest"`` drops the oldest queued frame (the drop becomes a
    #: gap — the next delivered frame forces an I-frame);
    #: ``"degrade"`` accepts the frame but defers controller-scheduled
    #: I-frames (widening the effective extrapolation window) until the
    #: backlog clears, and sheds like ``drop-oldest`` only once the queue
    #: reaches :data:`DEGRADE_QUEUE_FACTOR` times ``queue_capacity``.
    overload_policy: str = "degrade"
    #: Out-of-order arrivals buffered while waiting for missing frames.
    reorder_window: int = 8
    #: Frames in flight inside the execution core per stream (beyond this
    #: the ready queue holds them — keeps shared-memory slots bounded).
    feed_depth: int = 8
    #: Whether to run capacity-budget admission control (needs a
    #: :class:`~repro.soc.frame_cost.CapacityModel`).
    admission: bool = True

    def __post_init__(self) -> None:
        if self.overload_policy not in OVERLOAD_POLICIES:
            raise ValueError(
                f"unknown overload policy {self.overload_policy!r}; "
                f"expected one of {OVERLOAD_POLICIES}"
            )
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.feed_depth < 1:
            raise ValueError("feed_depth must be >= 1")


class _IngestStream:
    """Server-side state of one admitted camera stream."""

    def __init__(
        self,
        stream_id: str,
        shape: Tuple[int, int],
        demand,
        stats: StreamStats,
        reorder_window: int,
    ) -> None:
        self.stream_id = stream_id
        #: (height, width) declared at open; every frame must match.
        self.shape = shape
        self.demand = demand
        #: The stream's registry entry; fault counters land here.
        self.stats = stats
        self.reorder = ReorderWindow(reorder_window, stats)
        #: Reordered frames ready to enter the execution core:
        #: (source_seq, frame, truth, gap).
        self.ready: Deque[Tuple[int, np.ndarray, object, bool]] = deque()
        #: A drop (gap or overload) happened after the last submitted
        #: frame: the next submit must force an I-frame.
        self.pending_gap = False
        #: frame index -> source seq of submitted frames not yet recorded;
        #: holds at most the frames in flight.
        self.labels: Dict[int, int] = {}
        #: Why the execution core failed the stream, once a feed saw it.
        self.failure: Optional[str] = None


class IngestCore:
    """Synchronous ingestion engine over one :class:`StreamMultiplexer`.

    Owns admission control, per-stream reordering, the bounded ready
    queues with their overload policies, and the feed loop that moves
    ready frames into the execution core.  The asyncio server is a thin
    I/O wrapper around exactly this object; the fault-injection tests
    drive it directly.

    Lifecycle: :meth:`open_stream` runs M/D/1 admission against the
    ``capacity`` model and registers the stream (raising
    :class:`AdmissionError` when the fleet would be overloaded),
    :meth:`push_frame` accepts a possibly out-of-order frame into the
    stream's :class:`ReorderWindow`, :meth:`pump` moves every ready frame
    into the execution core (applying the configured overload policy —
    ``drop-oldest`` or ``degrade`` — when a ready queue overflows), and
    :meth:`close_stream` seals remaining gaps and returns the stream's
    :class:`~repro.core.types.SequenceResult`.  :meth:`drain` /
    :meth:`finish` flush everything at shutdown; :meth:`stats` and
    :meth:`health` expose the counters the serve protocol reports.  All
    knobs live on :class:`IngestConfig`; the byte-level framing this
    engine sits behind is specified in ``docs/wire-protocol.md``.

    The core is its multiplexer's record observer.  It labels every
    :class:`FrameRecord` with the source seq of its frame and hands the
    ``(record, seq)`` pair to :attr:`on_record`.
    """

    def __init__(
        self,
        multiplexer: "StreamMultiplexer",
        *,
        capacity: "CapacityModel | None" = None,
        config: Optional[IngestConfig] = None,
        on_record: "Callable[[FrameRecord, Optional[int]], None] | None" = None,
    ) -> None:
        self.multiplexer = multiplexer
        self.capacity = capacity
        self.config = config or IngestConfig()
        if self.config.admission and capacity is None:
            raise ValueError(
                "admission control needs a CapacityModel; pass capacity= or "
                "IngestConfig(admission=False)"
            )
        self._streams: Dict[str, _IngestStream] = {}
        #: Observer of every ``(record, seq)`` pair (the server's ack hook).
        self.on_record = on_record
        multiplexer.on_record = self._record

    # -- observation ----------------------------------------------------
    def _record(self, record: FrameRecord) -> None:
        stream = self._streams.get(record.key)
        seq = stream.labels.pop(record.frame_index, None) if stream else None
        if self.on_record is not None:
            self.on_record(record, seq)

    # -- admission ------------------------------------------------------
    def admitted_demands(self) -> List[object]:
        return [s.demand for s in self._streams.values() if s.demand is not None]

    def projected_queueing(self) -> "QueueingEstimate | None":
        """Capacity-budget projection for the currently admitted set."""
        if self.capacity is None:
            return None
        return self.capacity.projection(
            [d for d in self.admitted_demands() if d is not None]
        )

    def open_stream(
        self,
        stream_id: str,
        *,
        width: int,
        height: int,
        fps: float = 30.0,
        window_size: int = 1,
        rois: int = 1,
    ) -> None:
        """Admit and open one live stream (raises :class:`AdmissionError`).

        ``fps``/``window_size``/``rois`` describe the stream's projected
        demand for the capacity budget.  Each side must fit a FRAME's u16
        field (1..65535), or :class:`ValueError` is raised.
        """
        if stream_id in self._streams:
            raise ValueError(f"stream '{stream_id}' already exists")
        if not (0 < width <= MAX_FRAME_SIDE and 0 < height <= MAX_FRAME_SIDE):
            raise ValueError(
                f"frame size {width}x{height} outside 1..{MAX_FRAME_SIDE}"
            )
        demand = None
        if self.config.admission:
            from ..soc.frame_cost import StreamDemand

            demand = StreamDemand(fps=fps, window_size=window_size, rois=rois)
            admitted = [d for d in self.admitted_demands() if d is not None]
            if not self.capacity.admits(admitted, demand):
                projected = self.capacity.projection([*admitted, demand])
                raise AdmissionError(
                    f"stream '{stream_id}' rejected: projected backend "
                    f"utilization {projected.utilization:.3f} >= 1 "
                    f"({len(admitted)} streams admitted)"
                )
        self.multiplexer.add_stream(stream_id, width=width, height=height)
        self._streams[stream_id] = _IngestStream(
            stream_id,
            (height, width),
            demand,
            self.multiplexer.stats_for(stream_id),
            self.config.reorder_window,
        )

    # -- frame path -----------------------------------------------------
    def _stream(self, stream_id: str) -> _IngestStream:
        try:
            return self._streams[stream_id]
        except KeyError:
            raise KeyError(f"unknown stream '{stream_id}'") from None

    def push_frame(
        self,
        stream_id: str,
        seq: int,
        frame: np.ndarray,
        truth: Optional[Sequence[Detection]] = None,
    ) -> None:
        """One frame off the wire: reorder, queue under policy, feed.

        A frame whose shape differs from the stream's is refused (see
        :meth:`refuse_frame`); a frame for a failed stream raises
        :class:`StreamFailedError`.
        """
        stream = self._stream(stream_id)
        if stream.failure is not None:
            raise StreamFailedError(stream_id, stream.failure)
        if frame.shape != stream.shape:
            self.refuse_frame(
                stream_id,
                f"frame shape {frame.shape} != stream '{stream_id}' shape "
                f"{stream.shape} (height, width)",
            )
        for rseq, item, gap in stream.reorder.push(seq, (frame, truth)):
            self._enqueue_ready(stream, rseq, item, gap)
        self._feed(stream)

    def refuse_frame(self, stream_id: str, reason: str) -> None:
        """Refuse one frame: count it in ``frame_errors`` and raise
        :class:`ValueError` with ``reason``.

        Its seq stays missing, so the reorder window seals it as a gap.
        """
        self._stream(stream_id).stats.frame_errors += 1
        raise ValueError(reason)

    def _enqueue_ready(
        self, stream: _IngestStream, seq: int, item: object, gap: bool
    ) -> None:
        frame, truth = item
        bound = self.config.queue_capacity
        if self.config.overload_policy == "degrade":
            # Degrade defers inference from queue_capacity on (see _feed)
            # and sheds only at its wider bound.
            bound *= DEGRADE_QUEUE_FACTOR
        if len(stream.ready) >= bound:
            # Shed the oldest queued frame; its absence is a gap whatever
            # is submitted next must seal with an I-frame.  A gap the
            # dropped frame itself carried transfers the same way.
            stream.ready.popleft()
            stream.stats.overload_drops += 1
            stream.stats.gaps += 1
            if stream.ready:
                nseq, nframe, ntruth, _ = stream.ready[0]
                stream.ready[0] = (nseq, nframe, ntruth, True)
            else:
                stream.pending_gap = True
        stream.ready.append((seq, frame, truth, gap))

    def _feed(self, stream: _IngestStream) -> None:
        """Move ready frames into the execution core up to ``feed_depth``."""
        mux = self.multiplexer
        while stream.ready:
            if mux.pending_for(stream.stream_id) >= self.config.feed_depth:
                break
            seq, frame, truth, gap = stream.ready.popleft()
            force = gap or stream.pending_gap
            stream.pending_gap = False
            tags: List[str] = []
            if force:
                tags.append("dropped-frame-gap")
            defer = False
            if (
                self.config.overload_policy == "degrade"
                and len(stream.ready) >= self.config.queue_capacity
            ):
                # Backlogged past capacity: widen the effective EW by
                # deferring controller-scheduled I-frames (forced ones,
                # like gap seals, still run).
                defer = True
                tags.append("queue-degrade")
                stream.stats.degraded_submits += 1
            index = stream.stats.frames_submitted
            try:
                mux.submit(
                    stream.stream_id,
                    frame,
                    truth=truth,
                    force_inference=force,
                    defer_inference=defer,
                    degradation=",".join(tags),
                )
            except StreamFailedError as error:
                stream.failure = str(error)
                raise
            stream.labels[index] = seq

    def pump(self) -> int:
        """One scheduling round: process frames, then refill from queues."""
        processed = self.multiplexer.pump()
        for stream in self._streams.values():
            if stream.failure is None:
                try:
                    self._feed(stream)
                except StreamFailedError:
                    continue
        return processed

    # -- teardown -------------------------------------------------------
    def close_stream(self, stream_id: str) -> SequenceResult:
        """Flush, drain and finish one stream; other streams keep running.

        This is the graceful per-connection teardown (client BYE or
        disconnect): the reorder window is flushed (sealing trailing
        gaps), the ready queue feeds through, and the session closes.
        """
        stream = self._stream(stream_id)
        if stream.failure is None:
            try:
                for rseq, item, gap in stream.reorder.flush():
                    self._enqueue_ready(stream, rseq, item, gap)
                while stream.ready:
                    # drain() frees in-flight slots so _feed can move the
                    # rest of the backlog in (feed_depth at a time).
                    self.multiplexer.drain()
                    self._feed(stream)
                self.multiplexer.drain()
            except StreamFailedError:
                pass
        try:
            result = self.multiplexer.finish_stream(stream.stream_id)
        finally:
            del self._streams[stream_id]
        return result

    def abort_stream(self, stream_id: str) -> None:
        """Close a failed stream without draining it."""
        if self._streams.pop(stream_id, None) is None:
            return
        try:
            self.multiplexer.finish_stream(stream_id)
        except StreamFailedError:
            pass

    def drain(self) -> None:
        """Feed every queue through and drain the execution core."""
        for stream in self._streams.values():
            if stream.failure is not None:
                continue
            for rseq, item, gap in stream.reorder.flush():
                self._enqueue_ready(stream, rseq, item, gap)
        moved = True
        while moved:
            self.multiplexer.drain()
            moved = False
            for stream in self._streams.values():
                if stream.failure is not None or not stream.ready:
                    continue
                before = len(stream.ready)
                try:
                    self._feed(stream)
                except StreamFailedError:
                    continue
                moved = moved or len(stream.ready) < before

    def finish(self) -> Dict[str, SequenceResult]:
        """Graceful server drain: flush everything, settle the shared SoC.

        Returns per-stream results; streams lost to isolated failures are
        omitted.
        """
        self.drain()
        results = self.multiplexer.finish()
        self._streams.clear()
        return results

    # -- introspection --------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Health/stats snapshot (the server's /stats endpoint body)."""
        projection = self.projected_queueing()
        streams = {
            stream_id: {
                **stream.stats.as_dict(),
                "ready_queued": len(stream.ready),
                "reorder_buffered": stream.reorder.buffered,
            }
            for stream_id, stream in self._streams.items()
        }
        payload: Dict[str, object] = {
            "streams": streams,
            "stream_count": len(self._streams),
            "pending_frames": self.multiplexer.pending_frames,
            "failures": dict(self.multiplexer.stream_failures),
        }
        if projection is not None:
            payload["capacity"] = {
                "utilization": projection.utilization,
                "arrival_rate_hz": projection.arrival_rate_hz,
                "mean_wait_s": (
                    None
                    if projection.mean_wait_s == float("inf")
                    else projection.mean_wait_s
                ),
            }
        return payload

    def health(self) -> Dict[str, object]:
        projection = self.projected_queueing()
        overloaded = bool(projection is not None and projection.utilization >= 1.0)
        return {
            "status": "overloaded" if overloaded else "ok",
            "streams": len(self._streams),
            "pending_frames": self.multiplexer.pending_frames,
            "failed_streams": len(self.multiplexer.stream_failures),
        }
