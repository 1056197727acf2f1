"""Asyncio TCP serving front end over the ingestion core.

:class:`EuphratesServer` puts cameras on the wire: clients speak the
length-prefixed protocol of :mod:`repro.core.ingest` (HELLO / FRAME / BYE
plus STATS and HEALTH endpoints) and the server drives one
:class:`~repro.core.ingest.IngestCore` — admission control, reordering,
overload policies and the shared execution core all live there; this
module is only I/O:

* **single-threaded core access** — every touch of the ingest core happens
  on the event loop, so the (deliberately lock-free) synchronous core
  needs no synchronisation;
* **pump task** — one background coroutine alternates scheduling rounds
  with cooperative yields, so frame processing interleaves with socket
  I/O instead of blocking it;
* **per-connection outboxes** — each connection's replies go through one
  queue drained by a writer coroutine.  A RESULT ack that finds
  ``outbox_depth`` messages queued is shed and counted on its stream
  (``acks_shed``); control replies always queue.  Frame *processing* is
  never backpressured by a client that stopped reading;
* **BYE settles before it answers** — the stream's remaining frames are
  flushed and processed, their acks queue, and only then BYE_OK, which
  carries the stream's :class:`~repro.core.executor.StreamStats` counters;
* **disconnect = BYE** — a mid-stream disconnect flushes and finishes the
  connection's streams exactly like a graceful BYE, the results are just
  discarded; other connections never notice;
* **graceful drain** — :meth:`EuphratesServer.shutdown` stops accepting,
  settles every stream and the shared SoC pool, and keeps the final
  :class:`~repro.core.streaming.MultiplexerReport` (exact shared-static
  energy aggregate) on :attr:`final_report`.

:class:`ServeClient` is the synchronous counterpart (blocking socket, no
asyncio) used by the tests and the load generator; :class:`ServerThread`
hosts a server on a background event loop so both can live in one process.
"""

from __future__ import annotations

import asyncio
import socket
import sys
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .executor import ShardError, StreamFailedError, StreamStats
from .ingest import (
    MAX_FRAME_SIDE,
    MSG_BYE,
    MSG_BYE_OK,
    MSG_ERROR,
    MSG_FRAME,
    MSG_HEALTH,
    MSG_HELLO,
    MSG_HELLO_OK,
    MSG_REJECT,
    MSG_RESULT,
    MSG_STATS,
    AdmissionError,
    FrameRefused,
    IngestCore,
    ProtocolError,
    decode_frame,
    decode_json,
    encode_frame,
    encode_json,
    read_message,
)
from .types import Detection

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import FrameRecord
    from .streaming import MultiplexerReport

__all__ = ["EuphratesServer", "ServeClient", "ServerThread"]


def _hello_stream_fields(config: dict) -> Dict[str, object]:
    """A HELLO's geometry and demand fields, checked by JSON type.

    ``width``, ``height``, ``window_size`` and ``rois`` must be JSON
    integers (``true`` is not one), ``window_size`` in 1..65535 and
    ``rois`` in 0..65535, and ``fps`` a finite positive JSON number;
    anything else raises :class:`ValueError`.
    """
    fields: Dict[str, object] = {
        "width": config.get("width"),
        "height": config.get("height"),
        "window_size": config.get("window_size", 1),
        "rois": config.get("rois", 1),
    }
    for key, value in fields.items():
        if type(value) is not int:
            raise ValueError(f"{key} {value!r} is not an integer")
    # Bounded like a frame side, so no JSON integer reaches the capacity
    # model's float arithmetic too large to convert.
    for key, low in (("window_size", 1), ("rois", 0)):
        if not low <= fields[key] <= MAX_FRAME_SIDE:
            raise ValueError(f"{key} {fields[key]} outside {low}..{MAX_FRAME_SIDE}")
    fps = config.get("fps", 30.0)
    # Compared, never converted first: NaN fails both bounds, and a JSON
    # integer too large for a float fails the upper one.
    if type(fps) not in (int, float) or not 0 < fps <= sys.float_info.max:
        raise ValueError(f"fps {fps!r} is not a finite positive number")
    fields["fps"] = float(fps)
    return fields


@dataclass
class _Connection:
    """Server-side state of one client connection."""

    writer: asyncio.StreamWriter
    #: handle (client-chosen u32) -> stream id in the ingest core.
    handles: Dict[int, str] = field(default_factory=dict)
    #: Outbound messages; RESULT acks are shed once it holds outbox_depth.
    outbox: asyncio.Queue = field(default_factory=asyncio.Queue)
    closed: bool = False


class EuphratesServer:
    """Serves the ingestion core over asyncio TCP.

    ``outbox_depth`` is how many queued replies a RESULT ack may find on
    its connection before it is shed.
    """

    def __init__(
        self,
        ingest: IngestCore,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        outbox_depth: int = 256,
    ) -> None:
        self.ingest = ingest
        self.host = host
        self.port = port
        self.outbox_depth = outbox_depth
        self.final_report: "MultiplexerReport | None" = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._connections: Dict[int, _Connection] = {}
        #: stream id -> (connection, handle, stats) of every open stream.
        self._routes: Dict[str, Tuple[_Connection, int, StreamStats]] = {}
        self._next_conn_id = 0
        self._next_stream_id = 0
        self._draining = False
        ingest.on_record = self._dispatch_record
        #: RESULT acks shed on slow consumers, total over every stream.
        self.total_result_drops = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "EuphratesServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._pump_task = asyncio.ensure_future(self._pump_loop())
        return self

    async def shutdown(self) -> "MultiplexerReport | None":
        """Graceful drain: settle every stream and the shared SoC pool."""
        if self._draining:
            return self.final_report
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
        for conn in list(self._connections.values()):
            await self._close_connection(conn, finish_streams=True)
        try:
            self.ingest.finish()
        except ShardError:
            pass
        self.final_report = self.ingest.multiplexer.report()
        return self.final_report

    async def _pump_loop(self) -> None:
        while True:
            try:
                processed = self.ingest.pump()
            except ShardError:
                processed = 0
            # Yield: stay hot while frames flow, back off when idle.
            await asyncio.sleep(0 if processed else 0.002)

    # ------------------------------------------------------------------
    # Result routing
    # ------------------------------------------------------------------
    def _dispatch_record(self, record: "FrameRecord", seq: Optional[int]) -> None:
        route = self._routes.get(record.key)
        if route is None or route[0].closed:
            return
        conn, handle, stats = route
        if conn.outbox.qsize() >= self.outbox_depth:
            stats.acks_shed += 1
            self.total_result_drops += 1
            return
        payload = {
            "handle": handle,
            "stream": record.key,
            "frame_index": record.frame_index,
            "seq": seq,
            "kind": record.kind.value,
            "latency_ms": (record.wait_s + record.busy_s) * 1e3,
            "degradation": (
                record.telemetry.degradation if record.telemetry is not None else ""
            ),
        }
        conn.outbox.put_nowait(encode_json(MSG_RESULT, payload))

    def _offer(self, conn: _Connection, message: bytes) -> None:
        """Queue one control reply; these are never shed."""
        if not conn.closed:
            conn.outbox.put_nowait(message)

    async def _writer_loop(self, conn: _Connection) -> None:
        try:
            while True:
                message = await conn.outbox.get()
                conn.writer.write(message)
                await conn.writer.drain()
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        conn = _Connection(writer=writer)
        self._connections[conn_id] = conn
        writer_task = asyncio.ensure_future(self._writer_loop(conn))
        buffer = bytearray()
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                buffer.extend(chunk)
                while True:
                    message = read_message(buffer)
                    if message is None:
                        break
                    if not self._handle_message(conn, *message):
                        return
        except (ConnectionError, OSError, ProtocolError):
            pass
        finally:
            writer_task.cancel()
            self._connections.pop(conn_id, None)
            await self._close_connection(conn, finish_streams=True)

    def _handle_message(self, conn: _Connection, msg_type: int, body: bytes) -> bool:
        """Process one message; returns False to end the connection."""
        if msg_type == MSG_FRAME:
            try:
                handle, seq, frame, truth = decode_frame(body)
                refusal = None
            except FrameRefused as error:
                handle, seq, frame, truth = error.handle, error.seq, None, None
                refusal = f"bad FRAME truth: {error}"
            stream_id = conn.handles.get(handle)
            if stream_id is None:
                self._offer(
                    conn,
                    encode_json(MSG_ERROR, {"handle": handle, "reason": "no stream"}),
                )
                return True
            try:
                if refusal is not None:
                    self.ingest.refuse_frame(stream_id, refusal)
                self.ingest.push_frame(stream_id, seq, frame, truth)
            except ValueError as error:
                # A refused frame: the stream stays open and seals the gap.
                self._offer(
                    conn,
                    encode_json(
                        MSG_ERROR, {"handle": handle, "seq": seq, "reason": str(error)}
                    ),
                )
            except (StreamFailedError, ShardError) as error:
                conn.handles.pop(handle, None)
                self._routes.pop(stream_id, None)
                self.ingest.abort_stream(stream_id)
                self._offer(
                    conn,
                    encode_json(
                        MSG_ERROR,
                        {"handle": handle, "stream": stream_id, "reason": str(error)},
                    ),
                )
            return True
        if msg_type == MSG_HELLO:
            self._handle_hello(conn, decode_json(body))
            return True
        if msg_type == MSG_BYE:
            self._handle_bye(conn, decode_json(body).get("handle"))
            return True
        if msg_type == MSG_STATS:
            self._offer(conn, encode_json(MSG_STATS, self.ingest.stats()))
            return True
        if msg_type == MSG_HEALTH:
            self._offer(conn, encode_json(MSG_HEALTH, self.ingest.health()))
            return True
        self._offer(
            conn,
            encode_json(MSG_ERROR, {"reason": f"unknown message type {msg_type}"}),
        )
        return True

    def _handle_hello(self, conn: _Connection, config: dict) -> None:
        handle = config.get("handle", len(conn.handles))
        name = config.get("stream") or f"net{self._next_stream_id}"
        refusal = None
        if type(handle) is not int:
            refusal = f"bad HELLO: handle {handle!r} is not an integer"
        elif not isinstance(name, str):
            refusal = f"bad HELLO: stream {name!r} is not a string"
        elif handle in conn.handles:
            refusal = f"handle {handle} is already open"
        if refusal is not None:
            self._offer(
                conn, encode_json(MSG_REJECT, {"handle": handle, "reason": refusal})
            )
            return
        self._next_stream_id += 1
        try:
            self.ingest.open_stream(name, **_hello_stream_fields(config))
        except (AdmissionError, ShardError) as error:  # a dead worker refuses too
            self._offer(
                conn,
                encode_json(MSG_REJECT, {"handle": handle, "reason": str(error)}),
            )
            return
        except ValueError as error:
            self._offer(
                conn,
                encode_json(
                    MSG_REJECT, {"handle": handle, "reason": f"bad HELLO: {error}"}
                ),
            )
            return
        conn.handles[handle] = name
        self._routes[name] = (conn, handle, self.ingest.multiplexer.stats_for(name))
        self._offer(
            conn, encode_json(MSG_HELLO_OK, {"handle": handle, "stream": name})
        )

    def _handle_bye(self, conn: _Connection, handle: object) -> None:
        stream_id = conn.handles.get(handle) if type(handle) is int else None
        if stream_id is None:
            self._offer(
                conn,
                encode_json(MSG_ERROR, {"handle": handle, "reason": "no stream"}),
            )
            return
        self._offer(conn, encode_json(MSG_BYE_OK, self._settle_stream(stream_id)))

    def _settle_stream(self, stream_id: str) -> dict:
        """Flush, process and close one stream; return its BYE_OK summary.

        The route stays up until the stream is closed, so the acks of its
        last frames queue before the summary does.
        """
        summary = {"stream": stream_id, "status": "ok"}
        try:
            self.ingest.close_stream(stream_id)
        except (StreamFailedError, ShardError) as error:
            summary.update(status="failed", reason=str(error))
        conn, handle, stats = self._routes.pop(stream_id)
        del conn.handles[handle]
        summary["handle"] = handle
        summary.update(stats.as_dict())
        return summary

    async def _close_connection(
        self, conn: _Connection, *, finish_streams: bool
    ) -> None:
        if conn.closed:
            return
        conn.closed = True
        if finish_streams:
            # Disconnect == implicit BYE for every stream still open: flush
            # what was accepted, settle the session, discard the results.
            for stream_id in list(conn.handles.values()):
                self._settle_stream(stream_id)
        try:
            conn.writer.close()
        except Exception:  # pragma: no cover - already torn down
            pass


class ServerThread:
    """Hosts an :class:`EuphratesServer` on a background event loop.

    The synchronous entry point for tests and the load generator: the
    server (and every touch of the ingest core) lives on the thread's
    event loop; the caller talks TCP from the outside.
    """

    def __init__(self, ingest: IngestCore, **server_kwargs) -> None:
        self.server = EuphratesServer(ingest, **server_kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="euphrates-serve", daemon=True
        )
        self._started = threading.Event()

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._started.set()
        self._loop.run_forever()
        # Drain cancelled tasks so the loop closes cleanly.
        pending = asyncio.all_tasks(self._loop)
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self._loop.close()

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("server failed to start within 10s")
        return self

    @property
    def port(self) -> int:
        return self.server.port

    def shutdown(self) -> "MultiplexerReport | None":
        """Graceful drain from the caller's thread; returns the report.

        Idempotent: a second call returns the report of the first.
        """
        if self._loop.is_closed():
            return self.server.final_report
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self._loop
        )
        report = future.result(timeout=120.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        return report

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class ServeClient:
    """Blocking-socket client for the serve protocol (tests + load gen).

    Speaks the length-prefixed wire protocol of ``docs/wire-protocol.md``
    over one TCP connection: :meth:`hello` opens a stream handle (raising
    :class:`AdmissionError` on an admission REJECT), :meth:`send_frame`
    ships a luma frame with optional ground truth as a binary FRAME
    message, and :meth:`bye` closes the handle and returns the server's
    end-of-stream summary.  Inbound RESULT/ERROR messages are collected in
    :attr:`results` / :attr:`errors` as a side effect of :meth:`poll` and
    :meth:`wait_for` (results arrive asynchronously — frames are priced
    and batched server-side, so one frame does not mean one immediate
    result).  :meth:`send_raw` writes arbitrary bytes, which is how the
    fault-injection tests corrupt the stream mid-flight.  The client is
    deliberately synchronous and single-threaded; it is a test instrument,
    not a production SDK.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()
        self.results: List[dict] = []
        self.errors: List[dict] = []
        self._inbox: List[Tuple[int, dict]] = []

    # -- outbound -------------------------------------------------------
    def hello(
        self,
        *,
        handle: int,
        stream: Optional[str] = None,
        width: int,
        height: int,
        fps: float = 30.0,
        window_size: int = 1,
        rois: int = 1,
    ) -> dict:
        config = {
            "handle": handle,
            "width": width,
            "height": height,
            "fps": fps,
            "window_size": window_size,
            "rois": rois,
        }
        if stream is not None:
            config["stream"] = stream
        self._sock.sendall(encode_json(MSG_HELLO, config))
        msg_type, payload = self.wait_for(MSG_HELLO_OK, MSG_REJECT)
        if msg_type == MSG_REJECT:
            raise AdmissionError(payload.get("reason", "rejected"))
        return payload

    def send_frame(
        self,
        handle: int,
        seq: int,
        frame: np.ndarray,
        truth: Optional[Sequence[Detection]] = None,
    ) -> None:
        self._sock.sendall(encode_frame(handle, seq, frame, truth))

    def send_raw(self, data: bytes) -> None:
        self._sock.sendall(data)

    def bye(self, handle: int, timeout: float = 120.0) -> dict:
        """Settle ``handle`` and return its summary.

        Raises :class:`StreamFailedError` when the server answers with an
        error for this handle instead — the stream already failed (and was
        torn down) or the handle is unknown.  Errors addressed to *other*
        handles, and refused-frame errors (they carry a ``seq``), are
        stashed in :attr:`errors` and the wait continues.
        """
        self._sock.sendall(encode_json(MSG_BYE, {"handle": handle}))
        while True:
            msg_type, payload = self.wait_for(MSG_BYE_OK, MSG_ERROR, timeout=timeout)
            if msg_type == MSG_BYE_OK:
                if int(payload.get("handle", handle)) != handle:
                    continue
                return payload
            if "seq" not in payload and int(payload.get("handle", handle)) == handle:
                raise StreamFailedError(
                    payload.get("stream", str(handle)),
                    payload.get("reason", "stream failed"),
                )

    def stats(self) -> dict:
        self._sock.sendall(encode_json(MSG_STATS, {}))
        _, payload = self.wait_for(MSG_STATS)
        return payload

    def health(self) -> dict:
        self._sock.sendall(encode_json(MSG_HEALTH, {}))
        _, payload = self.wait_for(MSG_HEALTH)
        return payload

    # -- inbound --------------------------------------------------------
    def _classify(self, msg_type: int, body: bytes) -> Tuple[int, dict]:
        payload = decode_json(body)
        if msg_type == MSG_RESULT:
            self.results.append(payload)
        elif msg_type == MSG_ERROR:
            self.errors.append(payload)
        return msg_type, payload

    def poll(self, timeout: float = 0.0) -> List[Tuple[int, dict]]:
        """Read whatever messages are available within ``timeout``."""
        self._sock.settimeout(timeout if timeout > 0 else 0.000001)
        drained: List[Tuple[int, dict]] = []
        try:
            while True:
                message = read_message(self._buffer)
                if message is not None:
                    drained.append(self._classify(*message))
                    continue
                chunk = self._sock.recv(65536)
                if not chunk:
                    break
                self._buffer.extend(chunk)
        except (socket.timeout, BlockingIOError):
            pass
        return drained

    def wait_for(self, *msg_types: int, timeout: float = 30.0) -> Tuple[int, dict]:
        """Block until a message of one of ``msg_types`` arrives."""
        deadline = None if timeout is None else (timeout)
        self._sock.settimeout(deadline)
        while True:
            message = read_message(self._buffer)
            if message is not None:
                msg_type, payload = self._classify(*message)
                if msg_type in msg_types:
                    return msg_type, payload
                continue
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer.extend(chunk)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
