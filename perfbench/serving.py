"""``serve_paced``: four cameras paced over real TCP, open loop.

The server runs in its own process (``serve_host.py``) with one executor
worker.  This process is the load generator: single-threaded, two
connections of two stream handles each.  Every stream sends 96x54 frames
at the rate it declared in HELLO, a fixed constant, whatever the server
does: 4 x 16.4 = 65.6 frames/s.  Each frame is timed from when it was due
to be sent.

The rate keeps the server's one worker well below saturation on a 2-core
host.  At twice the rate (8 streams, 0.9 of the modeled ``CapacityModel``
capacity) the worker was busy more than half the time (4.2 ms a frame at
131 frames/s), and the median latency moved between 8 and 16 ms from run
to run as the host's speed varied: it measured queueing, not the frame
path.

Per stream, one frame in twenty is withheld (lost in flight, in bursts of
four) and one adjacent pair in twenty is swapped (a reorder), at seeded
positions.  A loss makes the server's reorder window hold the next eight
frames until it seals the gap, so the latency tail measures gap sealing,
and the median the frame path.  Every timed frame gets a fate: acked, acked late (after
:data:`LATENCY_LIMIT_MS`), gap-sealed (the first frame after a drop) or
unacked (the server shed its ack, or it never came).  Percentiles cover
every timed frame; an unacked one counts as waiting until the run gave up
on it.  Withheld frames are not attempted.
"""

from __future__ import annotations

import json
import random
import selectors
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from benchlib import median, output_summary, percentile, windowed_percentile

STREAMS = 4
CONNECTIONS = 2
WIDTH, HEIGHT = 96, 54
#: Frames per second each stream declares in HELLO and is sent at.
STREAM_FPS = 16.4
#: The default spec's extrapolation window, declared for admission.
DECLARED_WINDOW = 2
#: Faults per segment of this many timed frames: one burst of
#: :data:`DROP_BURST` consecutive drops and :data:`SWAPS` adjacent swaps,
#: so 5% of frames are withheld and 5% of positions reordered.
FAULT_SEGMENT = 80
DROP_BURST = 4
SWAPS = 4
#: The server's reorder window: frames after a drop wait for this many more.
REORDER_WINDOW = 8
#: Untimed frames per stream before timing (sent at once, acks awaited).
WARMUP_FRAMES = 4
#: Untimed frames per stream after the timed ones, so a drop near the end
#: is sealed like any other instead of waiting for the end of the stream.
TAIL_FRAMES = REORDER_WINDOW + 1
#: A timed frame acked later than this after it was due has failed.
LATENCY_LIMIT_MS = 1000.0
#: Latency percentiles are medians over up to this many consecutive slices
#: of the timed frames, in the order they were due.
LATENCY_WINDOWS = 4

HOST = Path(__file__).resolve().parent / "serve_host.py"


def fault_plan(rng: random.Random, timed: int) -> Tuple[List[int], List[int]]:
    """Withheld positions and swap positions among ``timed`` frames.

    Per segment, the drop burst sits early and the swaps after the frames
    the burst holds back, never overlapping.  Losses come in bursts, as on
    a real link; a burst of any length holds back :data:`REORDER_WINDOW`
    frames, so bursts keep most frames off the reorder wait and the median
    on the frame path.
    """
    drops, swaps = [], []
    held = DROP_BURST + REORDER_WINDOW
    for start in range(0, timed - FAULT_SEGMENT + 1, FAULT_SEGMENT):
        burst = start + rng.randint(0, FAULT_SEGMENT // 4)
        drops.extend(range(burst, burst + DROP_BURST))
        candidates = range(burst + held + 1, start + FAULT_SEGMENT - 1, 3)
        swaps.extend(sorted(rng.sample(candidates, SWAPS)))
    return drops, swaps


class Stream:
    """One camera: its clip, and the seq sent in every slot of the schedule."""

    def __init__(self, index: int, seed: int, timed: int) -> None:
        from repro.video.synthetic import SequenceConfig, SequenceGenerator

        self.index = index
        self.name = f"cam{index}"
        self.timed = timed
        total = WARMUP_FRAMES + timed + TAIL_FRAMES
        self.clip = SequenceGenerator(
            SequenceConfig(
                name=self.name, frame_width=WIDTH, frame_height=HEIGHT,
                num_frames=total, num_objects=1, seed=10_000 + 100 * seed + index,
            )
        ).generate()
        self.truth = [self.clip.truth_detections(i) for i in range(total)]
        drops, swaps = fault_plan(random.Random(seed * 7919 + index), timed)
        slots: List[object] = list(range(WARMUP_FRAMES, total))
        for slot in swaps:
            slots[slot], slots[slot + 1] = slots[slot + 1], slots[slot]
        for slot in drops:
            slots[slot] = None
        #: Seq sent in each schedule slot after warm-up (``None``: withheld).
        self.slots = slots
        self.withheld = len(drops)
        #: Seqs the server receives, in the order its reorder window releases
        #: them: its ``frame_index`` ``i`` is the frame of seq ``accepted[i]``.
        self.accepted = list(range(WARMUP_FRAMES)) + sorted(s for s in slots if s is not None)

    def send(self, client, seq: int) -> None:
        client.send_frame(self.index, seq, self.clip.frames[seq], truth=self.truth[seq])


class Server:
    """The server process and the generator's connections to it.

    Starting one is the workload's set-up: spawn the server, connect,
    admit every stream with HELLO and have the warm-up frames acked.
    """

    def __init__(self, streams: List[Stream]) -> None:
        from repro.core.server import ServeClient

        self.streams = streams
        self.process = subprocess.Popen(
            [sys.executable, str(HOST)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            port = json.loads(self.process.stdout.readline())["port"]
            self.clients = [ServeClient("127.0.0.1", port) for _ in range(CONNECTIONS)]
            for stream in streams:
                self.client_of(stream).hello(
                    handle=stream.index, stream=stream.name, width=WIDTH, height=HEIGHT,
                    fps=STREAM_FPS, window_size=DECLARED_WINDOW,
                )
            self._warm_up(streams)
        except BaseException:
            for client in getattr(self, "clients", []):
                client.close()
            self.process.kill()
            self.process.wait()
            raise

    def client_of(self, stream: Stream):
        return self.clients[stream.index * CONNECTIONS // STREAMS]

    def command(self, line: str) -> None:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()

    def _warm_up(self, streams: List[Stream], timeout_s: float = 60.0) -> None:
        """Send the warm-up frames at once and wait for all their acks."""
        for seq in range(WARMUP_FRAMES):
            for stream in streams:
                stream.send(self.client_of(stream), seq)
        wanted = {(s.index, seq) for s in streams for seq in range(WARMUP_FRAMES)}
        deadline = time.perf_counter() + timeout_s
        while wanted:
            if time.perf_counter() > deadline:
                raise RuntimeError(f"{len(wanted)} warm-up frames were never acked")
            for client in self.clients:
                client.poll(timeout=0.005)
                for ack in client.results:
                    wanted.discard((ack["handle"], ack["seq"]))
                client.results.clear()

    def close(self) -> Tuple[Dict[str, dict], dict]:
        """BYE every stream, stop the server; its summaries and report."""
        summaries = {}
        try:
            for stream in self.streams:
                summaries[stream.name] = self.client_of(stream).bye(stream.index)
        finally:
            for client in self.clients:
                client.close()
            out, _ = self.process.communicate("stop\n", timeout=120)
        if self.process.returncode != 0:
            raise RuntimeError(f"server process exited with {self.process.returncode}")
        report = json.loads(out.strip().splitlines()[-1])["report"]
        return summaries, report


def pace(
    offsets: Sequence[float],
    send: Callable[[int], None],
    wait: Callable[[float], None],
    done: Callable[[float], bool],
    start: float,
    clock: Callable[[], float] = time.perf_counter,
) -> List[float]:
    """Open loop: call ``send(i)`` once ``offsets[i]`` seconds after ``start``.

    ``offsets`` are sorted.  Between sends the loop calls ``wait(timeout)``,
    which may return early (on input); after the last send it keeps
    waiting until ``done(elapsed)``.  A late send never shifts the ones
    after it.  Returns how late each send ran.
    """
    lags: List[float] = []
    index = 0
    while True:
        now = clock() - start
        while index < len(offsets) and offsets[index] <= now:
            send(index)
            lags.append(clock() - start - offsets[index])
            index += 1
            now = clock() - start
        if index == len(offsets):
            if done(now):
                return lags
            wait(0.05)
        else:
            wait(offsets[index] - now)


def _drive(server: Server, streams: List[Stream], seconds: float, traced: bool) -> dict:
    """Send the paced schedule; collect every ack of a timed frame."""
    events = sorted(
        ((slot + stream.index / STREAMS) / STREAM_FPS, stream.index, slot, seq)
        for stream in streams
        for slot, seq in enumerate(stream.slots)
        if seq is not None
    )
    offsets = [event[0] for event in events]
    timed = [slot < streams[index].timed for _, index, slot, _ in events]
    last_timed_due = max(offset for offset, is_timed in zip(offsets, timed) if is_timed)
    give_up = last_timed_due + 2 * LATENCY_LIMIT_MS / 1e3
    split = seconds / 2 if traced else None

    due: Dict[Tuple[int, int], float] = {}
    acks: Dict[Tuple[int, int], Tuple[float, dict]] = {}
    clock = time.perf_counter
    start = clock()

    def send(i: int) -> None:
        nonlocal split
        offset, index, _, seq = events[i]
        if split is not None and offset >= split:
            server.command("trace")
            split = None
        stream = streams[index]
        stream.send(server.client_of(stream), seq)
        if timed[i]:
            due[(index, seq)] = start + offset

    selector = selectors.DefaultSelector()
    for client in server.clients:
        # Readiness only: reads go through ServeClient.poll.
        selector.register(client._sock, selectors.EVENT_READ, client)

    def wait(timeout: float) -> None:
        for key, _ in selector.select(max(0.0, timeout)):
            client = key.data
            client.poll()
            received = clock()
            for ack in client.results:
                frame = (ack["handle"], ack["seq"])
                if frame in due and frame not in acks:
                    acks[frame] = (received, ack)
            client.results.clear()

    def done(elapsed: float) -> bool:
        return len(acks) == len(due) or elapsed >= give_up

    try:
        lags = pace(offsets, send, wait, done, start, clock)
    finally:
        selector.close()
    return {
        "start": start, "due": due, "acks": acks,
        "lags": [lag for lag, is_timed in zip(lags, timed) if is_timed],
        "split": start + seconds / 2, "ended": clock(),
        "last_ack": max((received for received, _ in acks.values()), default=clock()),
    }


def _checked_results(streams: List[Stream], results: Dict[str, list]) -> list:
    """One ``SequenceResult`` per stream of every frame the server processed.

    Frames are indexed by their seq, known from the seeded schedule, so the
    check covers every frame whether or not its ack reached the generator:
    ack losses are a matter for ``ok_share`` and the frame fates.
    """
    from repro.core.geometry import BoundingBox
    from repro.core.types import Detection, FrameKind, FrameResult, SequenceResult

    return [
        SequenceResult(sequence_name=stream.name, frames=[
            FrameResult(
                frame_index=stream.accepted[frame_index],
                kind=FrameKind(kind),
                detections=[Detection(box=BoundingBox(*box)) for box in boxes],
                window_size=window,
            )
            for frame_index, kind, window, boxes in results[stream.name]
        ])
        for stream in streams
    ]


def make_inputs(seed: int, seconds: float, setup_only: bool = False) -> List[Stream]:
    """Every camera's clip and schedule; a set-up alone sends only warm-up frames."""
    timed = 0 if setup_only else round(seconds * STREAM_FPS)
    return [Stream(index, seed, timed) for index in range(STREAMS)]


def set_up(streams: List[Stream]) -> Server:
    return Server(streams)


def tear_down(server: Server) -> None:
    server.close()


def run(streams: List[Stream], server: Server, seconds: float, tracer) -> dict:
    from repro import PipelineSpec

    try:
        run_log = _drive(server, streams, seconds, tracer is not None)
    finally:
        summaries, report = server.close()

    due, acks = run_log["due"], run_log["acks"]
    shed = min(report["acks_shed"], len(due) - len(acks))
    latencies_ms, ok, late, gap_sealed = [], 0, 0, 0
    transit_ms, server_ms = [], {True: [], False: []}
    for frame, due_at in due.items():
        if frame not in acks:
            latencies_ms.append(1e3 * (run_log["ended"] - due_at))
            continue
        received, ack = acks[frame]
        latency = 1e3 * (received - due_at)
        latencies_ms.append(latency)
        transit_ms.append(latency - ack["latency_ms"])
        server_ms[due_at >= run_log["split"]].append(ack["latency_ms"])
        if latency > LATENCY_LIMIT_MS:
            late += 1
            continue
        ok += 1
        gap_sealed += "dropped-frame-gap" in ack["degradation"]
    attempted = len(due)
    failed = attempted - ok
    fates = {
        "acked": ok - gap_sealed, "gap_sealed": gap_sealed, "acked_late": late,
        "ack_shed": shed, "missing": attempted - len(acks) - shed,
    }

    summary = output_summary(
        _checked_results(streams, report["results"]),
        [stream.clip for stream in streams],
        report["energy_mj_per_frame"],
    )
    timed_wall = run_log["last_ack"] - run_log["start"]
    # Short runs get fewer slices: p95 needs 200 samples in each.
    windows = max(1, min(LATENCY_WINDOWS, len(latencies_ms) // 200))
    end_to_end = {
        "fps": ok / timed_wall,
        "latency_p50_ms": windowed_percentile(latencies_ms, 50, windows),
        "latency_p95_ms": windowed_percentile(latencies_ms, 95, windows),
        "energy_mj_per_frame": summary["energy_mj_per_frame"],
        "inference_share": summary["inference_share"],
        "accuracy": summary["accuracy"],
        "ok_share": ok / attempted,
        "peak_rss_mb": report["peak_rss_mb"],
    }

    faults: Dict[str, int] = {}
    for stream_summary in summaries.values():
        for key, value in (stream_summary.get("faults") or {}).items():
            faults[key] = faults.get(key, 0) + value
    extras = {
        "window.mean_size": summary["window_mean_size"],
        "mux.batch_size_mean": report["batch_size_mean"],
        "ingest.gaps_sealed": faults.get("gaps", 0),
        "ingest.reordered": faults.get("reordered", 0),
        "ingest.overload_drops": faults.get("overload_drops", 0),
        "ingest.degraded_submits": faults.get("degraded_submits", 0),
        "server.acks_shed": report["acks_shed"],
        "server.transit_ms": median(transit_ms) if transit_ms else 0.0,
        "gen.lag_p95_ms": percentile([1e3 * lag for lag in run_log["lags"]], 95),
        "gen.frames_sent": attempted,
        "gen.frames_withheld": sum(stream.withheld for stream in streams),
    }
    if tracer is not None:
        tracer.absorb(report["trace"])
        untraced, traced = server_ms[False], server_ms[True]
        extras["trace.overhead_pct"] = 100.0 * (
            (sum(traced) / len(traced)) / (sum(untraced) / len(untraced)) - 1.0
        )
    return {
        "end_to_end": end_to_end,
        "extras": extras,
        "attempted": attempted,
        "failed": failed,
        "summary": summary,
        # The degrade overload policy defers the I-frames of a stream whose
        # queue backs up, so such a stream's output depends on timing.
        "unchecked": sorted(name for name, stream_summary in summaries.items()
                            if (stream_summary.get("faults") or {}).get("degraded_submits")),
        "details": {
            "latency_samples": len(latencies_ms),
            "fates": fates,
            "faults": faults,
            "stream_fps": STREAM_FPS,
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "kernel_backend": PipelineSpec().kernel_backend,
        },
    }
