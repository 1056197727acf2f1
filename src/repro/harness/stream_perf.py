"""Multi-camera load generators: the multiplexer and the TCP serving stack.

Two measurements behind ``python -m repro.harness bench stream`` and
``bench serve``:

* :func:`benchmark_multiplexer` feeds N synthetic camera streams through
  the :class:`~repro.core.streaming.StreamMultiplexer` (fair-share E-frame
  interleaving, batched I-frame inference, optional worker shards over the
  shared-memory transport) and compares it with running the same streams
  one after another through dedicated sessions;
* :func:`benchmark_serving` drives the real TCP front end
  (:class:`~repro.core.server.EuphratesServer` over
  :class:`~repro.core.ingest.IngestCore`): N cameras connect, are admitted
  against the :class:`~repro.soc.frame_cost.CapacityModel` M/D/1 budget,
  and replay their frames with injected drop/reorder/burst faults while the
  client times every result ack.

Both return one JSON-ready trajectory entry and record the modeled SoC
energy per stream, which is deterministic for a given spec and workload.
"""

from __future__ import annotations

import random
import time
from typing import List

from ..core.backends import tracking_backend_for
from ..core.ingest import MSG_BYE, MSG_BYE_OK, IngestConfig, IngestCore, encode_json
from ..core.server import ServeClient, ServerThread
from ..core.spec import PipelineSpec
from ..core.streaming import StreamMultiplexer
from ..nn.models import build_mdnet
from ..soc.frame_cost import CapacityModel
from ..video.synthetic import SequenceConfig, SequenceGenerator

#: Faults the serve load generator can inject.
FAULT_KINDS = ("drop", "reorder", "burst")


def make_cameras(count: int, frames: int, width: int, height: int, seed: int) -> List:
    """N single-object synthetic camera streams with distinct content."""
    return [
        SequenceGenerator(
            SequenceConfig(
                name=f"camera_{index}",
                frame_width=width,
                frame_height=height,
                num_frames=frames,
                num_objects=1,
                seed=seed + index,
            )
        ).generate()
        for index in range(count)
    ]


def benchmark_multiplexer(
    spec: PipelineSpec,
    streams: int,
    frames: int,
    width: int,
    height: int,
    seed: int,
    e_frame_burst: int,
    max_inference_batch: int,
    workers: int = 1,
    transport: str = "auto",
) -> dict:
    """Multiplexed vs serial throughput of N streams, with modeled energy."""
    sequences = make_cameras(streams, frames, width, height, seed)
    backend = tracking_backend_for("mdnet", seed=seed)

    # Serial baseline: each stream through its own dedicated session, one
    # after the other (what the pre-multiplexer API amounted to).  Sessions
    # are opened outside the timed region so both sides of the ratio
    # measure frame processing only — the multiplexer's wall_s likewise
    # covers drain(), with session setup done in untimed add_stream().
    serial_sessions = [
        spec.build(tracking_backend_for("mdnet", seed=seed)).open_session(
            sequence.width, sequence.height, name=sequence.name
        )
        for sequence in sequences
    ]
    # Warm-up: run one stream through a throwaway session so neither timed
    # region pays first-call costs (allocator, code paths) — the serial
    # region runs first and would otherwise absorb them all.
    spec.build(tracking_backend_for("mdnet", seed=seed)).run(sequences[0])

    serial_start = time.perf_counter()
    for session, sequence in zip(serial_sessions, sequences):
        for index, frame in sequence.iter_frames():
            session.submit(frame, truth=sequence.truth_detections(index))
        session.finish()
    serial_s = time.perf_counter() - serial_start
    total_frames = sum(sequence.num_frames for sequence in sequences)

    # Multiplexed: all streams concurrently through one scheduler, with the
    # spec's SoC model attached so every frame is priced as it is processed
    # (batched I-frames amortise NNX weight traffic across streams).
    multiplexer = StreamMultiplexer(
        spec.build(backend),
        e_frame_burst=e_frame_burst,
        max_inference_batch=max_inference_batch,
        soc=spec.vision_soc(),
        network=build_mdnet(),
        extrapolation_on_cpu=spec.extrapolation_on_cpu,
        workers=workers,
        transport=transport,
    )
    # Frame i of every camera before frame i+1 of any, as cameras deliver
    # them: worker shards start on the first frames while the rest arrive,
    # so a clip fed whole would run its I-frames without batch mates.
    for sequence in sequences:
        multiplexer.add_stream(sequence.name, width=width, height=height)
    for index in range(frames):
        for sequence in sequences:
            multiplexer.submit(
                sequence.name,
                sequence.frame(index),
                truth=sequence.truth_detections(index),
            )
    results = multiplexer.finish()
    report = multiplexer.report()
    assert all(len(results[s.name]) == s.num_frames for s in sequences)

    return {
        "benchmark": "multi_stream",
        "spec": spec.to_cli_args(),
        "spec_label": spec.describe(),
        "streams": streams,
        "frames_per_stream": frames,
        "frame_width": width,
        "frame_height": height,
        "e_frame_burst": e_frame_burst,
        "max_inference_batch": max_inference_batch,
        "workers": report.workers,
        "transport": report.transport,
        "total_frames": report.frames_processed,
        "inference_frames": report.inference_frames,
        "extrapolation_frames": report.extrapolation_frames,
        "inference_batches": report.inference_batches,
        "mean_batch_size": report.mean_batch_size,
        "mux_wall_s": report.wall_s,
        "mux_aggregate_fps": report.aggregate_fps,
        "serial_wall_s": serial_s,
        "serial_aggregate_fps": total_frames / serial_s if serial_s > 0 else 0.0,
        "mux_vs_serial": (serial_s / report.wall_s) if report.wall_s > 0 else 0.0,
        # Modeled SoC energy (deterministic for a given spec + workload):
        # per-stream energy-per-frame plus the multi-camera aggregate.  The
        # aggregate is the exact shared-SoC figure (static power settled
        # once across streams); the per-stream sum is kept as the upper
        # bound it historically reported.
        "aggregate_energy_per_frame_mj": report.aggregate_energy_per_frame_j * 1e3,
        "aggregate_energy_upper_bound_mj": (
            report.aggregate_energy_upper_bound_j * 1e3
        ),
        "aggregate_power_w": report.aggregate_power_w,
        "per_stream": [
            {
                **stats.as_dict(),
                "energy_per_frame_mj": (
                    report.stream_energy[stats.name].energy_per_frame_j * 1e3
                ),
                "soc_power_w": (
                    report.stream_energy[stats.name].total_energy_j
                    / report.stream_energy[stats.name].wall_time_s
                ),
            }
            for stats in report.streams
        ],
    }


def fault_schedule(
    frames: int,
    faults: set,
    rng: random.Random,
    drop_rate: float,
    reorder_rate: float,
) -> list:
    """The seqs one camera actually sends, in arrival order."""
    seqs = list(range(frames))
    if "drop" in faults:
        seqs = [s for s in seqs if rng.random() >= drop_rate] or [0]
    if "reorder" in faults:
        for index in range(len(seqs) - 1):
            if rng.random() < reorder_rate:
                seqs[index], seqs[index + 1] = seqs[index + 1], seqs[index]
    return seqs


def percentile(values: list, fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))]


def benchmark_serving(
    spec: PipelineSpec,
    cameras: int,
    frames: int,
    width: int,
    height: int,
    seed: int,
    faults: set,
    drop_rate: float,
    reorder_rate: float,
    burst_rate: float,
    workers: int,
    queue_capacity: int,
    overload_policy: str,
    target_utilization: float,
) -> dict:
    """Client-observed ack latency of a fault-injected camera fleet over TCP."""
    sequences = make_cameras(cameras, frames, width, height, seed)
    soc = spec.vision_soc()
    network = build_mdnet()
    capacity = CapacityModel(soc, network, extrapolation_on_cpu=spec.extrapolation_on_cpu)
    window_size = (
        spec.extrapolation_window
        if isinstance(spec.extrapolation_window, int)
        else 1
    )
    # Declared per-camera rate: fill ``target_utilization`` of the shared
    # backend across all cameras, so admission control admits the whole
    # fleet while still pricing it against the real budget.
    service_s = capacity.frame_service_time_s(window_size)
    declared_fps = target_utilization / (cameras * service_s)

    multiplexer = StreamMultiplexer(
        spec.build(tracking_backend_for("mdnet", seed=seed)),
        soc=soc,
        network=network,
        extrapolation_on_cpu=spec.extrapolation_on_cpu,
        workers=workers,
        transport=spec.transport,
        isolate_failures=True,
    )
    ingest = IngestCore(
        multiplexer,
        capacity=capacity,
        config=IngestConfig(
            queue_capacity=queue_capacity, overload_policy=overload_policy
        ),
    )

    rng = random.Random(seed)
    schedules = [
        fault_schedule(
            frames, faults, random.Random(seed * 7919 + index), drop_rate, reorder_rate
        )
        for index in range(cameras)
    ]
    latencies_ms: list = []
    send_times: dict = {}
    wall_start = time.perf_counter()

    def drain_client(index: int, client: ServeClient, timeout: float = 0.0) -> list:
        messages = client.poll(timeout=timeout)
        while client.results:
            record = client.results.pop()
            key = (index, record.get("seq"))
            sent = send_times.pop(key, None)
            if sent is not None:
                latencies_ms.append((time.perf_counter() - sent) * 1e3)
        return messages

    with ServerThread(ingest) as server:
        clients = []
        try:
            for index, sequence in enumerate(sequences):
                client = ServeClient("127.0.0.1", server.port)
                client.hello(
                    handle=index,
                    stream=sequence.name,
                    width=width,
                    height=height,
                    fps=declared_fps,
                    window_size=window_size,
                )
                clients.append(client)
            projection = ingest.projected_queueing()

            # Round-robin replay with per-camera fault schedules.
            cursors = [0] * cameras
            live = set(range(cameras))
            while live:
                for index in sorted(live):
                    sequence, schedule = sequences[index], schedules[index]
                    burst = (
                        3 if "burst" in faults and rng.random() < burst_rate else 1
                    )
                    for _ in range(burst):
                        if cursors[index] >= len(schedule):
                            live.discard(index)
                            break
                        seq = schedule[cursors[index]]
                        cursors[index] += 1
                        send_times[(index, seq)] = time.perf_counter()
                        clients[index].send_frame(
                            index,
                            seq,
                            sequence.frame(seq),
                            truth=sequence.truth_detections(seq),
                        )
                    drain_client(index, clients[index])

            # BYE answers only after the stream's last frame is processed
            # and its ack queued, so a camera's remaining acks (frames its
            # reorder window held until the flush among them) arrive before
            # its BYE_OK.  Every client is read meanwhile, so acks are timed
            # as they arrive.
            for index, client in enumerate(clients):
                client.send_raw(encode_json(MSG_BYE, {"handle": index}))
            byes: dict = {}
            deadline = time.perf_counter() + 120.0
            while len(byes) < cameras:
                if time.perf_counter() > deadline:
                    raise RuntimeError(f"{cameras - len(byes)} BYEs never answered")
                for index, client in enumerate(clients):
                    for msg_type, payload in drain_client(index, client, 0.002):
                        if msg_type == MSG_BYE_OK:
                            byes[index] = payload
            summaries = [byes[index] for index in range(cameras)]
        finally:
            for client in clients:
                client.close()
        report = server.shutdown()
    wall_s = time.perf_counter() - wall_start

    accepted = sum(s.get("frames_processed", 0) for s in summaries)
    fault_totals: dict = {}
    for summary in summaries:
        for key, value in (summary.get("faults") or {}).items():
            fault_totals[key] = fault_totals.get(key, 0) + value

    assert report is not None and report.shared_energy is not None, (
        "graceful drain must settle the shared SoC pool"
    )
    return {
        "benchmark": "serve",
        "spec": spec.to_cli_args(),
        "spec_label": spec.describe(),
        "cameras": cameras,
        "frames_per_camera": frames,
        "frame_width": width,
        "frame_height": height,
        "faults": sorted(faults),
        "drop_rate": drop_rate if "drop" in faults else 0.0,
        "reorder_rate": reorder_rate if "reorder" in faults else 0.0,
        "burst_rate": burst_rate if "burst" in faults else 0.0,
        "workers": report.workers,
        "transport": report.transport,
        "overload_policy": overload_policy,
        "queue_capacity": queue_capacity,
        "declared_fps_per_camera": declared_fps,
        "projected_utilization": (
            projection.utilization if projection is not None else None
        ),
        "frames_sent": sum(len(s) for s in schedules),
        "frames_accepted": accepted,
        "frames_processed": report.frames_processed,
        "result_acks": len(latencies_ms),
        "latency_p50_ms": percentile(latencies_ms, 0.50),
        "latency_p99_ms": percentile(latencies_ms, 0.99),
        "latency_mean_ms": (
            sum(latencies_ms) / len(latencies_ms) if latencies_ms else 0.0
        ),
        "wall_s": wall_s,
        "fault_totals": fault_totals,
        "aggregate_energy_j": report.aggregate_energy_j,
        "aggregate_energy_per_frame_mj": report.aggregate_energy_per_frame_j * 1e3,
        "shared_energy_exact": report.shared_energy is not None,
        "per_stream": [
            {
                "name": name,
                "frames": breakdown.num_frames,
                "energy_per_frame_mj": breakdown.energy_per_frame_j * 1e3,
            }
            for name, breakdown in sorted(report.stream_energy.items())
        ],
    }


__all__ = [
    "FAULT_KINDS",
    "benchmark_multiplexer",
    "benchmark_serving",
    "fault_schedule",
    "make_cameras",
    "percentile",
]
