"""Server process of the ``serve_paced`` workload.

Started by ``serving.py`` as ``python3 perfbench/serve_host.py``.  It serves
the default spec over TCP on a free localhost port with one executor
worker (in process), prints ``{"port": N}``, then reads commands from
stdin, one a line:

* ``trace`` -- wrap every layer (see ``layers.py``) from now on;
* ``stop``  -- drain gracefully and print ``{"report": {...}}``: modeled
  energy, batching, shed acks, peak memory, every closed stream's results
  and, when traced, the span totals.
"""

from __future__ import annotations

import asyncio
import json
import sys

import benchlib

benchlib.use_source_tree()

from repro import PipelineSpec, StreamMultiplexer, tracking_backend_for  # noqa: E402
from repro.core.ingest import IngestConfig, IngestCore  # noqa: E402
from repro.core.server import EuphratesServer  # noqa: E402
from repro.nn.models import build_mdnet  # noqa: E402
from repro.soc.frame_cost import CapacityModel  # noqa: E402


class RecordingIngest(IngestCore):
    """An ingest core that keeps every closed stream's result for the check."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.closed_results = {}

    def close_stream(self, stream_id):
        result = super().close_stream(stream_id)
        self.closed_results[stream_id] = result
        return result


def build_ingest() -> RecordingIngest:
    spec = PipelineSpec()
    soc = spec.vision_soc()
    network = build_mdnet()
    multiplexer = StreamMultiplexer(
        spec.build(tracking_backend_for("mdnet")),
        soc=soc,
        network=network,
        extrapolation_on_cpu=spec.extrapolation_on_cpu,
        workers=1,
        isolate_failures=True,
    )
    return RecordingIngest(
        multiplexer,
        capacity=CapacityModel(soc, network, extrapolation_on_cpu=spec.extrapolation_on_cpu),
        config=IngestConfig(),
    )


async def serve() -> dict:
    ingest = build_ingest()
    server = EuphratesServer(ingest)
    await server.start()
    print(json.dumps({"port": server.port}), flush=True)

    tracer = None
    loop = asyncio.get_running_loop()
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        command = line.strip()
        if command == "trace" and tracer is None:
            from layers import Tracer

            # Installed on the event loop, between two scheduling rounds.
            tracer = Tracer()
            tracer.install()
        elif command == "stop" or not line:
            break

    report = await server.shutdown()
    results = {
        stream: [
            [frame.frame_index, frame.kind.value, frame.window_size, benchlib.result_boxes(frame)]
            for frame in result.frames
        ]
        for stream, result in ingest.closed_results.items()
    }
    return {
        "energy_mj_per_frame": report.aggregate_energy_per_frame_j * 1e3,
        "frames_processed": report.frames_processed,
        "batch_size_mean": report.mean_batch_size,
        "acks_shed": server.total_result_drops,
        "peak_rss_mb": benchlib.peak_rss_mb(),
        "results": results,
        "trace": tracer.export() if tracer is not None else None,
    }


if __name__ == "__main__":
    print(json.dumps({"report": asyncio.run(serve())}), flush=True)
