"""Perf smoke: the TCP serving path under drop/reorder faults.

Marked ``perf`` and excluded from the default pytest run (see ``pytest.ini``);
run explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_serve.py -m perf -q

CI runs the same workload through ``python -m repro.harness bench serve
--preset ci --faults drop,reorder --guard`` (the ``serve-smoke`` job), which
also enforces the ``max_serve_p99_latency_ms`` ceiling stored in
``BENCH_motion.json``.
"""

from __future__ import annotations

import pytest

from repro.core.spec import PipelineSpec
from repro.harness.bench import SERVE_PRESETS
from repro.harness.stream_perf import benchmark_serving
from repro.harness.trajectory import DEFAULT_FLOORS

pytestmark = pytest.mark.perf


def test_ci_preset_under_p99_ceiling():
    cameras, frames, width, height = SERVE_PRESETS["ci"]
    entry = benchmark_serving(
        PipelineSpec(),
        cameras=cameras,
        frames=frames,
        width=width,
        height=height,
        seed=0,
        faults={"drop", "reorder"},
        drop_rate=0.05,
        reorder_rate=0.05,
        burst_rate=0.0,
        workers=1,
        queue_capacity=32,
        overload_policy="degrade",
        target_utilization=0.9,
    )
    # The whole fleet was admitted and every surviving frame processed.
    assert entry["projected_utilization"] < 1.0
    assert entry["frames_accepted"] == entry["frames_sent"]
    assert entry["frames_processed"] == entry["frames_accepted"]
    # Drops became sealed gaps, visible in the fault counters.
    assert entry["fault_totals"]["gaps"] > 0
    assert entry["fault_totals"]["reordered"] > 0
    # Client-observed ack latency stays under the stored ceiling.
    assert entry["result_acks"] > 0
    assert entry["latency_p99_ms"] <= DEFAULT_FLOORS["max_serve_p99_latency_ms"], (
        f"p99 {entry['latency_p99_ms']:.1f} ms over ceiling"
    )
    # Graceful drain settled the shared SoC pool exactly.
    assert entry["shared_energy_exact"]
    assert entry["aggregate_energy_per_frame_mj"] > 0
