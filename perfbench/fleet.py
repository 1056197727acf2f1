"""``fleet_sweep``: a batch of small clips swept on 2 worker processes.

Eight OTB-like 192x108 sequences of 150 frames each run at the adaptive
extrapolation window (EW-A) through ``ShardedExecutor.run_sequences`` on two
workers over the shared-memory transport: the sweep path ``run_dataset
(max_workers=2)`` takes, with the executor kept open across batches so that
worker spawn is set-up, as it is for a server, and not part of every timed
batch.  The batch repeats until the run's seconds are up; every batch must
give the same output.  Latency here is the per-frame session time the
program returns in ``FrameTelemetry.total_s``: a sweep has no request to
time from outside.

The sequences are the harness's default OTB-like set (generator seeds
100-107) for every workload seed: how often the adaptive controller infers
depends on each clip's motion, and eight clips are too few to average that
out, so new content per seed would move inference share and energy by a
quarter.  The seed permutes the batch instead, which changes which worker
runs which clip and how their frames interleave, never a clip's output.

Every batch repeats the same computation, so the timed figures are the best
of a run's repetitions, as ``timeit`` takes them: each of the host's two
cores switches between a fast and a slow state for seconds at a time, on
its own, and a median would measure how much of the run fell into the
slow state.  Per frame, latency is its least time over the batches; the
clip order rotates by one every batch so each clip alternates between the
workers.  ``fps`` times four stretches of every batch -- frames 25-49, ...,
100-124 of every clip, where the sweep runs steadily with its workers'
queues full -- by when the sweep asks for the stretch's first frame, and
divides their frames by the sum of each stretch's best time.  Clips are
150 frames, not 300, so that a run repeats the batch twice as often: a
frame's best time is then less often one the host slowed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from benchlib import median, metered_energy_mj, output_summary, peak_rss_mb, percentile

SEQUENCES = 8
FRAMES_PER_SEQUENCE = 150
WORKERS = 2
#: A small batch run at set-up: first calls, allocator growth in the workers.
WARMUP_FRAMES = 12
#: Frames of every clip in one timed stretch of a batch.
STRETCH_FRAMES = 25
#: The timed stretches: the first starts at the stretch after the one that
#: fills the workers' queues, the last ends a stretch before the drain.
STRETCHES = range(1, FRAMES_PER_SEQUENCE // STRETCH_FRAMES - 1)


def _dataset(seed: int, frames: int):
    import random

    from repro.video.datasets import Dataset, build_otb_like_dataset

    clips = build_otb_like_dataset(num_sequences=SEQUENCES, frames_per_sequence=frames)
    order = list(clips.sequences)
    random.Random(seed).shuffle(order)
    return Dataset(name=clips.name, sequences=order)


def make_inputs(seed: int, seconds: float, setup_only: bool = False):
    """The swept batch and the warm-up batch (all a set-up alone needs)."""
    dataset = None if setup_only else _dataset(seed, FRAMES_PER_SEQUENCE)
    return dataset, _dataset(seed, WARMUP_FRAMES)


def set_up(inputs):
    """Build the pipeline, spawn the workers and run the warm-up batch."""
    from repro import PipelineSpec, ShardedExecutor, tracking_backend_for
    from repro.core.executor import ShardSchedule

    warmup = inputs[1]
    spec = PipelineSpec(extrapolation_window="adaptive")
    executor = ShardedExecutor(
        spec.build(tracking_backend_for("mdnet")),
        workers=WORKERS,
        transport=spec.transport,
        schedule=ShardSchedule(keep_telemetry=True),
    )
    executor.run_sequences(warmup.sequences)
    return spec, executor


def tear_down(system) -> None:
    system[1].close()


def check_summary(results, dataset) -> Dict[str, object]:
    energy = metered_energy_mj(event for result in sorted(
        results, key=lambda r: r.sequence_name) for event in result.telemetry)
    return output_summary(results, dataset.sequences, energy)


def _batches(executor, dataset, seconds: float, tracer) -> Tuple[List[list], List[float], List[list]]:
    """Run whole batches until ``seconds`` have passed.

    Returns each batch's outputs, its wall time and the wall time of each
    of its :data:`STRETCHES`.
    """
    outputs: List[list] = []
    walls: List[float] = []
    stretches: List[list] = []
    clock = time.perf_counter
    start = clock()
    while clock() - start < seconds:
        turn = len(outputs) % SEQUENCES
        order = dataset.sequences[turn:] + dataset.sequences[:turn]
        # The sweep asks every clip for frame i before any clip for frame
        # i + 1, so the first ask for a stretch's first frame marks its start.
        marks: Dict[int, float] = {}

        def frame(index, fetch=order[0].frame, marks=marks):
            marks.setdefault(index, clock())
            return fetch(index)

        order[0].frame = frame
        begin = clock()
        try:
            outcomes = executor.run_sequences(order)
        finally:
            del order[0].frame
        walls.append(clock() - begin)
        stretches.append([marks[(k + 1) * STRETCH_FRAMES] - marks[k * STRETCH_FRAMES]
                          for k in STRETCHES])
        outputs.append([result for result, _stats in outcomes])
        if tracer is not None:
            tracer.merge_worker_files()
    return outputs, walls, stretches


def run(inputs, system, seconds: float, tracer) -> dict:
    import multiprocessing

    dataset, _warmup = inputs
    spec, executor = system
    frames_per_batch = SEQUENCES * FRAMES_PER_SEQUENCE

    extras: Dict[str, float] = {}
    try:
        if tracer is None:
            outputs, walls, stretches = _batches(executor, dataset, seconds, None)
        else:
            untraced, untraced_s, stretches = _batches(executor, dataset, seconds / 2, None)
            # Workers inherit the wrappers only when forked after they exist.
            executor.close()
            tracer.install()
            spec, executor = set_up(inputs)
            tracer.merge_worker_files()
            tracer.reset()
            traced, traced_s, _ = _batches(executor, dataset, seconds / 2, tracer)
            outputs, walls = untraced + traced, untraced_s + traced_s
            extras["trace.overhead_pct"] = 100.0 * (median(traced_s) / median(untraced_s) - 1.0)
        # This process and every worker, each at its own peak.
        peak_mb = peak_rss_mb(child.pid for child in multiprocessing.active_children())
    finally:
        executor.close()

    summary = check_summary(outputs[0], dataset)
    if any(check_summary(results, dataset) != summary for results in outputs[1:]):
        raise RuntimeError("batches of one run gave different outputs")
    # Best of the run's repetitions (see the module docstring).
    best_s: Dict[Tuple[str, int], float] = {}
    for results in outputs:
        for result in results:
            for event in result.telemetry:
                key = (result.sequence_name, event.frame_index)
                best_s[key] = min(best_s.get(key, event.total_s), event.total_s)
    latencies_ms = [1e3 * seconds for seconds in best_s.values()]
    best_stretches_s = [min(times) for times in zip(*stretches)]
    frames = len(outputs) * frames_per_batch
    end_to_end = {
        "fps": len(STRETCHES) * SEQUENCES * STRETCH_FRAMES / sum(best_stretches_s),
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p95_ms": percentile(latencies_ms, 95),
        "energy_mj_per_frame": summary["energy_mj_per_frame"],
        "inference_share": summary["inference_share"],
        "accuracy": summary["accuracy"],
        "ok_share": 1.0,
        "peak_rss_mb": peak_mb,
    }
    extras["window.mean_size"] = summary["window_mean_size"]
    return {
        "end_to_end": end_to_end,
        "extras": extras,
        "attempted": frames,
        "failed": 0,
        "summary": summary,
        "unchecked": [],
        "details": {
            "batches": len(outputs),
            "latency_samples": len(latencies_ms),
            "batch_walls_s": walls,
            "best_stretches_s": best_stretches_s,
            "kernel_backend": spec.kernel_backend,
        },
    }
