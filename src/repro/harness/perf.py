"""Motion-estimation performance microbenchmarks.

Measures frames/sec of the vectorized block matcher on synthetic 720p/1080p
sequences and compares it against the scalar reference oracle
(:mod:`repro.motion.reference`), so every PR can check the perf trajectory.
Besides the three-step search (the production default) the benchmark times
the pruned exhaustive search.  Every frame is 8-bit luma, the only input
the matcher takes.  The kernel backend (numpy or the compiled C backend) is
a parameter, so the same harness measures both sides of the backend
speedup.

The results are appended to the ``BENCH_motion.json`` trajectory by
``python -m repro.harness bench motion`` (which also enforces the stored
perf floors for CI) and asserted by ``benchmarks/test_perf_motion.py``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..motion.block_matching import BlockMatcher, BlockMatchingConfig, SearchStrategy
from ..motion.kernels import resolve_kernel_backend
from ..motion.reference import scalar_estimate

#: Benchmark resolutions: label -> (height, width).
RESOLUTIONS: Dict[str, Tuple[int, int]] = {
    "720p": (720, 1280),
    "1080p": (1080, 1920),
}


def synthetic_luma_sequence(
    height: int, width: int, num_frames: int, seed: int = 0
) -> np.ndarray:
    """A textured uint8 luma sequence with global translational motion.

    The content is smooth-but-textured (block matching can lock on) and each
    frame shifts by a couple of pixels, which mirrors the camera/object
    motion the paper's workloads exhibit.
    """
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(0, 255, (height // 8 + 4, width // 8 + 4))
    canvas = np.kron(coarse, np.ones((8, 8)))
    frames = np.empty((num_frames, height, width), dtype=np.uint8)
    for index in range(num_frames):
        dy = (index * 2) % 16
        dx = (index * 3) % 16
        frames[index] = canvas[dy : dy + height, dx : dx + width].astype(np.uint8)
    return frames


#: Timing passes per measurement.  Each pass times every variant of one
#: measurement once, interleaved, and each variant keeps its fastest pass: a
#: slow phase of the host then slows every variant alike instead of skewing
#: whichever ratio it happened to land on.
TIMING_PASSES = 5


def best_of_interleaved(
    timers: Dict[str, Callable[[], object]], calls: int = 1
) -> Dict[str, float]:
    """Best seconds per call of each ``name -> call`` over
    :data:`TIMING_PASSES` interleaved passes, each timing ``calls`` calls
    in a row."""
    best = {name: float("inf") for name in timers}
    for _ in range(TIMING_PASSES):
        for name, call in timers.items():
            start = time.perf_counter()
            for _ in range(calls):
                call()
            best[name] = min(best[name], (time.perf_counter() - start) / calls)
    return best


def _sweep(estimate: Callable, frames: Sequence[np.ndarray]) -> None:
    """One motion search per consecutive frame pair."""
    for index in range(1, len(frames)):
        estimate(frames[index], frames[index - 1])


def benchmark_motion_estimation(
    resolutions: Optional[Dict[str, Tuple[int, int]]] = None,
    num_frames: int = 4,
    block_size: int = 16,
    search_range: int = 7,
    include_scalar: bool = True,
    include_exhaustive: bool = True,
    kernel_backend: str = "numpy",
    seed: int = 0,
) -> Dict[str, object]:
    """Benchmark the vectorized searches (and the scalar oracle) per resolution.

    Returns a JSON-ready dict with, per resolution:

    * vectorized TSS frames/sec and latency (the legacy ``vectorized_*``
      keys), the analytical op counts, and — with ``include_scalar`` — the
      scalar-oracle timing and the vectorized-vs-scalar ``speedup``;
    * with ``include_exhaustive``, the pruned exhaustive search's timing
      (``es_pruned_*``), the share of candidates it evaluated
      (``es_pruned_evaluated_fraction``) and the ``es_pruned_vs_tss``
      ratio; under a non-numpy ``kernel_backend`` also the numpy-backend
      exhaustive search (``es_pruned_numpy_s_per_frame``) and the backend
      speedup over it (``es_pruned_speedup_vs_numpy``);
    * under a non-numpy ``kernel_backend``, the numpy-backend TSS
      (``tss_numpy_s_per_frame``) and the backend speedup over it
      (``tss_speedup_vs_numpy``).

    Every variant of a resolution is timed as the best of
    :data:`TIMING_PASSES` interleaved passes.  ``include_scalar=False`` skips
    the slow oracle timing (useful for quick smoke runs).  ``kernel_backend``
    selects the kernel implementation (``numpy``/``c``); the top-level
    result records both the requested backend and the backend that actually
    ran (``c`` degrades to ``numpy`` where it cannot be built, and the
    trajectory must say so).
    """
    if num_frames < 2:
        raise ValueError("num_frames must be >= 2 (timing needs at least one frame pair)")
    resolutions = resolutions or RESOLUTIONS
    active_backend = resolve_kernel_backend(kernel_backend)
    config = BlockMatchingConfig(
        block_size=block_size,
        search_range=search_range,
        strategy=SearchStrategy.THREE_STEP,
        kernel_backend=kernel_backend,
    )

    def scalar(current, previous):
        return scalar_estimate(
            current, previous, block_size=block_size, search_range=search_range
        )

    results: List[Dict[str, object]] = []
    for label, (height, width) in resolutions.items():
        frames = synthetic_luma_sequence(height, width, num_frames, seed=seed)
        estimates: Dict[str, Callable] = {"vectorized": BlockMatcher(config).estimate}
        if kernel_backend != "numpy":
            numpy_tss = BlockMatcher(replace(config, kernel_backend="numpy"))
            estimates["vectorized_numpy"] = numpy_tss.estimate
        if include_scalar:
            estimates["scalar"] = scalar
        if include_exhaustive:
            es_config = replace(config, strategy=SearchStrategy.EXHAUSTIVE)
            es_matcher = BlockMatcher(es_config)
            estimates["es_pruned"] = es_matcher.estimate
            if kernel_backend != "numpy":
                numpy_es = BlockMatcher(replace(es_config, kernel_backend="numpy"))
                estimates["es_pruned_numpy"] = numpy_es.estimate
        for estimate in estimates.values():
            estimate(frames[1], frames[0])  # warm-up
        sweeps = best_of_interleaved(
            {name: partial(_sweep, estimate, frames) for name, estimate in estimates.items()}
        )
        seconds = {name: sweep_s / (num_frames - 1) for name, sweep_s in sweeps.items()}

        vector_s = seconds["vectorized"]
        entry: Dict[str, object] = {
            "resolution": label,
            "height": height,
            "width": width,
            "frames_timed": num_frames - 1,
            "vectorized_s_per_frame": vector_s,
            "vectorized_fps": 1.0 / vector_s,
            "ops_per_frame": config.ops_per_frame(width, height),
            "ops_per_macroblock": config.ops_per_macroblock,
        }
        if "vectorized_numpy" in seconds:
            entry["tss_numpy_s_per_frame"] = seconds["vectorized_numpy"]
            entry["tss_speedup_vs_numpy"] = seconds["vectorized_numpy"] / vector_s
        if include_scalar:
            entry["scalar_s_per_frame"] = seconds["scalar"]
            entry["scalar_fps"] = 1.0 / seconds["scalar"]
            entry["speedup"] = seconds["scalar"] / vector_s
        if include_exhaustive:
            entry["es_pruned_s_per_frame"] = seconds["es_pruned"]
            entry["es_pruned_fps"] = 1.0 / seconds["es_pruned"]
            entry["es_pruned_evaluated_fraction"] = (
                es_matcher.last_search_stats.evaluated_fraction
            )
            # > 1 means pruned ES is still slower than TSS; the trajectory
            # tracks this gap closing.
            entry["es_pruned_vs_tss"] = seconds["es_pruned"] / vector_s
            if "es_pruned_numpy" in seconds:
                entry["es_pruned_numpy_s_per_frame"] = seconds["es_pruned_numpy"]
                entry["es_pruned_speedup_vs_numpy"] = (
                    seconds["es_pruned_numpy"] / seconds["es_pruned"]
                )
        results.append(entry)

    return {
        "benchmark": "motion_estimation",
        "block_size": block_size,
        "search_range": search_range,
        "kernel_backend": kernel_backend,
        "kernel_backend_active": active_backend,
        "results": results,
    }
