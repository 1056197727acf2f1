"""Motion-estimation performance microbenchmarks.

Measures frames/sec of the vectorized block matcher on synthetic 720p/1080p
sequences and compares it against the scalar reference oracle
(:mod:`repro.motion.reference`), so every PR can check the perf trajectory.
Besides the three-step search (the production default) the benchmark times
the exhaustive search under each candidate-scan policy
(full/pruned/histogram — all result-identical) and the fixed-point
float-frame path, the two hot-path gaps this repo's trajectory tracks.
The kernel backend (numpy or the compiled C backend) is a parameter, so the
same harness measures both sides of the backend speedup.

The results are appended to the ``BENCH_motion.json`` trajectory by
``python -m repro.harness bench motion`` (which also enforces the stored
perf floors for CI) and asserted by ``benchmarks/test_perf_motion.py``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..motion.block_matching import (
    BlockMatcher,
    BlockMatchingConfig,
    SearchPolicy,
    SearchStrategy,
)
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


def _time_per_frame(estimate, frames) -> float:
    start = time.perf_counter()
    for index in range(1, len(frames)):
        estimate(frames[index], frames[index - 1])
    elapsed = time.perf_counter() - start
    return elapsed / (len(frames) - 1)


#: Timing passes per measurement.  Each pass times every variant of one
#: resolution once, interleaved, and each variant keeps its fastest pass: a
#: slow phase of the host then slows every variant alike instead of skewing
#: whichever ratio it happened to land on.
TIMING_PASSES = 5


def _best_of_interleaved(timers: Dict[str, Tuple[Callable, Sequence]]) -> Dict[str, float]:
    """Best seconds/frame of each ``name -> (estimate, frames)`` timer."""
    for estimate, frames in timers.values():
        estimate(frames[1], frames[0])  # warm-up
    best = {name: float("inf") for name in timers}
    for _ in range(TIMING_PASSES):
        for name, (estimate, frames) in timers.items():
            best[name] = min(best[name], _time_per_frame(estimate, frames))
    return best


def benchmark_motion_estimation(
    resolutions: Optional[Dict[str, Tuple[int, int]]] = None,
    num_frames: int = 4,
    block_size: int = 16,
    search_range: int = 7,
    include_scalar: bool = True,
    include_exhaustive: bool = True,
    include_fixed_point: bool = True,
    kernel_backend: str = "numpy",
    seed: int = 0,
) -> Dict[str, object]:
    """Benchmark the vectorized searches (and the scalar oracle) per resolution.

    Returns a JSON-ready dict with, per resolution:

    * vectorized TSS frames/sec and latency (the legacy ``vectorized_*``
      keys), the analytical op counts, and — with ``include_scalar`` — the
      scalar-oracle timing and the vectorized-vs-scalar ``speedup``;
    * with ``include_exhaustive``, exhaustive-search timing per candidate
      scan policy (``es_full_*``/``es_pruned_*``/``es_histogram_*``), the
      pruned policy's evaluated-candidate fraction, and the headline
      ``es_pruned_speedup_vs_full`` and ``es_pruned_vs_tss`` ratios; under a
      non-numpy ``kernel_backend`` also the numpy-backend pruned ES
      (``es_pruned_numpy_s_per_frame``) and the backend speedup over it
      (``es_pruned_speedup_vs_numpy``);
    * under a non-numpy ``kernel_backend``, the numpy-backend TSS
      (``tss_numpy_s_per_frame``) and the backend speedup over it
      (``tss_speedup_vs_numpy``);
    * with ``include_fixed_point``, TSS timing on Q8.4 fixed-point float
      frames (``fixed_point_*``) and its ratio to the uint8 fast path —
      tracking that float-valued frames no longer fall off onto the float64
      gather kernel.

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

    def exhaustive(policy: SearchPolicy, backend: str) -> BlockMatcher:
        return BlockMatcher(
            BlockMatchingConfig(
                block_size=block_size,
                search_range=search_range,
                strategy=SearchStrategy.EXHAUSTIVE,
                search_policy=policy,
                kernel_backend=backend,
            )
        )

    def scalar(current, previous):
        return scalar_estimate(
            current, previous, block_size=block_size, search_range=search_range
        )

    results: List[Dict[str, object]] = []
    for label, (height, width) in resolutions.items():
        frames = synthetic_luma_sequence(height, width, num_frames, seed=seed)
        timers: Dict[str, Tuple[Callable, Sequence]] = {
            "vectorized": (BlockMatcher(config).estimate, frames)
        }
        if kernel_backend != "numpy":
            numpy_tss = BlockMatcher(replace(config, kernel_backend="numpy"))
            timers["vectorized_numpy"] = (numpy_tss.estimate, frames)
        if include_scalar:
            timers["scalar"] = (scalar, frames)
        es_matchers = {}
        if include_exhaustive:
            for policy in SearchPolicy:
                es_matchers[policy.value] = exhaustive(policy, kernel_backend)
                timers[f"es_{policy.value}"] = (es_matchers[policy.value].estimate, frames)
            if kernel_backend != "numpy":
                numpy_pruned = exhaustive(SearchPolicy.PRUNED, "numpy")
                timers["es_pruned_numpy"] = (numpy_pruned.estimate, frames)
        if include_fixed_point:
            # Q8.4 lattice floats: integer-valued after scaling by 16, so
            # the kernel must ride the exact integer path, not the float64
            # gather.  The +1/16 keeps the full 0..255 value range with a
            # non-zero fractional part, so the scaled integers span 0..4081
            # and the kernel lands in its int32 working dtype (a /16 shrink
            # would scale back into uint8 and re-measure the 8-bit path).
            # The session frame path never takes this path — the ISP matches
            # on 8-bit luma — so it guards BlockMatcher callers that pass
            # float frames.  The uniform offset on both frames leaves every
            # SAD, and hence the search work, unchanged.
            fixed_matcher = BlockMatcher(config)
            lattice_frames = [frame.astype(np.float64) + 1.0 / 16.0 for frame in frames]
            timers["fixed_point"] = (fixed_matcher.estimate, lattice_frames)
        seconds = _best_of_interleaved(timers)

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
            for policy in es_matchers:
                es_s = seconds[f"es_{policy}"]
                entry[f"es_{policy}_s_per_frame"] = es_s
                entry[f"es_{policy}_fps"] = 1.0 / es_s
            entry["es_pruned_evaluated_fraction"] = (
                es_matchers["pruned"].last_search_stats.evaluated_fraction
            )
            entry["es_pruned_speedup_vs_full"] = seconds["es_full"] / seconds["es_pruned"]
            entry["es_histogram_speedup_vs_full"] = (
                seconds["es_full"] / seconds["es_histogram"]
            )
            # > 1 means pruned ES is still slower than TSS; the trajectory
            # tracks this gap closing.
            entry["es_pruned_vs_tss"] = seconds["es_pruned"] / vector_s
            if "es_pruned_numpy" in seconds:
                entry["es_pruned_numpy_s_per_frame"] = seconds["es_pruned_numpy"]
                entry["es_pruned_speedup_vs_numpy"] = (
                    seconds["es_pruned_numpy"] / seconds["es_pruned"]
                )
        if include_fixed_point:
            fixed_s = seconds["fixed_point"]
            entry["fixed_point_s_per_frame"] = fixed_s
            entry["fixed_point_fps"] = 1.0 / fixed_s
            entry["fixed_point_vs_uint8"] = fixed_s / vector_s
            entry["fixed_point_kernel_exact"] = bool(fixed_matcher.last_kernel_exact)
        results.append(entry)

    return {
        "benchmark": "motion_estimation",
        "block_size": block_size,
        "search_range": search_range,
        "kernel_backend": kernel_backend,
        "kernel_backend_active": active_backend,
        "results": results,
    }
