"""End-to-end frame-path measurement: full-session fps + per-stage breakdown.

Where :mod:`repro.harness.perf` times the motion-estimation kernels in
isolation, this module times the *whole* per-frame path — ISP stages, motion
search, denoise blend, extrapolation and backend inference — by submitting
synthetic camera frames through a real :class:`~repro.core.session.EuphratesSession`.
Two consumers share the machinery:

* ``python -m repro.harness bench pipeline`` appends dated ``pipeline``
  entries to the ``BENCH_motion.json`` trajectory (end-to-end fps at
  720p/1080p for I-heavy and E-heavy schedules, plus floor-guarded health
  ratios);
* ``python -m repro.harness profile`` prints the per-stage wall-clock
  breakdown table assembled from the ``FrameTelemetry`` stage timings.

Frames come from the deterministic :class:`~repro.video.synthetic.SequenceGenerator`
(seeded, analytically annotated), so simulated backends have ground truth and
the I/E schedule is exactly the one a live camera would produce.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.backends import tracking_backend_for
from ..core.profiler import STAGE_NAMES, StageProfiler
from ..core.types import FrameKind
from ..core.spec import PipelineSpec
from ..isp.denoise import TemporalDenoiseConfig, TemporalDenoiseStage
from ..isp.reference import reference_motion_compensated_blend
from ..video.synthetic import SequenceConfig, SequenceGenerator
from .perf import RESOLUTIONS

#: Schedule name -> constant extrapolation window.  ``i_heavy`` runs
#: inference on every frame (conventional SoC); ``e_heavy`` amortises one
#: inference over seven extrapolations (the paper's aggressive setting).
SCHEDULES: Dict[str, int] = {"i_heavy": 1, "e_heavy": 8}

#: Frames excluded from timing at the start of every session: the first
#: I-frame (backend warm-up, allocator growth) and the first E-frame (scratch
#: buffers and denoise state come up cold).
WARMUP_FRAMES = 2


def make_sequence(height: int, width: int, num_frames: int, seed: int = 0):
    """A deterministic single-object synthetic camera clip at ``height`` x ``width``."""
    return SequenceGenerator(
        SequenceConfig(
            name=f"pipebench_{height}p",
            frame_width=width,
            frame_height=height,
            num_frames=num_frames,
            num_objects=1,
            seed=seed,
        )
    ).generate()


@dataclass
class ScheduleTiming:
    """Wall-clock result of one (resolution, schedule) session run."""

    window: int
    frames_timed: int
    #: Mean seconds per frame over all timed frames (I and E together).
    s_per_frame: float
    #: Mean seconds per timed E-frame (0.0 when the schedule has none).
    e_s_per_frame: float
    #: Mean seconds per timed I-frame (0.0 when the schedule has none).
    i_s_per_frame: float
    #: Per-stage aggregation of the session's ``FrameTelemetry`` timings.
    profiler: StageProfiler = field(default_factory=StageProfiler)

    @property
    def fps(self) -> float:
        return 1.0 / self.s_per_frame if self.s_per_frame > 0 else 0.0

    @property
    def e_fps(self) -> float:
        return 1.0 / self.e_s_per_frame if self.e_s_per_frame > 0 else 0.0


def run_session_timed(
    spec: PipelineSpec,
    sequence,
    *,
    seed: int = 0,
    warmup_frames: int = WARMUP_FRAMES,
) -> ScheduleTiming:
    """Submit every frame of ``sequence`` through a fresh session, timed.

    The first ``warmup_frames`` submissions are excluded from the statistics
    (first-call costs: backend warm-up, scratch-buffer allocation, code-path
    warming); everything after is the steady state the bench reports.
    """
    backend = tracking_backend_for("mdnet", seed=seed)
    pipeline = spec.build(backend)
    session = pipeline.open_session(source=sequence)

    submit_s: List[float] = []
    for _, frame in sequence.iter_frames():
        start = time.perf_counter()
        session.submit(frame)
        submit_s.append(time.perf_counter() - start)

    telemetry = session.take_telemetry()
    session.finish()
    profiler = StageProfiler()
    timed_s: List[float] = []
    e_s: List[float] = []
    i_s: List[float] = []
    for index, record in enumerate(telemetry):
        if index < warmup_frames:
            continue
        profiler.observe(record)
        timed_s.append(submit_s[index])
        if record.kind is FrameKind.EXTRAPOLATION:
            e_s.append(submit_s[index])
        else:
            i_s.append(submit_s[index])

    window = spec.extrapolation_window
    return ScheduleTiming(
        window=int(window) if not isinstance(window, str) else -1,
        frames_timed=len(timed_s),
        s_per_frame=sum(timed_s) / len(timed_s) if timed_s else 0.0,
        e_s_per_frame=sum(e_s) / len(e_s) if e_s else 0.0,
        i_s_per_frame=sum(i_s) / len(i_s) if i_s else 0.0,
        profiler=profiler,
    )


def measure_eframe_alloc_mb(
    spec: PipelineSpec, sequence, *, seed: int = 0, warmup_frames: int = 4
) -> float:
    """Peak heap churn (MB) of one steady-state E-frame ``submit()``.

    Runs a session under :mod:`tracemalloc` (numpy registers its buffer
    allocations with it), warms the scratch buffers over ``warmup_frames``
    submissions, then reports the worst peak-minus-baseline delta across the
    remaining E-frames.  This is the number the allocation-free-steady-state
    floor (``max_pipeline_alloc_mb_per_eframe_720p``) guards.
    """
    backend = tracking_backend_for("mdnet", seed=seed)
    pipeline = spec.build(backend)
    session = pipeline.open_session(source=sequence)

    frames = list(sequence.iter_frames())
    worst_mb = 0.0
    tracemalloc.start()
    try:
        for index, (_, frame) in enumerate(frames):
            is_e_frame = session.next_frame_kind() is FrameKind.EXTRAPOLATION
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            session.submit(frame)
            _, peak = tracemalloc.get_traced_memory()
            if index >= warmup_frames and is_e_frame:
                worst_mb = max(worst_mb, (peak - before) / 1e6)
            session.take_results()
            session.take_telemetry()
    finally:
        tracemalloc.stop()
    session.finish()
    return worst_mb


def benchmark_pipeline(
    spec: PipelineSpec,
    resolutions: Optional[Dict[str, Tuple[int, int]]] = None,
    num_frames: int = 18,
    seed: int = 0,
    schedules: Optional[Dict[str, int]] = None,
    measure_alloc: bool = True,
) -> dict:
    """Time full sessions at each resolution under each I/E schedule."""
    resolutions = resolutions or RESOLUTIONS
    schedules = schedules or SCHEDULES

    results = []
    for label, (height, width) in resolutions.items():
        sequence = make_sequence(height, width, num_frames, seed=seed)
        entry: Dict[str, object] = {
            "resolution": label,
            "height": height,
            "width": width,
            "frames": num_frames,
        }
        for schedule_name, window in schedules.items():
            timing = run_session_timed(spec.with_window(window), sequence, seed=seed)
            entry[schedule_name] = {
                "window": window,
                "frames_timed": timing.frames_timed,
                "s_per_frame": timing.s_per_frame,
                "fps": timing.fps,
                "e_s_per_frame": timing.e_s_per_frame,
                "e_fps": timing.e_fps,
                "i_s_per_frame": timing.i_s_per_frame,
                "stage_s_per_frame": timing.profiler.mean_seconds(),
            }
        if measure_alloc:
            alloc_sequence = make_sequence(
                height, width, min(num_frames, 10), seed=seed
            )
            entry["e_frame_alloc_mb"] = measure_eframe_alloc_mb(
                spec.with_window(SCHEDULES["e_heavy"]), alloc_sequence, seed=seed
            )
        results.append(entry)

    return {
        "benchmark": "pipeline",
        "spec": spec.to_cli_args(),
        "kernel_backend": spec.kernel_backend,
        "results": results,
    }


def measure_blend_speedup(spec: PipelineSpec, height: int, width: int, seed: int) -> dict:
    """Same-run speedup of the dispatched blend over the scalar reference.

    Measures the *steady-state* call exactly as a session pays it: the raw
    uint8 frame handed straight to the kernel, a preallocated output buffer
    and the stage's warmed gather-staging pool — the allocating first-call
    path would understate the speedup the session actually sees.
    """
    sequence = make_sequence(height, width, 4, seed=seed)
    frames = [frame for _, frame in sequence.iter_frames()]
    stage = TemporalDenoiseStage(
        TemporalDenoiseConfig(block_matching=spec.block_matching_config()),
        reuse_output_buffers=True,
    )
    stage.process(frames[0])
    stage.process(frames[1])
    current = np.asarray(frames[2])
    current_f64 = np.asarray(current, dtype=np.float64)
    previous = stage._previous_denoised.copy()
    motion = stage._matcher.estimate(
        stage._current_matching_reference(current, current_f64),
        stage._previous_reference,
    )

    def best_of(callable_, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            callable_()
            best = min(best, time.perf_counter() - start)
        return best

    config = stage.config
    out = np.empty(current.shape, dtype=np.float64)

    def optimized():
        return stage._motion_compensated_blend(current, previous, motion, out=out)

    optimized()  # warm the gather-staging pool, like the session's steady state
    optimized_s = best_of(optimized)
    reference_s = best_of(
        lambda: reference_motion_compensated_blend(
            current_f64,
            previous,
            motion,
            blend_strength=config.blend_strength,
            max_normalised_sad=config.max_normalised_sad,
        )
    )
    fast = optimized()
    slow = reference_motion_compensated_blend(
        current_f64,
        previous,
        motion,
        blend_strength=config.blend_strength,
        max_normalised_sad=config.max_normalised_sad,
    )
    if not np.array_equal(fast, slow):
        raise AssertionError("dispatched blend diverged from the scalar reference")
    return {
        "optimized_s": optimized_s,
        "reference_s": reference_s,
        "speedup": reference_s / optimized_s if optimized_s > 0 else 0.0,
    }


# ----------------------------------------------------------------------
# Per-stage profile table (the ``profile`` subcommand)
# ----------------------------------------------------------------------
def profile_report(
    spec: PipelineSpec,
    resolutions: Optional[Dict[str, Tuple[int, int]]] = None,
    num_frames: int = 18,
    seed: int = 0,
    schedules: Optional[Dict[str, int]] = None,
) -> dict:
    """Per-stage wall-clock breakdown at each resolution, I- vs E-frames."""
    resolutions = resolutions or RESOLUTIONS
    schedules = schedules or SCHEDULES

    sections = []
    for label, (height, width) in resolutions.items():
        sequence = make_sequence(height, width, num_frames, seed=seed)
        for schedule_name, window in schedules.items():
            timing = run_session_timed(spec.with_window(window), sequence, seed=seed)
            for kind in ("I", "E"):
                summary = timing.profiler.summary(kind)
                if not summary.frames:
                    continue
                sections.append(
                    {
                        "resolution": label,
                        "schedule": schedule_name,
                        "window": window,
                        "kind": kind,
                        "frames": summary.frames,
                        "mean_total_s": summary.mean_total_s,
                        "fps": summary.fps,
                        "stages": summary.rows(),
                    }
                )
    return {"spec": spec.to_cli_args(), "sections": sections}


def format_profile_table(report: dict) -> str:
    """Render :func:`profile_report` output as an aligned text table."""
    lines: List[str] = []
    for section in report["sections"]:
        lines.append(
            "{resolution} {schedule} (EW={window}) {kind}-frames: "
            "{frames} frames, {ms:.2f} ms/frame ({fps:.2f} fps)".format(
                resolution=section["resolution"],
                schedule=section["schedule"],
                window=section["window"],
                kind=section["kind"],
                frames=section["frames"],
                ms=section["mean_total_s"] * 1e3,
                fps=section["fps"],
            )
        )
        lines.append(f"  {'stage':<16} {'ms/frame':>10} {'share':>8}")
        for row in section["stages"]:
            lines.append(
                f"  {row['stage']:<16} {row['mean_s'] * 1e3:>10.3f} "
                f"{row['share'] * 100:>7.1f}%"
            )
        lines.append("")
    return "\n".join(lines).rstrip()


__all__ = [
    "SCHEDULES",
    "STAGE_NAMES",
    "ScheduleTiming",
    "benchmark_pipeline",
    "format_profile_table",
    "make_sequence",
    "measure_blend_speedup",
    "measure_eframe_alloc_mb",
    "profile_report",
    "run_session_timed",
]
