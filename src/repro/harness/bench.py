"""``python -m repro.harness bench`` — the perf benches behind ``BENCH_motion.json``.

Run from the repository root::

    PYTHONPATH=src python -m repro.harness bench motion --preset ci --guard
    PYTHONPATH=src python -m repro.harness bench pipeline --preset ci --guard
    PYTHONPATH=src python -m repro.harness bench stream --preset ci --workers 2 --guard
    PYTHONPATH=src python -m repro.harness bench serve --preset ci --faults drop,reorder --guard
    PYTHONPATH=src python -m repro.harness bench tune --preset ci --guard

Each bench measures one hot path, stamps the entry's provenance, **appends**
it to the trajectory file (``--output``, default ``./BENCH_motion.json``)
and checks it against the floors stored there
(:mod:`repro.harness.trajectory`).  ``--guard`` turns a violation into exit
status 1, which is what the CI perf jobs run.

* ``motion`` — TSS vs the scalar oracle and ES per candidate-scan policy,
  on 8-bit luma (:mod:`repro.harness.perf`);
* ``pipeline`` — the whole per-frame session path, the blend speedup over
  its scalar reference and the steady-state E-frame allocation
  (:mod:`repro.harness.pipeline_perf`);
* ``stream`` / ``serve`` — the multi-camera multiplexer and the TCP serving
  stack under injected faults (:mod:`repro.harness.stream_perf`);
* ``tune`` — the autotuner's ``ci``-space sweep and its resume pass at the
  preset's dataset fidelity (:func:`repro.harness.tune.benchmark_tune`).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Tuple

from ..core.ingest import OVERLOAD_POLICIES
from ..core.spec import PipelineSpec
from ..motion.kernels import KERNEL_BACKENDS
from .perf import RESOLUTIONS, benchmark_motion_estimation
from .pipeline_perf import (
    SCHEDULES,
    benchmark_pipeline,
    measure_blend_speedup,
    measure_extrapolation_speedup,
)
from .stream_perf import FAULT_KINDS, benchmark_multiplexer, benchmark_serving
from .trajectory import append_entry, applicable_floors, check_floors, stamp
from .tune import TUNE_PRESETS, benchmark_tune

_720P_ONLY = {"720p": RESOLUTIONS["720p"]}

#: motion presets: name -> (resolutions, frames per synthetic sequence).
MOTION_PRESETS = {
    # The full trajectory measurement (both resolutions).
    "full": (None, 4),
    # 720p only, the fewest frames that still time a pair per measurement.
    "ci": (_720P_ONLY, 3),
}
#: pipeline presets: name -> (resolutions, frames per session).
PIPELINE_PRESETS = {
    "full": (None, 18),
    # 720p only, enough frames for a full EW=8 cycle plus steady-state
    # samples after the two warm-up frames.
    "ci": (_720P_ONLY, 12),
}
#: stream presets: name -> (streams, frames per stream, width, height).
STREAM_PRESETS = {
    "full": (4, 60, 192, 108),
    # Enough frames for several full EW cycles per stream.
    "ci": (4, 24, 192, 108),
}
#: serve presets: name -> (cameras, frames per camera, width, height).
SERVE_PRESETS = {
    "full": (16, 48, 96, 54),
    # Exercises the full network path in seconds.
    "ci": (6, 24, 96, 54),
    # Acceptance demo: 64 concurrent cameras on one shared backend.
    "demo64": (64, 24, 96, 54),
}


class BenchError(ValueError):
    """A bench invocation whose options contradict each other."""


def _or(value, default):
    return default if value is None else value


# ----------------------------------------------------------------------
# motion
# ----------------------------------------------------------------------
def _motion_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--frames", type=int, default=None, help="override frames per synthetic sequence"
    )
    parser.add_argument(
        "--skip-scalar",
        action="store_true",
        help="skip the slow scalar-oracle timing (no speedup column)",
    )
    parser.add_argument(
        "--skip-exhaustive",
        action="store_true",
        help="skip the exhaustive-search policy timings",
    )
    parser.add_argument(
        "--kernel-backend",
        choices=list(KERNEL_BACKENDS),
        default="numpy",
        help="kernel backend to measure; 'c' also times the numpy TSS and "
        "pruned-ES baselines and records the backend speedups (default: numpy)",
    )


def _run_motion(args: argparse.Namespace) -> Tuple[dict, str]:
    if args.guard and (args.skip_scalar or args.skip_exhaustive):
        raise BenchError("--guard needs the scalar and exhaustive measurements")
    resolutions, frames = MOTION_PRESETS[args.preset]
    entry = benchmark_motion_estimation(
        resolutions=resolutions,
        num_frames=_or(args.frames, frames),
        include_scalar=not args.skip_scalar,
        include_exhaustive=not args.skip_exhaustive,
        kernel_backend=args.kernel_backend,
    )
    return entry, args.kernel_backend


def _print_motion(entry: dict) -> None:
    for result in entry["results"]:
        line = f"  {result['resolution']:>6}: TSS {result['vectorized_fps']:.1f} fps"
        if "speedup" in result:
            line += f" ({result['speedup']:.1f}x scalar)"
        if "es_pruned_fps" in result:
            line += (
                f"; ES full {result['es_full_fps']:.1f} -> pruned "
                f"{result['es_pruned_fps']:.1f} fps "
                f"({result['es_pruned_speedup_vs_full']:.1f}x, "
                f"{result['es_pruned_evaluated_fraction']:.1%} candidates), "
                f"histogram {result['es_histogram_speedup_vs_full']:.1f}x"
            )
        if "tss_speedup_vs_numpy" in result:
            line += (
                f"; {entry['kernel_backend_active']} backend "
                f"{result['tss_speedup_vs_numpy']:.1f}x numpy TSS"
            )
        if "es_pruned_speedup_vs_numpy" in result:
            line += f", {result['es_pruned_speedup_vs_numpy']:.1f}x numpy pruned ES"
        print(line)


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------
def _pipeline_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--frames", type=int, default=None, help="override frames per session")
    parser.add_argument("--seed", type=int, default=0, help="sequence/backend seed (default: 0)")
    parser.add_argument(
        "--kernel-backend",
        choices=list(KERNEL_BACKENDS),
        default="numpy",
        help="kernel backend the sessions request (default: numpy)",
    )


def _run_pipeline(args: argparse.Namespace) -> Tuple[dict, str]:
    resolutions, frames = PIPELINE_PRESETS[args.preset]
    spec = PipelineSpec(kernel_backend=args.kernel_backend)
    entry = benchmark_pipeline(
        spec, resolutions=resolutions, num_frames=_or(args.frames, frames), seed=args.seed
    )
    for result in entry["results"]:
        result["blend_vs_reference"] = measure_blend_speedup(
            spec, result["height"], result["width"], args.seed
        )
        if args.kernel_backend == "c":
            result["extrapolation_vs_numpy"] = measure_extrapolation_speedup(
                spec, result["height"], result["width"], args.seed
            )
    return entry, args.kernel_backend


def _print_pipeline(entry: dict) -> None:
    for result in entry["results"]:
        for schedule in SCHEDULES:
            timing = result[schedule]
            print(
                f"  {result['resolution']} {schedule} (EW={timing['window']}): "
                f"{timing['fps']:.2f} fps overall, "
                f"E-frame {timing['e_s_per_frame'] * 1e3:.1f} ms "
                f"({timing['e_fps']:.2f} fps), "
                f"I-frame {timing['i_s_per_frame'] * 1e3:.1f} ms"
            )
        print(
            f"  {result['resolution']} blend vs reference: "
            f"{result['blend_vs_reference']['speedup']:.1f}x; "
            f"E-frame alloc: {result['e_frame_alloc_mb']:.1f} MB"
        )
        if "extrapolation_vs_numpy" in result:
            print(
                f"  {result['resolution']} extrapolation vs numpy: "
                f"{result['extrapolation_vs_numpy']['speedup']:.1f}x"
            )


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------
def _workers_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker shards serving the streams (default: 1, in-process)",
    )


def _stream_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--streams", type=int, default=None, help="override stream count")
    parser.add_argument("--frames", type=int, default=None, help="override frames per stream")
    parser.add_argument("--seed", type=int, default=0, help="content seed (default: 0)")
    parser.add_argument(
        "--e-frame-burst",
        type=int,
        default=4,
        help="max consecutive E-frames per stream per scheduling round (default: 4)",
    )
    parser.add_argument(
        "--max-inference-batch",
        type=int,
        default=4,
        help="max I-frames grouped into one inference batch (default: 4)",
    )
    _workers_option(parser)
    PipelineSpec.add_cli_options(parser)


def _run_stream(args: argparse.Namespace) -> Tuple[dict, str]:
    streams, frames, width, height = STREAM_PRESETS[args.preset]
    spec = PipelineSpec.from_cli_args(args)
    entry = benchmark_multiplexer(
        spec,
        streams=_or(args.streams, streams),
        frames=_or(args.frames, frames),
        width=width,
        height=height,
        seed=args.seed,
        e_frame_burst=args.e_frame_burst,
        max_inference_batch=args.max_inference_batch,
        workers=args.workers,
        transport=spec.transport,
    )
    return entry, spec.kernel_backend


def _print_stream(entry: dict) -> None:
    print(
        f"  {entry['streams']} streams x {entry['frames_per_stream']} frames "
        f"({entry['spec_label']}, {entry['workers']} worker(s), "
        f"{entry['transport']} transport): "
        f"mux {entry['mux_aggregate_fps']:.1f} fps aggregate "
        f"({entry['mux_vs_serial']:.2f}x serial), "
        f"{entry['inference_batches']} I-batches, "
        f"mean batch {entry['mean_batch_size']:.2f}"
    )
    for stream in entry["per_stream"]:
        frames = max(1, stream["frames_processed"])
        print(
            f"    {stream['name']}: {stream['frames_processed']} frames, "
            f"{stream['inference_frames'] / frames:.2f} I-rate, "
            f"{1e3 * stream['busy_s'] / frames:.2f} ms/frame service, "
            f"{1e3 * stream['wait_s'] / frames:.1f} ms mean queue wait, "
            f"{stream['energy_per_frame_mj']:.2f} mJ/frame modeled"
        )
    print(
        f"  aggregate: {entry['aggregate_energy_per_frame_mj']:.2f} mJ/frame, "
        f"{entry['aggregate_power_w']:.2f} W modeled SoC power"
    )


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _serve_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cameras", type=int, default=None, help="override camera count")
    parser.add_argument("--frames", type=int, default=None, help="override frames per camera")
    parser.add_argument("--seed", type=int, default=0, help="content/fault seed")
    parser.add_argument(
        "--faults",
        default="",
        help=f"comma list of injected faults from {FAULT_KINDS} (default: none)",
    )
    parser.add_argument(
        "--drop-rate",
        type=float,
        default=0.05,
        help="per-frame loss probability under the drop fault (default: 0.05)",
    )
    parser.add_argument(
        "--reorder-rate",
        type=float,
        default=0.05,
        help="adjacent-swap probability under the reorder fault (default: 0.05)",
    )
    parser.add_argument(
        "--burst-rate",
        type=float,
        default=0.1,
        help="probability a camera bursts 3 frames per round (default: 0.1)",
    )
    _workers_option(parser)
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=32,
        help="per-stream bounded ready-queue depth (default: 32)",
    )
    parser.add_argument(
        "--overload-policy",
        choices=list(OVERLOAD_POLICIES),
        default="degrade",
        help="what a full ready queue does (default: degrade)",
    )
    parser.add_argument(
        "--target-utilization",
        type=float,
        default=0.9,
        help="fraction of the capacity budget the fleet declares (default: 0.9)",
    )
    PipelineSpec.add_cli_options(parser)


def _run_serve(args: argparse.Namespace) -> Tuple[dict, str]:
    faults = {fault for fault in args.faults.split(",") if fault}
    unknown = faults - set(FAULT_KINDS)
    if unknown:
        raise BenchError(f"unknown fault(s) {sorted(unknown)}; expected {FAULT_KINDS}")
    cameras, frames, width, height = SERVE_PRESETS[args.preset]
    spec = PipelineSpec.from_cli_args(args)
    entry = benchmark_serving(
        spec,
        cameras=_or(args.cameras, cameras),
        frames=_or(args.frames, frames),
        width=width,
        height=height,
        seed=args.seed,
        faults=faults,
        drop_rate=args.drop_rate,
        reorder_rate=args.reorder_rate,
        burst_rate=args.burst_rate,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        overload_policy=args.overload_policy,
        target_utilization=args.target_utilization,
    )
    return entry, spec.kernel_backend


def _print_serve(entry: dict) -> None:
    totals = entry["fault_totals"]
    print(
        f"  {entry['cameras']} cameras x {entry['frames_per_camera']} frames over TCP "
        f"({entry['spec_label']}, {entry['workers']} worker(s), "
        f"{entry['transport']} transport, faults: "
        f"{','.join(entry['faults']) or 'none'}): "
        f"{entry['frames_accepted']}/{entry['frames_sent']} frames accepted, "
        f"projected utilization {entry['projected_utilization']:.3f}"
    )
    print(
        f"  latency p50 {entry['latency_p50_ms']:.2f} ms / "
        f"p99 {entry['latency_p99_ms']:.2f} ms over "
        f"{entry['result_acks']} acks; "
        f"energy {entry['aggregate_energy_per_frame_mj']:.2f} mJ/frame "
        f"(exact shared-SoC aggregate {entry['aggregate_energy_j']:.3f} J)"
    )
    print(
        f"  faults sealed: {totals.get('gaps', 0)} gaps, "
        f"{totals.get('late_drops', 0)} late, "
        f"{totals.get('duplicates', 0)} dups, "
        f"{totals.get('reordered', 0)} reordered, "
        f"{totals.get('overload_drops', 0)} overload drops, "
        f"{totals.get('degraded_submits', 0)} degraded submits"
    )


# ----------------------------------------------------------------------
# tune
# ----------------------------------------------------------------------
def _tune_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1, help="backend seed (default: 1)")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sequence execution (default: 1)",
    )


def _run_tune(args: argparse.Namespace) -> Tuple[dict, str]:
    entry = benchmark_tune(args.preset, args.seed, args.workers)
    return entry, PipelineSpec().kernel_backend


def _print_tune(entry: dict) -> None:
    print(
        f"  {entry['candidates']} candidate(s), {entry['evaluated']} evaluated, "
        f"resume re-evaluated {entry['resume_reevaluated']}"
    )
    for point in entry["frontier"]:
        print(
            f"  frontier: {point['config']:<28s} acc {point['accuracy']:.3f}  "
            f"{point['energy_per_frame_mj']:.2f} mJ/frame  {point['fps']:.0f} fps"
        )
    if "best_energy_per_frame_mj" in entry:
        print(
            f"  best at >= seed accuracy: {entry['best_config']} — "
            f"{entry['best_energy_per_frame_mj']:.2f} mJ/frame"
        )


# ----------------------------------------------------------------------
# The subcommand
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Bench:
    help: str
    presets: Dict[str, object]
    add_options: Callable[[argparse.ArgumentParser], None]
    #: Measures one entry; returns it with the kernel backend it requested.
    run: Callable[[argparse.Namespace], Tuple[dict, str]]
    summarize: Callable[[dict], None]


BENCHES: Dict[str, Bench] = {
    "motion": Bench(
        "motion-estimation kernels: TSS vs the scalar oracle, ES per policy",
        MOTION_PRESETS,
        _motion_options,
        _run_motion,
        _print_motion,
    ),
    "pipeline": Bench(
        "the whole per-frame session path at 720p/1080p",
        PIPELINE_PRESETS,
        _pipeline_options,
        _run_pipeline,
        _print_pipeline,
    ),
    "stream": Bench(
        "multi-stream scheduler throughput and modeled energy",
        STREAM_PRESETS,
        _stream_options,
        _run_stream,
        _print_stream,
    ),
    "serve": Bench(
        "TCP serving latency under injected faults",
        SERVE_PRESETS,
        _serve_options,
        _run_serve,
        _print_serve,
    ),
    "tune": Bench(
        "autotuner ci-space sweep: frontier, best energy, resume",
        TUNE_PRESETS,
        _tune_options,
        _run_tune,
        _print_tune,
    ),
}


def add_bench_parser(subparsers) -> None:
    """Register ``bench <name>`` with one sub-subcommand per bench."""
    parser = subparsers.add_parser(
        "bench",
        help="append a perf measurement to BENCH_motion.json and check its floors",
        description=__doc__.split("\n\n")[0],
    )
    benches = parser.add_subparsers(dest="bench", required=True, metavar="BENCH")
    for name, bench in BENCHES.items():
        bench_parser = benches.add_parser(name, help=bench.help, description=bench.help)
        bench_parser.add_argument(
            "--preset",
            choices=sorted(bench.presets),
            default="full",
            help="measurement preset (default: full)",
        )
        bench_parser.add_argument(
            "--output",
            type=Path,
            default=Path("BENCH_motion.json"),
            help="trajectory JSON to append to (default: ./BENCH_motion.json)",
        )
        bench_parser.add_argument(
            "--guard",
            action="store_true",
            help="exit 1 when the fresh entry violates a floor stored in the "
            "trajectory file (the CI perf jobs run this)",
        )
        bench.add_options(bench_parser)


def cmd_bench(args: argparse.Namespace) -> int:
    """Measure, stamp and append one entry, then check the stored floors."""
    bench = BENCHES[args.bench]
    try:
        entry, kernel_backend = bench.run(args)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    stamp(entry, args.preset, kernel_backend)
    document = append_entry(args.output, entry)
    print(f"appended {args.bench} entry {len(document['entries'])} to {args.output}")
    bench.summarize(entry)

    floors = document["floors"]
    violations = check_floors(entry, floors)
    for violation in violations:
        print(f"FLOOR VIOLATION — {violation}", file=sys.stderr)
    if violations:
        if args.guard:
            return 1
        print("(not guarding: run with --guard to fail on violations)")
    elif args.guard:
        checked = [f.key for f in applicable_floors(entry) if f.key in floors]
        print("floors OK:", ", ".join(f"{key}={floors[key]}" for key in checked))
    return 0


__all__ = [
    "BENCHES",
    "MOTION_PRESETS",
    "PIPELINE_PRESETS",
    "SERVE_PRESETS",
    "STREAM_PRESETS",
    "add_bench_parser",
    "cmd_bench",
]
