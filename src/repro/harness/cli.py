"""``python -m repro.harness`` — regenerate the paper's figures and tables.

Examples::

    # Everything, serial, ASCII tables:
    PYTHONPATH=src python -m repro.harness run-all

    # One figure as markdown (what EXPERIMENTS.md records), JSON on the side:
    PYTHONPATH=src python -m repro.harness run fig10a --markdown --json-dir out/

    # Analytic vs measured energy (the latter priced from per-frame
    # telemetry recorded by actual pipeline runs), on a 720p30 SoC:
    PYTHONPATH=src python -m repro.harness run fig9b fig9b_measured --soc-config 720p30

    # Process-parallel sweep on a multi-core box:
    PYTHONPATH=src python -m repro.harness run-all --workers 8

    # CI smoke profile (2 sequences per dataset):
    PYTHONPATH=src python -m repro.harness run-all --smoke --workers 2

    # Append a perf entry to BENCH_motion.json and enforce its floors:
    PYTHONPATH=src python -m repro.harness bench motion --preset ci --guard

All results are deterministic for a given (seed, dataset profile) and
identical at any ``--workers`` count: every sequence runs in its own
session from a fresh window-controller clone (see
``EuphratesPipeline.run_dataset``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from ..core.ingest import OVERLOAD_POLICIES
from ..core.spec import PipelineSpec
from .bench import add_bench_parser, cmd_bench
from .reporting import format_artifact, write_artifact_json
from .runner import (
    DatasetSpec,
    ExperimentContext,
    ExperimentSpec,
    SweepRunner,
    get_experiment,
    list_experiments,
)


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sequence execution (default: 1, serial)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="backend seed for every sweep (default: 1)"
    )
    parser.add_argument(
        "--json-dir",
        metavar="DIR",
        default=None,
        help="also write one <experiment>.json per artifact into DIR",
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit markdown tables instead of aligned ASCII",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="near-minimal 2-sequence datasets (CI smoke profile) instead of the full benchmark sizes",
    )
    # The base pipeline configuration (block size, search range, ...)
    # is one shared PipelineSpec; experiments override only the dimensions
    # they sweep (which is why there is no --window flag here).
    PipelineSpec.add_cli_options(parser, include_window=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the Euphrates paper's figures and tables.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list every registered experiment")
    list_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable listing: experiments, searchable spec "
        "dimensions, tune spaces/presets, tuned spec presets",
    )

    run_parser = subparsers.add_parser("run", help="run one or more experiments by name")
    run_parser.add_argument("experiments", nargs="+", metavar="EXPERIMENT")
    _add_run_options(run_parser)

    run_all_parser = subparsers.add_parser("run-all", help="run every registered experiment")
    _add_run_options(run_all_parser)

    tune_parser = subparsers.add_parser(
        "tune",
        help="design-space autotune: Pareto frontier search over the cost core",
        description="Explore PipelineSpec x SoC-config design points with the "
        "shared sweep runner, score each on (tracking accuracy, modeled "
        "energy/frame, throughput) through the unified CostMeter pricing "
        "core, and print the measured Pareto frontier.  Every evaluated "
        "point is journaled to the --store JSONL as soon as it finishes; "
        "killing a sweep and re-running with --resume evaluates only the "
        "missing points (zero repeated evaluations).  Spec flags below set "
        "the baseline configuration the frontier is anchored to.",
    )
    tune_parser.add_argument(
        "--space",
        default="ci",
        metavar="NAME|FILE",
        help="search space: a built-in name (ci, full) or a JSON "
        "{dimension: [values]} file (default: ci)",
    )
    tune_parser.add_argument(
        "--preset",
        choices=["ci", "full"],
        default="ci",
        help="dataset fidelity every point is measured at (default: ci)",
    )
    tune_parser.add_argument(
        "--strategy",
        choices=["auto", "grid", "random"],
        default="auto",
        help="search strategy (default: auto = grid when the space fits "
        "the budget, random otherwise)",
    )
    tune_parser.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="cap on fresh evaluations this invocation (store hits are free)",
    )
    tune_parser.add_argument(
        "--resume",
        action="store_true",
        help="continue the sweep journaled in --store instead of refusing "
        "to overwrite it",
    )
    tune_parser.add_argument(
        "--store",
        default="out/tune/store.jsonl",
        metavar="PATH",
        help="JSONL journal of evaluated points (default: out/tune/store.jsonl)",
    )
    tune_parser.add_argument(
        "--frontier-out",
        default=None,
        metavar="PATH",
        help="also write the frontier artifact as JSON to PATH",
    )
    tune_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sequence execution (default: 1, serial)",
    )
    tune_parser.add_argument(
        "--seed", type=int, default=1, help="backend seed for every point (default: 1)"
    )
    tune_parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit markdown tables instead of aligned ASCII",
    )
    PipelineSpec.add_cli_options(tune_parser, include_window=False)

    profile_parser = subparsers.add_parser(
        "profile",
        help="per-stage wall-clock breakdown of the frame path",
        description="Submit synthetic camera frames through a real "
        "EuphratesSession and print where each frame's wall-clock time "
        "goes (ISP stages, motion search, denoise blend, extrapolation, "
        "backend inference), split by resolution, I/E schedule and frame "
        "kind.  Timings come from the FrameTelemetry stage clocks the "
        "session stamps on every frame; they are observe-only and never "
        "feed the energy model.",
    )
    profile_parser.add_argument(
        "--resolution",
        action="append",
        choices=["720p", "1080p"],
        default=None,
        metavar="RES",
        help="resolution(s) to profile (repeatable; default: both)",
    )
    profile_parser.add_argument(
        "--frames",
        type=int,
        default=18,
        metavar="N",
        help="frames per (resolution, schedule) session (default: 18)",
    )
    profile_parser.add_argument(
        "--seed", type=int, default=0, help="sequence/backend seed (default: 0)"
    )
    PipelineSpec.add_cli_options(profile_parser, include_window=False)

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve the pipeline over TCP (asyncio ingestion front end)",
        description="Host the length-prefixed frame protocol of "
        "repro.core.server on a TCP port: clients HELLO with a declared "
        "fps/window demand (admitted against the CapacityModel M/D/1 "
        "budget), stream uint8 frames, and BYE for their results.  "
        "Ctrl-C drains gracefully and prints the shared-SoC energy "
        "aggregate.",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=7625, help="TCP port (0 picks a free one)"
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker shards serving the streams (default: 1, in-process)",
    )
    serve_parser.add_argument(
        "--queue-capacity",
        type=int,
        default=32,
        help="per-stream bounded ready-queue depth (default: 32)",
    )
    serve_parser.add_argument(
        "--overload-policy",
        choices=list(OVERLOAD_POLICIES),
        default="degrade",
        help="what a full ready queue does (default: degrade)",
    )
    serve_parser.add_argument(
        "--reorder-window",
        type=int,
        default=8,
        help="out-of-order arrivals buffered before a gap is sealed (default: 8)",
    )
    serve_parser.add_argument(
        "--no-admission",
        action="store_true",
        help="accept every HELLO instead of enforcing the capacity budget",
    )
    serve_parser.add_argument(
        "--seed", type=int, default=1, help="backend seed (default: 1)"
    )
    PipelineSpec.add_cli_options(serve_parser)

    add_bench_parser(subparsers)
    return parser


def cmd_profile(args: argparse.Namespace) -> int:
    """Print the per-stage wall-clock breakdown of the frame path."""
    from .perf import RESOLUTIONS
    from .pipeline_perf import format_profile_table, profile_report

    if args.resolution:
        resolutions = {name: RESOLUTIONS[name] for name in dict.fromkeys(args.resolution)}
    else:
        resolutions = None
    spec = PipelineSpec.from_cli_args(args)
    print(f"profiling {spec.describe()} ({args.frames} frames per schedule)\n")
    report = profile_report(
        spec, resolutions=resolutions, num_frames=args.frames, seed=args.seed
    )
    print(format_profile_table(report))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Host the TCP serving front end until interrupted, then drain."""
    from ..core.backends import tracking_backend_for
    from ..core.ingest import IngestConfig, IngestCore
    from ..core.server import ServerThread
    from ..core.streaming import StreamMultiplexer
    from ..nn.models import build_mdnet
    from ..soc.frame_cost import CapacityModel

    spec = PipelineSpec.from_cli_args(args)
    soc = spec.vision_soc()
    network = build_mdnet()
    multiplexer = StreamMultiplexer(
        spec.build(tracking_backend_for("mdnet", seed=args.seed)),
        soc=soc,
        network=network,
        extrapolation_on_cpu=spec.extrapolation_on_cpu,
        workers=args.workers,
        transport=spec.transport,
        isolate_failures=True,
    )
    ingest = IngestCore(
        multiplexer,
        capacity=CapacityModel(
            soc, network, extrapolation_on_cpu=spec.extrapolation_on_cpu
        ),
        config=IngestConfig(
            queue_capacity=args.queue_capacity,
            overload_policy=args.overload_policy,
            reorder_window=args.reorder_window,
            admission=not args.no_admission,
        ),
    )
    server = ServerThread(ingest, host=args.host, port=args.port).start()
    print(
        f"serving {spec.describe()} on {args.host}:{server.port} "
        f"({args.workers} worker(s), {args.overload_policy} overload policy, "
        f"admission {'off' if args.no_admission else 'on'}); Ctrl-C to drain"
    )
    try:
        import time as _time

        while True:
            _time.sleep(1.0)
    except KeyboardInterrupt:
        print("draining...", file=sys.stderr)
    report = server.shutdown()
    if report is not None:
        print(
            f"served {report.frames_processed} frames "
            f"({report.inference_frames} I / {report.extrapolation_frames} E) "
            f"across {len(report.streams)} stream(s); "
            f"modeled energy {report.aggregate_energy_j:.3f} J "
            f"({report.aggregate_energy_per_frame_j * 1e3:.2f} mJ/frame, "
            "exact shared-SoC aggregate)"
        )
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    """Run (or resume) a design-space autotune and print the frontier."""
    import json
    from pathlib import Path

    from .reporting import artifact_to_dict
    from .tune import TuneError, run_tune

    def log(message: str) -> None:
        print(message, file=sys.stderr)

    try:
        report = run_tune(
            args.space,
            preset=args.preset,
            strategy=args.strategy,
            budget=args.budget,
            seed=args.seed,
            store_path=args.store,
            resume=args.resume,
            max_workers=args.workers,
            base_spec=PipelineSpec.from_cli_args(args),
            log=log,
        )
    except TuneError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Finished points are already journaled in --store; only the point
        # in flight is lost.  The exit code mirrors a SIGINT-terminated
        # process so scripted sweeps can distinguish "interrupted" from
        # "failed".
        print(
            f"\ninterrupted; evaluated points are journaled in {args.store} — "
            "re-run with --resume to continue without repeating them",
            file=sys.stderr,
        )
        return 130
    artifact = report.artifact
    if args.markdown:
        print(f"### {artifact.title}\n")
        print(format_artifact(artifact, markdown=True))
    else:
        print(f"== {artifact.name}: {artifact.title} ==\n")
        print(format_artifact(artifact))
    best = artifact.metadata.get("best_at_baseline_accuracy")
    if best:
        saving = best.get("energy_saving_vs_baseline_pct")
        # A positive saving is a cheaper point, so print its negation as the
        # energy change (``0.0 -`` prints a tie as +0.0, not -0.0).
        saving_note = (
            f" ({0.0 - saving:+.1f}% energy vs baseline)" if saving is not None else ""
        )
        print(
            f"\nbest at >= baseline accuracy: {best['describe']} — "
            f"{best['energy_per_frame_mj']} mJ/frame at accuracy "
            f"{best['accuracy']}{saving_note}"
        )
    if args.frontier_out:
        path = Path(args.frontier_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                artifact_to_dict(artifact), indent=2, sort_keys=True, allow_nan=False
            )
            + "\n",
            encoding="utf-8",
        )
        print(f"[wrote {path}]", file=sys.stderr)
    print(
        f"[{report.evaluated} evaluated, {report.reused} reused from store; "
        f"frontier: {len(report.frontier)} non-dominated point(s)]",
        file=sys.stderr,
    )
    return 0


def cmd_list_json() -> int:
    """Machine-readable ``list --json``: experiments + tuner surface."""
    import json

    from ..soc.config import TUNED_SPEC_PRESETS
    from .tune import STRATEGIES, TUNE_PRESETS, TUNE_SPACES, searchable_dimensions

    listing = {
        "experiments": [
            {
                "name": spec.name,
                "title": spec.title,
                "kind": spec.kind,
                "description": spec.description,
            }
            for spec in list_experiments()
        ],
        "spec_dimensions": searchable_dimensions(),
        "spec_presets": {
            name: dict(kwargs) for name, kwargs in sorted(TUNED_SPEC_PRESETS.items())
        },
        "tune": {
            "spaces": TUNE_SPACES,
            "presets": {name: fidelity.to_dict() for name, fidelity in TUNE_PRESETS.items()},
            "strategies": list(STRATEGIES),
        },
    }
    print(json.dumps(listing, indent=2, sort_keys=True))
    return 0


def _make_context(args: argparse.Namespace) -> ExperimentContext:
    datasets = DatasetSpec.smoke() if args.smoke else DatasetSpec()
    return ExperimentContext(
        runner=SweepRunner(max_workers=args.workers),
        datasets=datasets,
        seed=args.seed,
        base_spec=PipelineSpec.from_cli_args(args),
    )


def _run(specs: Sequence[ExperimentSpec], args: argparse.Namespace) -> int:
    context = _make_context(args)
    for index, spec in enumerate(specs):
        artifact = context.artifact(spec.name)
        if index:
            print()
        if args.markdown:
            print(f"### {artifact.title}\n")
            print(format_artifact(artifact, markdown=True))
        else:
            print(f"== {artifact.name}: {artifact.title} ==\n")
            print(format_artifact(artifact))
        if args.json_dir:
            path = write_artifact_json(artifact, args.json_dir)
            print(f"[wrote {path}]", file=sys.stderr)
    runner = context.runner
    print(
        f"[{len(specs)} experiment(s); sweep cache: {runner.cache_misses} pipeline run(s), "
        f"{runner.cache_hits} reused; workers: {args.workers}]",
        file=sys.stderr,
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        if args.json:
            return cmd_list_json()
        for spec in list_experiments():
            print(f"{spec.name:8s} {spec.title}")
        return 0
    if args.command == "run":
        # Resolve names before running anything so a KeyError from inside an
        # experiment builder is never mistaken for a bad experiment name.
        try:
            specs = [get_experiment(name) for name in args.experiments]
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        return _run(specs, args)
    if args.command == "run-all":
        return _run(list_experiments(), args)
    if args.command == "tune":
        return cmd_tune(args)
    if args.command == "profile":
        return cmd_profile(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "bench":
        return cmd_bench(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
