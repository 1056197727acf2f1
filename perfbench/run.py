"""The repository benchmark: one named workload, measured end to end or per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet_sweep --seed 0 --seconds 40 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` wraps the public call into each layer (see ``layers.py``) and
prints every per-layer metric, with the tracing overhead against an
untraced first half of the same run.  Every run checks the program's
outputs: a digest of every checked frame's kind and boxes, plus accuracy,
inference share and modeled energy, against the values ``expected.json``
records for the seed (``--record-expected`` writes them).  A mismatch
prints ``"correct": false`` and exits 1.

``setup_s`` is the median of :data:`SETUPS` cold set-ups, each in a fresh
process (``--setup-only``): from spawning it to its first timed frame,
input generation excluded.

The run record (provenance, sample counts, output summary) is printed as
one JSON line before the result, which is always the last line.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, pinned before numpy is first imported and inherited
# by every process the benchmark starts: a second BLAS thread competes with
# the workers and the server for the machine's other core, and makes the
# figures depend on what else runs there.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import benchlib  # noqa: E402

#: Workload name -> the module in this directory that runs it.
WORKLOADS = {"fleet_sweep": "fleet", "serve_paced": "serving"}
#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5

#: Relative tolerance of the energy check.  Served I-frames are priced with
#: the batch they were dispatched in, and batching depends on arrival timing.
ENERGY_REL_TOL = {"fleet_sweep": 1e-9, "serve_paced": 0.02}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-expected", action="store_true",
        help="write this run's output summary to expected.json for its seed",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set the workload up once, print when it was ready, and exit",
    )
    return parser.parse_args(argv)


def set_up_once(workload, args) -> int:
    """One cold set-up in this (fresh) process, for :func:`benchlib.cold_setups`."""
    begin = time.perf_counter()
    inputs = workload.make_inputs(args.seed, args.seconds, setup_only=True)
    inputs_s = time.perf_counter() - begin
    system = workload.set_up(inputs)
    ready_at = time.perf_counter()
    workload.tear_down(system)
    print(json.dumps({"ready_at": ready_at, "inputs_s": inputs_s}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    benchlib.use_source_tree()
    import repro  # noqa: F401  (fails at once in a checkout without the system)

    workload = importlib.import_module(WORKLOADS[args.workload])
    if args.setup_only:
        return set_up_once(workload, args)

    setups = [] if args.trace else benchlib.cold_setups(
        args.workload, args.seed, args.seconds, SETUPS)
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
    inputs = workload.make_inputs(args.seed, args.seconds)
    outcome = workload.run(inputs, workload.set_up(inputs), args.seconds, tracer)

    summary = {key: outcome["summary"][key] for key in
               ("digest", "streams", "accuracy", "inference_share", "energy_mj_per_frame")}
    if args.workload == "serve_paced":
        summary["seconds"] = args.seconds
    if args.record_expected:
        if outcome["unchecked"]:
            raise SystemExit(f"not recording: outputs of {outcome['unchecked']} depend on timing")
        benchlib.record_expected(args.workload, args.seed, summary)
    problems = benchlib.check_outputs(
        args.workload, args.seed, args.seconds, summary,
        energy_rel_tol=ENERGY_REL_TOL[args.workload],
        unchecked=outcome["unchecked"],
    )

    if tracer is None:
        values = dict(outcome["end_to_end"], setup_s=benchlib.median(setups))
    else:
        values = tracer.layer_metrics(outcome["extras"])
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": benchlib.provenance(args.seed, outcome["details"]["kernel_backend"]),
        "output_check": {
            "summary": summary, "mismatches": problems, "unchecked": outcome["unchecked"],
        },
        "details": dict(outcome["details"], setups_s=setups),
    }
    print(json.dumps({"record": record}))
    for problem in problems:
        print(f"OUTPUT MISMATCH: {problem}", file=sys.stderr)
    print(benchlib.result_line(
        correct=not problems,
        attempted=outcome["attempted"],
        failed=outcome["failed"],
        values=values,
        trace=bool(args.trace),
    ))
    return 1 if problems else 0


def _exit_on_signal(signum, _frame) -> None:
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    # No process the benchmark starts outlives it, on any way out: orphans
    # are adopted, and a terminating signal unwinds to the final reap.
    benchlib.adopt_orphans()
    signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        status = main()
    finally:
        benchlib.reap_children()
    sys.exit(status)
