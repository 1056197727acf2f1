"""Shared helpers of the repository benchmark: percentiles, provenance, output
digests, memory, and the one-line result every run ends with.

The benchmark lives in this directory and nowhere else.  ``run.py`` is the
command; the ``fleet`` and ``serving`` modules are its workloads;
``layers`` wraps the public calls into each layer for the traced run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence

#: Root of the checkout: the benchmark's own directory sits directly below it.
ROOT = Path(__file__).resolve().parent.parent
#: The system under test is imported from source, never from an install.
SOURCE = ROOT / "src"
#: Where the metric set (names, units, bounds) is recorded.
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
#: Expected output-check values, per workload and seed.
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"
#: The benchmark's command, run again with ``--setup-only`` for cold set-ups.
RUN_FILE = Path(__file__).resolve().parent / "run.py"
#: Scratch space for files worker processes hand back to the parent.
WORK_DIR = ROOT / ".perfbench"

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def use_source_tree() -> None:
    """Make ``import repro`` load the checkout's own ``src`` tree."""
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Refuses (``ValueError``) unless at least :data:`MIN_SAMPLES_BEYOND`
    samples rank above it: a tail percentile of too few samples is noise.
    Infinite samples (frames that never completed) rank above every finite
    one, so they count against the percentile rather than vanishing.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    count = len(values)
    rank = math.ceil(q / 100.0 * count)
    beyond = count - rank
    if rank < 1 or beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} of {count} samples has {beyond} beyond it; "
            f"need at least {MIN_SAMPLES_BEYOND}"
        )
    return sorted(values)[rank - 1]


def windowed_percentile(samples: Sequence[float], q: float, windows: int) -> float:
    """Median, over ``windows`` consecutive equal slices of ``samples`` (in
    the order they were taken), of each slice's ``q``-th percentile.

    A burst of load from another process on the machine moves the figure
    of the slice it falls in, not the median.  Every slice must hold
    enough samples for :func:`percentile`.
    """
    size = len(samples) // windows
    return median([percentile(samples[i * size:(i + 1) * size], q) for i in range(windows)])


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Process facts
# ----------------------------------------------------------------------
def peak_rss_mb(children: Iterable[int] = ()) -> float:
    """Peak resident set of this process plus that of each live child in
    ``children`` (pids), each read from its ``VmHWM``."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in children:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            peak_kb += next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return peak_kb / 1024.0


def adopt_orphans() -> None:
    """Have every process this one starts, and each process those start,
    re-parented here instead of to init when its own parent exits (Linux
    ``PR_SET_CHILD_SUBREAPER``), so that :func:`reap_children` can wait for
    all of them.  A no-op where the call is not available."""
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _child_pids() -> List[int]:
    """Pids whose parent is this process, zombies included."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                if int(stat.read().rsplit(")", 1)[1].split()[1]) == me:
                    pids.append(int(entry))
        except (OSError, IndexError, ValueError):
            pass
    return pids


def reap_children(timeout_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Worker processes are joined, multiprocessing's resource tracker (which
    otherwise lives on until this process has exited) is stopped, and every
    other child, adopted orphans included, is waited for; whatever still
    runs after ``timeout_s`` is killed.  Call it last: a shared-memory
    segment released after it would start a new tracker.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    deadline = time.monotonic() + timeout_s
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))
        if child.is_alive():
            child.kill()
            child.join()
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in _child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def cold_setups(workload: str, seed: int, seconds: int, count: int) -> List[float]:
    """Set ``workload`` up ``count`` times, each in a fresh process.

    A sample runs from spawning the process to its first timed frame:
    interpreter start, imports, pipeline build, workers, server and
    warm-up frames, minus the time the process spent generating inputs.
    The process reads its clock on the same monotonic clock as this one.
    """
    samples = []
    for _ in range(count):
        spawned = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(RUN_FILE), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True,
        )
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append(probe["ready_at"] - spawned - probe["inputs_s"])
    return samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_digest() -> str:
    """SHA-256 over every Python file of the system under test."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str:
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, kernel_backend: str) -> Dict[str, object]:
    """What a run record needs to be reproduced and compared."""
    import numpy

    from repro.motion.kernels import resolve_kernel_backend

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "kernel_backend_requested": kernel_backend,
        "kernel_backend_active": resolve_kernel_backend(kernel_backend),
    }


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
def frame_digest(frames: Iterable[tuple]) -> str:
    """SHA-256 over ``(stream, frame, kind, boxes)`` of every checked frame.

    Boxes are rounded to 1e-6 pixel so the digest names the output, not the
    last bit of a float.
    """
    digest = hashlib.sha256()
    for stream, index, kind, boxes in frames:
        line = f"{stream}|{index}|{kind}|" + ";".join(
            f"{x:.6f},{y:.6f},{w:.6f},{h:.6f}" for x, y, w, h in boxes
        )
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def result_boxes(frame) -> List[tuple]:
    """``(x, y, w, h)`` of every detection of one ``FrameResult``."""
    return [(d.box.x, d.box.y, d.box.width, d.box.height) for d in frame.detections]


def metered_energy_mj(events) -> float:
    """Modeled SoC energy per frame of ``FrameTelemetry`` events, in mJ."""
    from repro import VisionSoC
    from repro.nn.models import build_mdnet

    meter = VisionSoC().open_meter(build_mdnet(), assume_nominal_capture=True)
    for event in events:
        meter.record(event)
    return meter.breakdown().energy_per_frame_j * 1e3


def output_summary(results, sequences, energy_mj: float) -> Dict[str, object]:
    """What the output check compares, over checked ``SequenceResult`` objects.

    Frame indices must be the source frame numbers of ``sequences`` (whose
    annotations score the tracking accuracy at IoU 0.5).
    """
    from repro.core.types import FrameKind
    from repro.eval.tracking import success_rate
    from repro.video.datasets import Dataset

    results = sorted(results, key=lambda result: result.sequence_name)
    frames = [frame for result in results for frame in result.frames]

    def lines(result):
        return [(result.sequence_name, frame.frame_index, frame.kind.value, result_boxes(frame))
                for frame in result.frames]

    return {
        "digest": frame_digest(line for result in results for line in lines(result)),
        "streams": {result.sequence_name: frame_digest(lines(result)) for result in results},
        "accuracy": success_rate(results, Dataset(name="checked", sequences=list(sequences))),
        "inference_share": sum(f.kind is FrameKind.INFERENCE for f in frames) / len(frames),
        "energy_mj_per_frame": energy_mj,
        "window_mean_size": sum(f.window_size for f in frames) / len(frames),
    }


def load_expected() -> dict:
    if EXPECTED_FILE.exists():
        return json.loads(EXPECTED_FILE.read_text())
    return {}


def check_outputs(
    workload: str, seed: int, seconds: int, observed: Mapping[str, object],
    *, energy_rel_tol: float, unchecked: Sequence[str] = (),
) -> List[str]:
    """Compare a run's output summary with the recorded one for its seed.

    Returns the mismatches (empty when they agree, or when no values are
    recorded for this seed).  ``observed`` holds ``digest``, ``accuracy``,
    ``inference_share`` and ``energy_mj_per_frame``; workloads whose output
    depends on the run length also record ``seconds``.  Streams named in
    ``unchecked`` gave output that depends on timing (the server degraded
    them under overload); the others are then compared one by one through
    their ``streams`` digests, and the run-wide figures are not compared.
    """
    recorded = load_expected().get(workload, {}).get(str(seed))
    if recorded is None:
        return []
    if "seconds" in recorded and recorded["seconds"] != seconds:
        return []
    problems = []
    if unchecked:
        for stream, digest in sorted(recorded["streams"].items()):
            if stream not in unchecked and observed["streams"].get(stream) != digest:
                problems.append(f"stream {stream}: recorded digest {digest}, "
                                f"got {observed['streams'].get(stream)}")
        return problems
    for key in ("digest", "accuracy", "inference_share"):
        if recorded[key] != observed[key]:
            problems.append(f"{key}: recorded {recorded[key]!r}, got {observed[key]!r}")
    want, got = recorded["energy_mj_per_frame"], observed["energy_mj_per_frame"]
    if abs(got - want) > energy_rel_tol * abs(want):
        problems.append(f"energy_mj_per_frame: recorded {want!r}, got {got!r}")
    return problems


def record_expected(workload: str, seed: int, summary: Mapping[str, object]) -> None:
    expected = load_expected()
    expected.setdefault(workload, {})[str(seed)] = dict(summary)
    EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# The result line
# ----------------------------------------------------------------------
def metric_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit that a run in this mode must print."""
    spec = json.loads(BENCHMARK_FILE.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(
    *, correct: bool, attempted: int, failed: int,
    values: Mapping[str, float], trace: bool,
) -> str:
    """The JSON object a run prints last; refuses a metric set that differs
    from the one ``BENCHMARK.json`` records for this mode."""
    units = metric_units(trace)
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise ValueError(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(values[name]), "unit": units[name]}
                for name in units
            },
        }
    )
