"""The ``BENCH_motion.json`` perf trajectory and its one floor checker.

Every ``python -m repro.harness bench <name>`` run appends one dated entry
to the trajectory document::

    {"schema": 2, "floors": {"<key>": <number>, ...}, "entries": [...]}

:func:`stamp` records the provenance that makes an entry reproducible
(date, preset, git SHA — marked ``-dirty`` for uncommitted code — CPU
model, core count, Python/numpy versions, and the kernel backend both
requested and active), and :func:`check_floors` checks an entry against
every stored floor from the one :data:`FLOORS` table.  The ``floors``
object in the committed file is authoritative; :data:`DEFAULT_FLOORS`
only seeds a fresh file.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..motion.kernels import resolve_kernel_backend

#: Labelled measured values one floor applies to; ``None`` = not measured.
Measured = List[Tuple[str, Optional[float]]]


@dataclass(frozen=True)
class Floor:
    """One stored minimum (``min_*``) or maximum (``max_*``) of a bench."""

    key: str
    #: The ``benchmark`` field of the entries this floor applies to.
    benchmark: str
    #: Value seeded into a fresh trajectory file.
    default: float
    #: The entry's measured values (an empty list: the floor does not apply).
    measure: Callable[[dict], Measured]

    @property
    def is_ceiling(self) -> bool:
        return self.key.startswith("max_")


def _result(resolution: str, *path: str) -> Callable[[dict], Measured]:
    """A per-resolution metric, applicable only where that resolution ran."""

    def measure(entry: dict) -> Measured:
        for result in entry.get("results", []):
            if result.get("resolution") == resolution:
                value = result
                for key in path:
                    value = value.get(key) if isinstance(value, dict) else None
                return [(f"{'.'.join(path)} at {resolution}", value)]
        return []

    return measure


def _on_backend(backend: str, measure: Callable[[dict], Measured]) -> Callable[[dict], Measured]:
    """``measure``, applicable only to entries that requested ``backend``."""
    return lambda entry: measure(entry) if entry.get("kernel_backend") == backend else []


def _field(key: str) -> Callable[[dict], Measured]:
    return lambda entry: [(key, entry.get(key))]


def _per_stream(entry: dict) -> Measured:
    return [
        (f"stream '{stream['name']}' energy_per_frame_mj", stream.get("energy_per_frame_mj"))
        for stream in entry.get("per_stream", [])
    ]


#: Every floor the benches enforce.  Wall-clock floors are same-run ratios
#: (machine speed cancels); the energy ceilings are absolute because the
#: modeled energy is deterministic for a given spec and workload.  The
#: ``min_c_*`` floors apply to C entries; each backend's ES-vs-full pair
#: times pruning against its own full scan.  See docs/benchmarking.md for
#: how each value is recalibrated.
FLOORS: Tuple[Floor, ...] = (
    Floor("min_tss_speedup_720p", "motion_estimation", 8.0, _result("720p", "speedup")),
    Floor(
        "min_es_pruned_speedup_vs_full_720p",
        "motion_estimation",
        1.7,
        _on_backend("numpy", _result("720p", "es_pruned_speedup_vs_full")),
    ),
    Floor(
        "max_stream_energy_per_frame_mj", "multi_stream", 14.18, _per_stream
    ),
    Floor("max_serve_p99_latency_ms", "serve", 1500.0, _field("latency_p99_ms")),
    Floor(
        "min_c_es_pruned_speedup_vs_numpy_720p",
        "motion_estimation",
        2.0,
        _on_backend("c", _result("720p", "es_pruned_speedup_vs_numpy")),
    ),
    Floor(
        "min_c_es_pruned_speedup_vs_numpy_1080p",
        "motion_estimation",
        2.0,
        _on_backend("c", _result("1080p", "es_pruned_speedup_vs_numpy")),
    ),
    Floor(
        "min_c_tss_speedup_vs_numpy_720p",
        "motion_estimation",
        10.0,
        _on_backend("c", _result("720p", "tss_speedup_vs_numpy")),
    ),
    Floor(
        "min_c_es_pruned_speedup_vs_full_720p",
        "motion_estimation",
        1.1,
        _on_backend("c", _result("720p", "es_pruned_speedup_vs_full")),
    ),
    Floor(
        "min_c_es_histogram_speedup_vs_full_720p",
        "motion_estimation",
        1.2,
        _on_backend("c", _result("720p", "es_histogram_speedup_vs_full")),
    ),
    Floor(
        "min_es_histogram_speedup_vs_full_720p",
        "motion_estimation",
        2.5,
        _on_backend("numpy", _result("720p", "es_histogram_speedup_vs_full")),
    ),
    Floor("min_tune_frontier_points", "tune", 3, _field("frontier_points")),
    Floor(
        "max_tune_best_energy_per_frame_mj", "tune", 15.5, _field("best_energy_per_frame_mj")
    ),
    Floor(
        "min_pipeline_blend_speedup_vs_reference_720p",
        "pipeline",
        6.0,
        _result("720p", "blend_vs_reference", "speedup"),
    ),
    Floor(
        "max_pipeline_alloc_mb_per_eframe_720p",
        "pipeline",
        16.0,
        _result("720p", "e_frame_alloc_mb"),
    ),
    Floor(
        "min_c_extrapolation_speedup_vs_numpy_720p",
        "pipeline",
        2.4,
        _on_backend("c", _result("720p", "extrapolation_vs_numpy", "speedup")),
    ),
)

DEFAULT_FLOORS: Dict[str, float] = {floor.key: floor.default for floor in FLOORS}


def load_trajectory(path: Path) -> dict:
    """Load the trajectory at ``path``, or seed a fresh one with every floor."""
    if not path.exists():
        return {"schema": 2, "floors": dict(DEFAULT_FLOORS), "entries": []}
    document = json.loads(path.read_text())
    floors = document.setdefault("floors", {})
    for key, value in DEFAULT_FLOORS.items():
        floors.setdefault(key, value)
    return document


def append_entry(path: Path, entry: dict) -> dict:
    """Append ``entry`` to the trajectory at ``path``; returns the document."""
    document = load_trajectory(path)
    document["entries"].append(entry)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return document


#: The ``repro`` package directory: the code every bench measures.
PACKAGE_DIR = Path(__file__).resolve().parents[1]


def git_sha(package_dir: Path = PACKAGE_DIR) -> str:
    """HEAD of the checkout holding ``package_dir``, ``-dirty`` if it differs.

    The suffix marks a package directory whose files differ from HEAD, so an
    entry measured on uncommitted code never names a commit that lacks it.
    Files outside the package (the trajectory itself, docs) do not count.
    """

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", *args], cwd=package_dir, capture_output=True, text=True, timeout=10
        )

    try:
        head = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--", ".")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if head.returncode != 0 or status.returncode != 0:
        return "unknown"
    sha = head.stdout.strip()
    return f"{sha}-dirty" if status.stdout.strip() else sha


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(entry: dict, preset: str, kernel_backend: str) -> dict:
    """Add the provenance fields to ``entry`` (in place) and return it."""
    entry.update(
        {
            "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "preset": preset,
            "git_sha": git_sha(),
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "kernel_backend": kernel_backend,
            "kernel_backend_active": resolve_kernel_backend(kernel_backend),
        }
    )
    return entry


def applicable_floors(entry: dict) -> List[Floor]:
    """The rows of :data:`FLOORS` that apply to ``entry``: its benchmark's,
    less those that measure nothing in it (another backend's, or a
    resolution the preset did not run)."""
    return [
        floor
        for floor in FLOORS
        if floor.benchmark == entry.get("benchmark") and floor.measure(entry)
    ]


def check_floors(entry: dict, floors: Dict[str, float]) -> List[str]:
    """Human-readable violations of the stored ``floors`` by ``entry``.

    Besides the plain minima and maxima of :data:`FLOORS`, four rules hold:
    the motion and pipeline benches, whose floors time the kernels, must
    have run the backend they requested (a silent degrade to numpy would
    otherwise green-light the guard while measuring the wrong thing), the
    stream ceiling applies to each stream, a tune resume pass must
    re-evaluate zero points, and a serve run must observe at least one ack.
    """
    violations = []
    requested = entry.get("kernel_backend")
    timed = entry.get("benchmark") in ("motion_estimation", "pipeline")
    if timed and entry.get("kernel_backend_active") != requested:
        violations.append(
            f"kernel_backend: {requested} requested but "
            f"{entry.get('kernel_backend_active')} ran (no working C compiler?)"
        )
    for floor in applicable_floors(entry):
        limit = floors.get(floor.key)
        if limit is None:
            continue
        for label, value in floor.measure(entry):
            if value is None:
                violations.append(f"{floor.key}: {label} was not measured")
            elif (value > limit) if floor.is_ceiling else (value < limit):
                relation = "> ceiling" if floor.is_ceiling else "< floor"
                violations.append(
                    f"{floor.key}: {label} measured {value:.2f} {relation} {limit}"
                )
    if entry.get("benchmark") == "tune" and entry.get("resume_reevaluated") != 0:
        violations.append(
            f"resume: second pass re-evaluated {entry.get('resume_reevaluated')} "
            "point(s) (the disk store must make resume free)"
        )
    if entry.get("benchmark") == "serve" and not entry.get("result_acks"):
        violations.append("max_serve_p99_latency_ms: no result acks were observed")
    return violations


__all__ = [
    "DEFAULT_FLOORS",
    "FLOORS",
    "Floor",
    "append_entry",
    "applicable_floors",
    "check_floors",
    "git_sha",
    "load_trajectory",
    "stamp",
]
