"""Design-space autotuner: Pareto frontier search over the unified cost core.

Euphrates' central claim is a *co-design* result — the right point in the
SoC-config x extrapolation-window x algorithm space, not any single
component.  This module closes that loop: a search driver that explores
:class:`~repro.core.spec.PipelineSpec` points (window policy, search
strategy, block size, fixed-point format, sub-ROI grid, MV exposure,
SoC capture preset, extrapolation host), scores each point with the **same** machinery
every figure uses — the :class:`~repro.harness.runner.SweepRunner` for the
vision run, :meth:`~repro.soc.soc.VisionSoC.evaluate_results` for energy —
and emits the measured accuracy-vs-energy-vs-throughput Pareto frontier
(Fig. 1, but measured).

Design points:

* **Resumable, disk-persisted sweeps.**  Every evaluated point is appended
  to a JSONL :class:`TuneStore` keyed by
  ``spec.cache_key()`` + task/backend/seed + dataset fidelity, flushed per
  result.  Killing the process mid-sweep loses at most the point in
  flight; re-running with ``resume=True`` replays the store and evaluates
  only what is missing (zero repeated evaluations — tested).
* **Two strategies.**  ``grid`` exhausts small spaces; ``random`` draws
  a seeded sample for large ones.  ``auto`` picks grid when the space
  fits the budget, random otherwise.
* **One pricing core.**  A point's vision outputs are independent of its
  ``soc_config``/``extrapolation_host``, so the pipeline runs once under a
  normalized spec (shared through the runner cache across all SoC variants)
  and each variant is priced separately through ``evaluate_results`` — exactly
  the analytic-vs-measured contract of :mod:`repro.soc.frame_cost`.

Surface: ``python -m repro.harness tune`` (see :mod:`repro.harness.cli`),
or :func:`run_tune` directly.  Best-found configurations ship as named
presets in :data:`repro.soc.config.TUNED_SPEC_PRESETS` /
``PipelineSpec.from_preset``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import tempfile
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.spec import EXTRAPOLATION_HOSTS, PipelineSpec, normalize_window
from ..eval.tracking import success_rate
from ..nn.models import build_mdnet
from ..video.datasets import build_tracking_dataset
from .runner import ExperimentArtifact, SweepRunner

#: Accuracy is scored at the IoU threshold the paper quotes.
ACCURACY_IOU_THRESHOLD = 0.5

#: Spec fields the tuner may sweep.  Execution knobs (``transport``,
#: ``kernel_backend``) are excluded by construction: they
#: never change outputs *or* modeled cost (fps is modeled too), so
#: searching them would only produce duplicate points.
SEARCHABLE_FIELDS: Tuple[str, ...] = (
    "extrapolation_window",
    "block_size",
    "search_range",
    "exhaustive_search",
    "frame_format",
    "sub_roi_grid",
    "expose_motion_vectors",
    "soc_config",
    "extrapolation_host",
)

#: Strategies :func:`run_tune` accepts.
STRATEGIES = ("auto", "grid", "random")


class TuneError(RuntimeError):
    """A tuner misconfiguration (bad space, stale store, unknown preset)."""


# ----------------------------------------------------------------------
# Search spaces
# ----------------------------------------------------------------------
#: Built-in search spaces: dimension name -> candidate values.
TUNE_SPACES: Dict[str, Dict[str, List[object]]] = {
    # Small co-design space for CI and quick local runs: window policy x
    # capture preset (the two axes with the steepest energy gradients).
    "ci": {
        "extrapolation_window": [1, 2, 4, 8, "adaptive"],
        "soc_config": ["default", "720p30"],
    },
    # The full co-design space of the paper's sensitivity studies.
    "full": {
        "extrapolation_window": [1, 2, 4, 8, 16, 32, "adaptive"],
        "block_size": [8, 16, 32],
        "exhaustive_search": [False, True],
        "frame_format": ["q8.4", "q8.8", "float"],
        "soc_config": ["default", "1080p30", "720p60", "720p30"],
        "extrapolation_host": ["mc", "cpu"],
    },
}


def load_space(space: Union[str, Dict[str, List[object]]]) -> Tuple[str, Dict[str, List[object]]]:
    """Resolve a space argument: a built-in name, a JSON file path, or a dict.

    Returns ``(label, dimensions)``.  Every dimension must be a searchable
    spec field with a non-empty value list.
    """
    if isinstance(space, dict):
        label, dimensions = "custom", space
    elif space in TUNE_SPACES:
        label, dimensions = space, TUNE_SPACES[space]
    else:
        path = Path(space)
        if not path.exists():
            names = ", ".join(sorted(TUNE_SPACES))
            raise TuneError(
                f"unknown search space '{space}' (expected one of: {names}, "
                "or a path to a JSON space file)"
            )
        try:
            dimensions = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise TuneError(f"malformed space file '{space}': {error}") from None
        label = path.stem
    if not isinstance(dimensions, dict) or not dimensions:
        raise TuneError("a search space must be a non-empty {dimension: values} mapping")
    validated: Dict[str, List[object]] = {}
    for name, values in dimensions.items():
        if name not in SEARCHABLE_FIELDS:
            raise TuneError(
                f"'{name}' is not a searchable spec dimension "
                f"(expected one of: {', '.join(SEARCHABLE_FIELDS)})"
            )
        if not isinstance(values, (list, tuple)) or not values:
            raise TuneError(f"dimension '{name}' needs a non-empty list of values")
        if name == "sub_roi_grid":
            values = [tuple(int(v) for v in value) for value in values]
        validated[name] = list(values)
    return label, validated


def _redundant_combo(combo: Dict[str, object]) -> bool:
    """Skip combinations that cannot produce a new point: a CPU
    extrapolation host at EW-1 (no E-frames exist to price there)."""
    if combo.get("extrapolation_host", "mc") == "cpu":
        if normalize_window(combo.get("extrapolation_window", 2)) == 1:
            return True
    return False


def enumerate_candidates(
    dimensions: Dict[str, List[object]], base_spec: Optional[PipelineSpec] = None
) -> List[PipelineSpec]:
    """The deduplicated candidate specs of a search space, in a stable order.

    The cartesian product is taken in sorted-dimension order (so the
    sequence is independent of dict insertion order), redundant combos are
    filtered, and the base spec (the seed configuration every frontier is
    anchored to) is always candidate zero.
    """
    base = base_spec if base_spec is not None else PipelineSpec()
    names = sorted(dimensions)
    candidates: List[PipelineSpec] = [base]
    seen = {base.cache_key()}
    for values in itertools.product(*(dimensions[name] for name in names)):
        combo = dict(zip(names, values))
        if _redundant_combo(combo):
            continue
        spec = replace(base, **combo)
        key = spec.cache_key()
        if key in seen:
            continue
        seen.add(key)
        candidates.append(spec)
    return candidates


def searchable_dimensions() -> Dict[str, Dict[str, object]]:
    """Machine-readable description of every searchable spec dimension.

    Exposed through ``python -m repro.harness list --json`` so external
    scripts (and the tuner's own space validation) can enumerate the
    search space without importing repo internals.
    """
    from ..soc.config import SOC_CAPTURE_PRESETS

    defaults = PipelineSpec()
    choices: Dict[str, Optional[List[object]]] = {
        "extrapolation_window": None,  # any int >= 1, or "adaptive"
        "block_size": None,
        "search_range": None,
        "exhaustive_search": [False, True],
        "frame_format": None,  # any qM.F spelling, or "float"
        "sub_roi_grid": None,
        "expose_motion_vectors": [False, True],
        "soc_config": sorted(SOC_CAPTURE_PRESETS),  # or WxH@FPS
        "extrapolation_host": list(EXTRAPOLATION_HOSTS),
    }
    listing: Dict[str, Dict[str, object]] = {}
    for spec_field in fields(PipelineSpec):
        if spec_field.name not in SEARCHABLE_FIELDS:
            continue
        default = getattr(defaults, spec_field.name)
        if isinstance(default, tuple):
            default = list(default)
        listing[spec_field.name] = {
            "default": default,
            "choices": choices[spec_field.name],
        }
    return listing


# ----------------------------------------------------------------------
# Fidelity (dataset size) presets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TuneFidelity:
    """Dataset size one evaluation runs at (part of every store key)."""

    sequences: int = 8
    frames: int = 36
    dataset_seed: int = 100

    def to_dict(self) -> Dict[str, int]:
        return {
            "sequences": self.sequences,
            "frames": self.frames,
            "dataset_seed": self.dataset_seed,
        }


#: Dataset-size presets (mirroring the harness ``--smoke``/full profiles).
TUNE_PRESETS: Dict[str, TuneFidelity] = {
    "ci": TuneFidelity(sequences=2, frames=12, dataset_seed=100),
    "full": TuneFidelity(sequences=8, frames=36, dataset_seed=100),
}


# ----------------------------------------------------------------------
# Results and the disk store
# ----------------------------------------------------------------------
@dataclass
class TuneResult:
    """One evaluated design point: configuration + measured objectives."""

    key: str
    spec_args: List[str]
    describe: str
    fidelity: Dict[str, int]
    accuracy: float
    energy_per_frame_mj: float
    fps: float
    latency_ms: float
    inference_rate: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "spec": list(self.spec_args),
            "describe": self.describe,
            "fidelity": dict(self.fidelity),
            "metrics": {
                "accuracy": self.accuracy,
                "energy_per_frame_mj": self.energy_per_frame_mj,
                "fps": self.fps,
                "latency_ms": self.latency_ms,
                "inference_rate": self.inference_rate,
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TuneResult":
        metrics = payload["metrics"]
        return cls(
            key=payload["key"],
            spec_args=list(payload["spec"]),
            describe=payload["describe"],
            fidelity=dict(payload["fidelity"]),
            accuracy=float(metrics["accuracy"]),
            energy_per_frame_mj=float(metrics["energy_per_frame_mj"]),
            fps=float(metrics["fps"]),
            latency_ms=float(metrics["latency_ms"]),
            inference_rate=float(metrics["inference_rate"]),
        )


def point_key(
    spec: PipelineSpec,
    fidelity: TuneFidelity,
    seed: int,
    task: str = "tracking",
    backend: str = "mdnet",
) -> str:
    """The stable store key of one (configuration, dataset, seed) point.

    Built from ``spec.cache_key()`` — the same canonical identity the
    in-memory sweep cache uses — plus everything else that determines the
    measurement, so a store entry is valid across processes and machines.
    """
    cache_key = [list(part) if isinstance(part, tuple) else part for part in spec.cache_key()]
    payload = [task, backend, int(seed), fidelity.to_dict(), cache_key]
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TuneStore:
    """Append-only JSONL store of evaluated design points.

    Each line is one :class:`TuneResult`; results are flushed as soon as
    they are measured, so an interrupted sweep loses at most the point in
    flight.  ``load()`` replays the file (later lines win, so a re-measured
    point supersedes its predecessor), after which membership checks make
    resume skip every already-evaluated point.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._results: Dict[str, TuneResult] = {}

    def __len__(self) -> int:
        return len(self._results)

    def __contains__(self, key: str) -> bool:
        return key in self._results

    def get(self, key: str) -> Optional[TuneResult]:
        return self._results.get(key)

    def results(self) -> List[TuneResult]:
        return list(self._results.values())

    def load(self) -> int:
        """Replay the on-disk journal; returns the number of lines read."""
        if not self.path.exists():
            return 0
        lines = 0
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                result = TuneResult.from_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError) as error:
                raise TuneError(
                    f"corrupt tune store line in {self.path}: {error}"
                ) from None
            self._results[result.key] = result
            lines += 1
        return lines

    def add(self, result: TuneResult) -> None:
        """Record a fresh evaluation (journaled to disk immediately)."""
        self._results[result.key] = result
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as journal:
            journal.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
            journal.flush()


# ----------------------------------------------------------------------
# Evaluation: one design point -> (accuracy, energy, throughput)
# ----------------------------------------------------------------------
class TuneEvaluator:
    """Scores design points on the shared runner + cost-meter core.

    The vision run is executed under a *pricing-normalized* spec
    (``soc_config``/``extrapolation_host`` reset to defaults) because those
    knobs never change pipeline outputs — so every SoC variant of the same
    algorithm shares one pipeline execution through the runner cache — and
    the point's actual SoC model then prices the recorded telemetry.
    """

    def __init__(self, runner: Optional[SweepRunner] = None, seed: int = 1) -> None:
        self.runner = runner or SweepRunner()
        self.seed = seed
        self._network = build_mdnet()
        self._datasets: Dict[TuneFidelity, object] = {}

    def dataset(self, fidelity: TuneFidelity):
        if fidelity not in self._datasets:
            self._datasets[fidelity] = build_tracking_dataset(
                otb_sequences=fidelity.sequences,
                vot_sequences=0,
                frames_per_sequence=fidelity.frames,
                seed=fidelity.dataset_seed,
            )
        return self._datasets[fidelity]

    def evaluate(self, spec: PipelineSpec, fidelity: TuneFidelity) -> TuneResult:
        dataset = self.dataset(fidelity)
        run_spec = replace(spec, soc_config="default", extrapolation_host="mc")
        run = self.runner.run(
            "tracking", "mdnet", dataset, spec=run_spec, seed=self.seed
        )
        accuracy = success_rate(run.sequences, dataset, ACCURACY_IOU_THRESHOLD)
        breakdown = spec.vision_soc().evaluate_results(
            self._network,
            run.sequences,
            extrapolation_on_cpu=spec.extrapolation_on_cpu,
            label=spec.describe(),
        )
        fps = breakdown.fps
        return TuneResult(
            key=point_key(spec, fidelity, self.seed),
            spec_args=spec.to_cli_args(),
            describe=spec.describe(),
            fidelity=fidelity.to_dict(),
            accuracy=accuracy,
            energy_per_frame_mj=breakdown.energy_per_frame_j * 1e3,
            fps=fps,
            latency_ms=(1000.0 / fps) if fps > 0 else math.inf,
            inference_rate=breakdown.inference_rate,
        )


# ----------------------------------------------------------------------
# Pareto machinery (maximize accuracy & fps, minimize energy)
# ----------------------------------------------------------------------
def _objectives(result: TuneResult) -> Tuple[float, float, float]:
    """Objective vector, uniformly *maximized* (energy enters negated)."""
    return (result.accuracy, -result.energy_per_frame_mj, result.fps)


def dominates(a: TuneResult, b: TuneResult) -> bool:
    """True when ``a`` is at least as good as ``b`` everywhere, better once."""
    obj_a, obj_b = _objectives(a), _objectives(b)
    return all(x >= y for x, y in zip(obj_a, obj_b)) and any(
        x > y for x, y in zip(obj_a, obj_b)
    )


def pareto_frontier(results: Sequence[TuneResult]) -> List[TuneResult]:
    """The non-dominated subset, sorted by descending accuracy.

    Duplicate objective vectors keep their first representative, so a
    frontier never lists the same trade-off twice.
    """
    frontier: List[TuneResult] = []
    seen_objectives = set()
    for candidate in results:
        objectives = _objectives(candidate)
        if objectives in seen_objectives:
            continue
        if any(dominates(other, candidate) for other in results):
            continue
        seen_objectives.add(objectives)
        frontier.append(candidate)
    frontier.sort(key=lambda r: (-r.accuracy, r.energy_per_frame_mj))
    return frontier


# ----------------------------------------------------------------------
# The search driver
# ----------------------------------------------------------------------
@dataclass
class TuneReport:
    """Everything one tuning invocation produced."""

    artifact: ExperimentArtifact
    frontier: List[TuneResult] = field(default_factory=list)
    evaluated: int = 0
    reused: int = 0
    skipped_budget: int = 0


def run_tune(
    space: Union[str, Dict[str, List[object]]] = "ci",
    *,
    preset: str = "ci",
    strategy: str = "auto",
    budget: Optional[int] = None,
    seed: int = 1,
    store_path: Union[str, Path] = "out/tune/store.jsonl",
    resume: bool = False,
    max_workers: int = 1,
    base_spec: Optional[PipelineSpec] = None,
    log: Optional[Callable[[str], None]] = None,
) -> TuneReport:
    """Explore a design space and return the measured Pareto frontier.

    ``budget`` caps *fresh* evaluations for this invocation; store hits are
    free, so a resumed sweep spends its budget only on missing points.  The
    frontier is computed over every store result at the target fidelity
    (accumulated across invocations of the same store), and the whole
    procedure is deterministic for a given (space, preset, strategy,
    budget, seed) — which is what makes ``resume`` re-derive the identical
    candidate schedule and skip all of it.

    Interrupting the process mid-sweep is safe: finished points are already
    journaled; the in-flight one is re-measured on resume.
    """
    emit = log or (lambda message: None)
    if strategy not in STRATEGIES:
        raise TuneError(f"unknown strategy '{strategy}' (expected one of {STRATEGIES})")
    if preset not in TUNE_PRESETS:
        raise TuneError(
            f"unknown tune preset '{preset}' (expected one of {sorted(TUNE_PRESETS)})"
        )
    space_label, dimensions = load_space(space)
    fidelity = TUNE_PRESETS[preset]
    candidates = enumerate_candidates(dimensions, base_spec)

    store = TuneStore(store_path)
    if store.path.exists() and store.path.stat().st_size > 0:
        if not resume:
            raise TuneError(
                f"tune store {store.path} already has results; pass resume=True "
                "(--resume) to continue it, or point --store somewhere fresh"
            )
        loaded = store.load()
        emit(f"resumed {loaded} stored result(s) from {store.path}")

    evaluator = TuneEvaluator(SweepRunner(max_workers=max_workers), seed=seed)
    counters = {"evaluated": 0, "reused": 0}

    # Resolve the strategy and the evaluation schedule.
    if strategy == "auto":
        strategy = "grid" if budget is None or len(candidates) <= budget else "random"
    schedule = list(candidates)
    if strategy == "random":
        tail = schedule[1:]
        random.Random(seed).shuffle(tail)
        schedule = schedule[:1] + tail
    skipped_budget = 0
    for spec in schedule:
        if store.get(point_key(spec, fidelity, seed)) is not None:
            counters["reused"] += 1
            continue
        if budget is not None and counters["evaluated"] >= budget:
            skipped_budget = 1  # at least one point was left unevaluated
            emit(f"budget of {budget} evaluation(s) exhausted; frontier uses the store")
            break
        result = evaluator.evaluate(spec, fidelity)
        store.add(result)
        counters["evaluated"] += 1
        emit(
            f"[{counters['evaluated']}{'/' + str(budget) if budget else ''}] "
            f"{result.describe}: accuracy {result.accuracy:.3f}, "
            f"{result.energy_per_frame_mj:.2f} mJ/frame, {result.fps:.1f} fps"
        )

    # The frontier is computed over every full-fidelity point the store
    # knows (this run + anything a previous run of the same store added).
    fidelity_dict = fidelity.to_dict()
    scored = [r for r in store.results() if r.fidelity == fidelity_dict]
    frontier = pareto_frontier(scored)

    baseline_key = point_key(base_spec or PipelineSpec(), fidelity, seed)
    baseline = store.get(baseline_key)
    best = best_at_baseline_accuracy(scored, baseline)

    artifact = ExperimentArtifact(
        name="tune",
        title="Design-space autotune: measured Pareto frontier "
        "(accuracy vs energy/frame vs throughput)",
        kind="figure",
    )
    artifact.add_table(
        [
            "config",
            "accuracy@0.5",
            "energy_mJ/frame",
            "fps",
            "latency_ms",
            "inference_rate",
            "spec flags",
        ],
        [
            [
                result.describe,
                round(result.accuracy, 4),
                round(result.energy_per_frame_mj, 3),
                round(result.fps, 1),
                round(result.latency_ms, 3),
                round(result.inference_rate, 4),
                " ".join(result.spec_args) or "(defaults)",
            ]
            for result in frontier
        ],
        title="Pareto frontier (non-dominated design points)",
    )
    artifact.metadata.update(
        {
            "space": space_label,
            "preset": preset,
            "strategy": strategy,
            "budget": budget,
            "seed": seed,
            "fidelity": fidelity_dict,
            "candidates": len(candidates),
            "evaluated": counters["evaluated"],
            "reused": counters["reused"],
            "budget_exhausted": bool(skipped_budget),
            "scored_points": len(scored),
            "frontier_size": len(frontier),
            "store": str(store.path),
        }
    )
    if baseline is not None:
        artifact.metadata["baseline"] = {
            "describe": baseline.describe,
            "accuracy": round(baseline.accuracy, 4),
            "energy_per_frame_mj": round(baseline.energy_per_frame_mj, 3),
            "fps": round(baseline.fps, 1),
        }
    if best is not None:
        artifact.metadata["best_at_baseline_accuracy"] = {
            "describe": best.describe,
            "spec_args": list(best.spec_args),
            "accuracy": round(best.accuracy, 4),
            "energy_per_frame_mj": round(best.energy_per_frame_mj, 3),
            "fps": round(best.fps, 1),
            "energy_saving_vs_baseline_pct": (
                round(
                    100.0
                    * (1.0 - best.energy_per_frame_mj / baseline.energy_per_frame_mj),
                    2,
                )
                if baseline is not None and baseline.energy_per_frame_mj > 0
                else None
            ),
        }
    return TuneReport(
        artifact=artifact,
        frontier=frontier,
        evaluated=counters["evaluated"],
        reused=counters["reused"],
        skipped_budget=skipped_budget,
    )


def best_at_baseline_accuracy(
    results: Sequence[TuneResult], baseline: Optional[TuneResult]
) -> Optional[TuneResult]:
    """Lowest-energy point whose accuracy is >= the baseline's (ties: fps).

    This is the headline co-design answer — "the cheapest configuration
    that gives up nothing" — and the selection rule behind the shipped
    ``tuned-*`` spec presets.  Falls back to the overall lowest-energy
    point when no baseline measurement exists.
    """
    if not results:
        return None
    if baseline is not None:
        eligible = [r for r in results if r.accuracy >= baseline.accuracy - 1e-9]
        if eligible:
            return min(eligible, key=lambda r: (r.energy_per_frame_mj, -r.fps))
    return min(results, key=lambda r: (r.energy_per_frame_mj, -r.fps))


def benchmark_tune(fidelity_preset: str, seed: int, workers: int) -> dict:
    """One grid sweep of the ``ci`` space plus a resume pass: a trajectory entry.

    The entry records the measured frontier, the lowest modeled
    energy-per-frame at >= the seed (default-spec) configuration's accuracy,
    and how many points the immediate resume pass against the same store
    evaluated — anything but zero means the store stopped deduplicating work.
    """
    with tempfile.TemporaryDirectory(prefix="tune-bench-") as tmp:
        store_path = Path(tmp) / "store.jsonl"
        sweep = dict(
            preset=fidelity_preset,
            strategy="grid",
            seed=seed,
            store_path=store_path,
            max_workers=workers,
        )
        report = run_tune("ci", **sweep)
        resumed = run_tune("ci", resume=True, **sweep)
        store = TuneStore(store_path)
        store.load()
        fidelity = TUNE_PRESETS[fidelity_preset]
        baseline = store.get(point_key(PipelineSpec(), fidelity, seed))
        best = best_at_baseline_accuracy(store.results(), baseline)
    entry = {
        "benchmark": "tune",
        "space": "ci",
        "strategy": "grid",
        "seed": seed,
        "fidelity": fidelity.to_dict(),
        "candidates": report.artifact.metadata["candidates"],
        "evaluated": report.evaluated,
        "resume_reevaluated": resumed.evaluated,
        "frontier_points": len(report.frontier),
        "frontier": [
            {
                "config": result.describe,
                "spec": list(result.spec_args),
                "accuracy": round(result.accuracy, 4),
                "energy_per_frame_mj": round(result.energy_per_frame_mj, 3),
                "fps": round(result.fps, 1),
            }
            for result in report.frontier
        ],
    }
    if baseline is not None:
        entry["baseline_accuracy"] = round(baseline.accuracy, 4)
        entry["baseline_energy_per_frame_mj"] = round(baseline.energy_per_frame_mj, 3)
    if best is not None:
        entry["best_energy_per_frame_mj"] = round(best.energy_per_frame_mj, 3)
        entry["best_config"] = best.describe
        entry["best_accuracy"] = round(best.accuracy, 4)
    return entry
