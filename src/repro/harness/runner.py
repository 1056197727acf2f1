"""Experiment registry and the shared sweep runner.

This module turns the per-figure functions of :mod:`repro.harness.experiments`
into a real experiment subsystem:

* :class:`SweepRunner` executes pipeline sweeps.  It fans sequence execution
  out over worker shards (via ``EuphratesPipeline.run_dataset``'s
  ``max_workers``, i.e. the shared
  :class:`~repro.core.executor.ShardedExecutor` serving the live
  multiplexer too) and memoizes each swept pipeline configuration — figures
  that share sweep points (10a/10c/12 on the tracking sweep, 11a/11b on the
  block-16 TSS points) reuse one :class:`~repro.core.types.DatasetRunResult`
  instead of recomputing it.
* :class:`ExperimentSpec` + :func:`register` form a registry mapping stable
  names (``fig9a`` … ``table2``) to builder functions; the CLI
  (``python -m repro.harness``) and the benchmark suite both resolve
  experiments through it.
* :class:`ExperimentContext` carries everything a builder needs — the shared
  runner, lazily-built datasets, the seed — and memoizes finished artifacts so
  one experiment can consume another's measurements (Fig. 10b reads the EW-A
  inference rate measured by Fig. 10a).
* :class:`ExperimentArtifact` is the structured result: named tables
  (headers + rows) plus metadata, convertible to JSON via
  :mod:`repro.harness.reporting`.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.backends import detection_backend_for, tracking_backend_for
from ..core.spec import PipelineSpec
from ..core.types import DatasetRunResult
from ..video.datasets import Dataset, build_detection_dataset, build_tracking_dataset


# ----------------------------------------------------------------------
# Structured results
# ----------------------------------------------------------------------
@dataclass
class ResultTable:
    """One labelled table of an experiment artifact."""

    title: str
    headers: List[str]
    rows: List[List[object]]


@dataclass
class ExperimentArtifact:
    """Structured output of one registered experiment."""

    name: str
    title: str
    kind: str  # "figure" or "table"
    tables: List[ResultTable] = field(default_factory=list)
    #: Free-form scalar measurements (inference rates, dataset sizes, ...).
    metadata: Dict[str, object] = field(default_factory=dict)

    def add_table(
        self,
        headers: Sequence[str],
        rows: Sequence[Sequence[object]],
        title: str = "",
    ) -> None:
        self.tables.append(
            ResultTable(
                title=title or self.title,
                headers=list(headers),
                rows=[list(row) for row in rows],
            )
        )


# ----------------------------------------------------------------------
# Sweep runner with per-configuration caching
# ----------------------------------------------------------------------
#: Cache key identifying one pipeline configuration over one dataset:
#: (dataset_key, task, backend, seed) + PipelineSpec.cache_key().
SweepPoint = Tuple[object, ...]


class SweepRunner:
    """Runs pipeline sweeps with process parallelism and result caching.

    One runner instance is shared across a whole CLI invocation (or the whole
    benchmark session): any two experiments that ask for the same
    (dataset, backend, :class:`~repro.core.spec.PipelineSpec`, seed)
    configuration share a single pipeline execution.  Pipelines are
    constructed fresh per cache miss, so a cached result is identical to
    what an isolated run would have produced.
    """

    def __init__(self, max_workers: int = 1) -> None:
        self.max_workers = max_workers
        self.cache_hits = 0
        self.cache_misses = 0
        self._cache: Dict[SweepPoint, DatasetRunResult] = {}
        # Strong references keep id()-keyed datasets alive so a recycled id
        # can never alias two different datasets.
        self._datasets: Dict[int, Dataset] = {}

    def dataset_key(self, dataset: Dataset) -> str:
        """A stable identity for a dataset object within this runner."""
        self._datasets[id(dataset)] = dataset
        name = getattr(dataset, "name", dataset.__class__.__name__)
        return f"{name}@{id(dataset):x}"

    def run(
        self,
        task: str,
        backend: str,
        dataset: Dataset,
        window: Union[int, str, None] = None,
        *,
        spec: Optional[PipelineSpec] = None,
        seed: int = 1,
    ) -> DatasetRunResult:
        """Run (or reuse) one pipeline configuration over ``dataset``.

        The configuration is a :class:`~repro.core.spec.PipelineSpec`
        (default: ``PipelineSpec()``); ``window``, when given, overrides its
        extrapolation window, so a sweep can thread one base spec through
        and vary the window per call.  The spec's
        :meth:`~repro.core.spec.PipelineSpec.cache_key` is the memoization
        key, so e.g. ``search_policy`` participates in it and
        policy-comparison experiments measure genuinely separate runs even
        though every policy returns bit-identical motion fields.
        """
        if window is not None:
            base = spec if spec is not None else PipelineSpec()
            spec = replace(base, extrapolation_window=window)
        elif spec is None:
            raise ValueError("run() needs a window (or a full PipelineSpec)")
        point: SweepPoint = (
            self.dataset_key(dataset),
            task,
            backend,
            seed,
        ) + spec.cache_key()
        cached = self._cache.get(point)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        if task == "detection":
            inference_backend = detection_backend_for(backend, seed=seed)
        elif task == "tracking":
            inference_backend = tracking_backend_for(backend, seed=seed)
        else:
            raise ValueError(f"unknown task '{task}' (expected 'detection' or 'tracking')")
        pipeline = spec.build(inference_backend)
        result = DatasetRunResult(
            sequences=pipeline.run_dataset(dataset, max_workers=self.max_workers)
        )
        self._cache[point] = result
        return result


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: a stable name plus an artifact builder."""

    name: str
    title: str
    kind: str  # "figure" or "table"
    build: Callable[["ExperimentContext"], ExperimentArtifact]
    description: str = ""


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(
    name: str, title: str, kind: str = "figure", description: str = ""
) -> Callable[[Callable[["ExperimentContext"], ExperimentArtifact]], Callable]:
    """Decorator registering an artifact builder under ``name``."""

    def decorator(build: Callable[["ExperimentContext"], ExperimentArtifact]) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"experiment '{name}' registered twice")
        _REGISTRY[name] = ExperimentSpec(
            name=name, title=title, kind=kind, build=build, description=description
        )
        return build

    return decorator


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a registered experiment; unknown names get a suggestion."""
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        close = difflib.get_close_matches(name, _REGISTRY, n=1)
        hint = f" (did you mean '{close[0]}'?)" if close else ""
        raise KeyError(f"unknown experiment '{name}'{hint}") from None


def list_experiments() -> List[ExperimentSpec]:
    """All registered experiments in registration (paper) order."""
    _ensure_registered()
    return list(_REGISTRY.values())


def _ensure_registered() -> None:
    # The registry entries live in repro.harness.experiments; importing the
    # module populates _REGISTRY exactly once.
    from . import experiments  # noqa: F401


# ----------------------------------------------------------------------
# Execution context
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DatasetSpec:
    """Sizes of the synthetic stand-in datasets used for a harness run.

    The defaults mirror ``benchmarks/conftest.py`` so the CLI reproduces the
    numbers the benchmark suite prints (and EXPERIMENTS.md records).
    """

    otb_sequences: int = 8
    vot_sequences: int = 3
    tracking_frames: int = 36
    tracking_seed: int = 100
    small_otb_sequences: int = 5
    small_tracking_frames: int = 30
    small_tracking_seed: int = 500
    detection_sequences: int = 3
    detection_frames: int = 32
    detection_seed: int = 7264

    @classmethod
    def smoke(cls) -> "DatasetSpec":
        """A near-minimal profile for CI smoke runs.

        Tracking and detection keep two sequences each: ``run_dataset``
        never runs more workers than sequences (so with one sequence
        ``--workers 2`` would be a no-op), and the first tracking sequence
        carries the empty attribute bundle (so the Fig. 12 smoke table would
        be empty).
        """
        return cls(
            otb_sequences=2,
            vot_sequences=0,
            tracking_frames=12,
            small_otb_sequences=1,
            small_tracking_frames=12,
            detection_sequences=2,
            detection_frames=12,
        )


class ExperimentContext:
    """Shared state for one harness run: runner, datasets, seed, artifacts."""

    def __init__(
        self,
        runner: Optional[SweepRunner] = None,
        datasets: Optional[DatasetSpec] = None,
        seed: int = 1,
        base_spec: Optional[PipelineSpec] = None,
    ) -> None:
        self.runner = runner or SweepRunner()
        self.datasets = datasets or DatasetSpec()
        self.seed = seed
        #: The base pipeline configuration experiments start their sweeps
        #: from (the CLI builds it from the spec flags); each experiment
        #: overrides only the dimensions it sweeps.
        self.base_spec = base_spec or PipelineSpec()
        self._dataset_cache: Dict[str, Dataset] = {}
        self._artifacts: Dict[str, ExperimentArtifact] = {}
        self._vision_soc = None

    @property
    def search_policy(self) -> str:
        """ES candidate-scan policy of :attr:`base_spec` (Fig. 11b sweeps)."""
        return self.base_spec.search_policy

    @property
    def vision_soc(self):
        """The modeled SoC named by the base spec's ``--soc-config``.

        Shared across experiments so analytic and measured energy figures
        price frames on the same hardware model.
        """
        if self._vision_soc is None:
            self._vision_soc = self.base_spec.vision_soc()
        return self._vision_soc

    # -- datasets (built lazily, shared between experiments) -----------
    @property
    def tracking_dataset(self) -> Dataset:
        if "tracking" not in self._dataset_cache:
            spec = self.datasets
            self._dataset_cache["tracking"] = build_tracking_dataset(
                otb_sequences=spec.otb_sequences,
                vot_sequences=spec.vot_sequences,
                frames_per_sequence=spec.tracking_frames,
                seed=spec.tracking_seed,
            )
        return self._dataset_cache["tracking"]

    @property
    def small_tracking_dataset(self) -> Dataset:
        if "small_tracking" not in self._dataset_cache:
            spec = self.datasets
            self._dataset_cache["small_tracking"] = build_tracking_dataset(
                otb_sequences=spec.small_otb_sequences,
                vot_sequences=0,
                frames_per_sequence=spec.small_tracking_frames,
                seed=spec.small_tracking_seed,
            )
        return self._dataset_cache["small_tracking"]

    @property
    def detection_dataset(self) -> Dataset:
        if "detection" not in self._dataset_cache:
            spec = self.datasets
            self._dataset_cache["detection"] = build_detection_dataset(
                num_sequences=spec.detection_sequences,
                frames_per_sequence=spec.detection_frames,
                seed=spec.detection_seed,
            )
        return self._dataset_cache["detection"]

    # -- artifacts ------------------------------------------------------
    def artifact(self, name: str) -> ExperimentArtifact:
        """Build (or reuse) the artifact of the experiment called ``name``.

        Memoization makes cross-experiment dependencies order-independent:
        Fig. 10b can ask for Fig. 10a's artifact whether or not it already
        ran, and ``run-all`` still builds everything exactly once.
        """
        if name not in self._artifacts:
            spec = get_experiment(name)
            self._artifacts[name] = spec.build(self)
        return self._artifacts[name]
