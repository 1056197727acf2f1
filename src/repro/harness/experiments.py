"""Experiment runners that regenerate every table and figure of the paper.

Each function is self-contained: it builds (or accepts) a dataset, runs the
relevant pipelines / SoC evaluations, and returns a result object whose
``rows()`` mirror the table or data series in the paper.  The benchmark
suite (``benchmarks/``) calls these functions and asserts the qualitative
shape of the results; EXPERIMENTS.md records paper-vs-measured values.

Every pipeline-driven figure accepts an optional shared
:class:`~repro.harness.runner.SweepRunner`; passing one de-duplicates sweep
points across figures (10a/10c/12 share most of theirs) and distributes
sequence execution over worker processes.  The registry entries at the bottom
of this module expose each figure/table to ``python -m repro.harness``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.spec import PipelineSpec
from ..eval.attributes import attribute_precision
from ..eval.detection import precision_curve
from ..eval.tracking import per_sequence_success, success_curve, success_rate
from ..nn.models import (
    FIG1_REFERENCE_DETECTORS,
    MOBILE_TOPS_BUDGET,
    build_mdnet,
    build_tiny_yolo,
    build_yolo_v2,
)
from ..soc.config import SoCConfig
from ..soc.soc import EnergyBreakdown, FrameSchedule, VisionSoC
from ..video.attributes import VisualAttribute
from ..video.datasets import (
    Dataset,
    build_detection_dataset,
    build_tracking_dataset,
)
from .runner import (
    ExperimentArtifact,
    ExperimentContext,
    SweepRunner,
    register,
)


# Default EW sweep used throughout the paper's figures.
DEFAULT_EW_SWEEP: Tuple[int, ...] = (2, 4, 8, 16, 32)


# ----------------------------------------------------------------------
# Result containers
# ----------------------------------------------------------------------
@dataclass
class PrecisionCurveResult:
    """Accuracy-vs-IoU-threshold curves for a set of configurations."""

    title: str
    curves: Dict[str, Dict[float, float]] = field(default_factory=dict)
    inference_rates: Dict[str, float] = field(default_factory=dict)

    def at(self, label: str, threshold: float = 0.5) -> float:
        """Accuracy of one configuration at a specific IoU threshold."""
        curve = self.curves[label]
        key = min(curve.keys(), key=lambda t: abs(t - threshold))
        return curve[key]

    def rows(self) -> List[Sequence[object]]:
        thresholds = sorted(next(iter(self.curves.values())).keys()) if self.curves else []
        rows = []
        for label, curve in self.curves.items():
            rows.append([label] + [round(curve[t], 3) for t in thresholds])
        return rows

    def headers(self) -> List[str]:
        thresholds = sorted(next(iter(self.curves.values())).keys()) if self.curves else []
        return ["config"] + [f"IoU>{t:.1f}" for t in thresholds]


@dataclass
class EnergyExperimentResult:
    """Energy / FPS / traffic comparison across configurations."""

    title: str
    baseline_label: str
    breakdowns: Dict[str, EnergyBreakdown] = field(default_factory=dict)

    @property
    def baseline(self) -> EnergyBreakdown:
        return self.breakdowns[self.baseline_label]

    def normalized_energy(self, label: str) -> float:
        return self.breakdowns[label].normalized_to(self.baseline)

    def rows(self) -> List[Sequence[object]]:
        rows = []
        for label, result in self.breakdowns.items():
            rows.append(
                [
                    label,
                    round(result.normalized_to(self.baseline), 3),
                    round(result.fps, 1),
                    round(result.inference_rate, 3),
                    round(result.frontend_energy_per_frame_j * 1e3, 2),
                    round(result.memory_energy_per_frame_j * 1e3, 2),
                    round(result.backend_energy_per_frame_j * 1e3, 2),
                    round(result.ops_per_frame / 1e9, 2),
                    round(result.traffic_per_frame_bytes / 1e6, 1),
                ]
            )
        return rows

    @staticmethod
    def headers() -> List[str]:
        return [
            "config",
            "norm_energy",
            "fps",
            "inference_rate",
            "frontend_mJ/frame",
            "memory_mJ/frame",
            "backend_mJ/frame",
            "GOPs/frame",
            "traffic_MB/frame",
        ]


@dataclass
class ScalarSweepResult:
    """A labelled mapping of sweep points to scalar accuracy values."""

    title: str
    values: Dict[str, Dict[object, float]] = field(default_factory=dict)

    def rows(self) -> List[Sequence[object]]:
        rows = []
        for label, series in self.values.items():
            for point, value in series.items():
                rows.append([label, point, round(value, 4)])
        return rows

    @staticmethod
    def headers() -> List[str]:
        return ["config", "point", "value"]


# ----------------------------------------------------------------------
# Fig. 1 and the configuration tables
# ----------------------------------------------------------------------
def figure1_accuracy_vs_tops() -> List[Tuple[str, float, float, bool, bool]]:
    """Fig. 1: accuracy vs compute for detection approaches at 480p/60 FPS.

    Returns rows of ``(name, TOPS, accuracy %, is_cnn, fits 1 W budget)``.
    """
    rows = []
    for reference in FIG1_REFERENCE_DETECTORS:
        rows.append(
            (
                reference.name,
                reference.tops_at_480p60,
                reference.accuracy_percent,
                reference.is_cnn,
                reference.tops_at_480p60 <= MOBILE_TOPS_BUDGET,
            )
        )
    return rows


def table1_soc_configuration(config: Optional[SoCConfig] = None) -> List[Tuple[str, str]]:
    """Table 1: the modeled vision SoC."""
    return (config or SoCConfig()).table1_rows()


def table2_workloads(
    detection_frames: int = 7264,
    otb_frames: int = 59040,
    vot_frames: int = 10213,
) -> List[Tuple[str, str, float, str, int]]:
    """Table 2: benchmark summary (domain, network, GOPS at 60 FPS, dataset)."""
    yolo = build_yolo_v2()
    tiny = build_tiny_yolo()
    mdnet = build_mdnet()
    return [
        ("Object Detection", tiny.name, tiny.gops_at_fps(60.0), "In-house-like video sequences", detection_frames),
        ("Object Detection", yolo.name, yolo.gops_at_fps(60.0), "In-house-like video sequences", detection_frames),
        ("Object Tracking", mdnet.name, mdnet.gops_at_fps(60.0), "OTB-100-like", otb_frames),
        ("Object Tracking", mdnet.name, mdnet.gops_at_fps(60.0), "VOT-2014-like", vot_frames),
    ]


# ----------------------------------------------------------------------
# Fig. 9: object detection
# ----------------------------------------------------------------------
def figure9a_detection_precision(
    dataset: Optional[Dataset] = None,
    ew_values: Sequence[int] = DEFAULT_EW_SWEEP,
    seed: int = 1,
    runner: Optional[SweepRunner] = None,
    spec: Optional[PipelineSpec] = None,
) -> PrecisionCurveResult:
    """Fig. 9a: detection AP vs IoU threshold for YOLOv2, EW-N, Tiny YOLO."""
    dataset = dataset or build_detection_dataset()
    runner = runner or SweepRunner()
    spec = spec or PipelineSpec()
    result = PrecisionCurveResult(title="Fig. 9a: average precision vs IoU threshold")

    def run(label: str, backend_name: str, window: Union[int, str]) -> None:
        run_result = runner.run("detection", backend_name, dataset, window, spec=spec, seed=seed)
        result.curves[label] = precision_curve(run_result.sequences, dataset)
        result.inference_rates[label] = run_result.inference_rate

    run("YOLOv2", "yolov2", 1)
    for window in ew_values:
        run(f"EW-{window}", "yolov2", window)
    run("TinyYOLO", "tinyyolo", 1)
    return result


def figure9b_detection_energy(
    ew_values: Sequence[int] = DEFAULT_EW_SWEEP,
    num_frames: int = 7264,
    rois_per_frame: float = 6.0,
    soc: Optional[VisionSoC] = None,
) -> EnergyExperimentResult:
    """Fig. 9b: normalized SoC energy and FPS for the detection scenario.

    Includes the baseline YOLOv2, the EW sweep, the EW-8@CPU configuration
    (software-hosted extrapolation) and the Tiny YOLO comparison.
    """
    soc = soc or VisionSoC()
    yolo = build_yolo_v2()
    tiny = build_tiny_yolo()
    result = EnergyExperimentResult(
        title="Fig. 9b: detection energy and FPS", baseline_label="YOLOv2"
    )
    result.breakdowns["YOLOv2"] = soc.evaluate_constant_ew(
        yolo, 1, num_frames=num_frames, rois_per_frame=rois_per_frame
    )
    for window in ew_values:
        result.breakdowns[f"EW-{window}"] = soc.evaluate_constant_ew(
            yolo, window, num_frames=num_frames, rois_per_frame=rois_per_frame
        )
    result.breakdowns["EW-8@CPU"] = soc.evaluate_constant_ew(
        yolo,
        8,
        num_frames=num_frames,
        rois_per_frame=rois_per_frame,
        extrapolation_on_cpu=True,
        label="EW-8@CPU",
    )
    result.breakdowns["TinyYOLO"] = soc.evaluate_constant_ew(
        tiny, 1, num_frames=num_frames, rois_per_frame=rois_per_frame, label="TinyYOLO"
    )
    return result


def figure9b_detection_energy_measured(
    dataset: Optional[Dataset] = None,
    ew_values: Sequence[int] = DEFAULT_EW_SWEEP,
    seed: int = 1,
    runner: Optional[SweepRunner] = None,
    spec: Optional[PipelineSpec] = None,
    soc: Optional[VisionSoC] = None,
) -> EnergyExperimentResult:
    """Fig. 9b, measured mode: detection energy from recorded event streams.

    Runs the actual Euphrates pipeline per configuration and prices every
    processed frame, so the I/E schedule and ROI counts are measurements
    rather than the constant-EW closed form.  Shares sweep points with
    Fig. 9a through the runner cache.  The spec's ``extrapolation_host``
    picks the E-frame pricing host for every row (the dedicated EW-8@CPU
    row always prices on the CPU, mirroring the analytic figure).
    """
    dataset = dataset or build_detection_dataset()
    runner = runner or SweepRunner()
    spec = spec or PipelineSpec()
    soc = soc or VisionSoC()
    yolo = build_yolo_v2()
    tiny = build_tiny_yolo()
    host_on_cpu = spec.extrapolation_on_cpu
    result = EnergyExperimentResult(
        title="Fig. 9b (measured): detection energy and FPS from per-frame telemetry",
        baseline_label="YOLOv2",
    )

    def measure(label, backend_name, network, window, on_cpu=host_on_cpu):
        run_result = runner.run("detection", backend_name, dataset, window, spec=spec, seed=seed)
        result.breakdowns[label] = soc.evaluate_results(
            network, run_result.sequences, extrapolation_on_cpu=on_cpu, label=label
        )

    measure("YOLOv2", "yolov2", yolo, 1)
    for window in ew_values:
        measure(f"EW-{window}", "yolov2", yolo, window)
    measure("EW-8@CPU", "yolov2", yolo, 8, on_cpu=True)
    measure("TinyYOLO", "tinyyolo", tiny, 1)
    return result


def figure10b_tracking_energy_measured(
    dataset: Optional[Dataset] = None,
    ew_values: Sequence[int] = DEFAULT_EW_SWEEP,
    include_adaptive: bool = True,
    seed: int = 1,
    runner: Optional[SweepRunner] = None,
    spec: Optional[PipelineSpec] = None,
    soc: Optional[VisionSoC] = None,
) -> EnergyExperimentResult:
    """Fig. 10b, measured mode: tracking energy from recorded event streams.

    The EW-A bar is the headline here: instead of assuming an adaptive
    inference rate, the adaptive controller's actual per-frame I/E
    decisions are priced event by event.
    """
    dataset = dataset or build_tracking_dataset()
    runner = runner or SweepRunner()
    spec = spec or PipelineSpec()
    soc = soc or VisionSoC()
    mdnet = build_mdnet()
    result = EnergyExperimentResult(
        title="Fig. 10b (measured): tracking energy and inference rate "
        "from per-frame telemetry",
        baseline_label="MDNet",
    )

    def measure(label, window):
        run_result = runner.run("tracking", "mdnet", dataset, window, spec=spec, seed=seed)
        result.breakdowns[label] = soc.evaluate_results(
            mdnet, run_result.sequences,
            extrapolation_on_cpu=spec.extrapolation_on_cpu, label=label,
        )

    measure("MDNet", 1)
    for window in ew_values:
        measure(f"EW-{window}", window)
    if include_adaptive:
        measure("EW-A", "adaptive")
    return result


def figure9c_compute_memory(
    ew_values: Sequence[int] = DEFAULT_EW_SWEEP,
    num_frames: int = 7264,
    rois_per_frame: float = 6.0,
    soc: Optional[VisionSoC] = None,
) -> List[Tuple[str, float, float]]:
    """Fig. 9c: average ops/frame (GOP) and memory traffic/frame (MB)."""
    energy = figure9b_detection_energy(
        ew_values=ew_values, num_frames=num_frames, rois_per_frame=rois_per_frame, soc=soc
    )
    rows = []
    for label in ["YOLOv2"] + [f"EW-{w}" for w in ew_values]:
        breakdown = energy.breakdowns[label]
        rows.append(
            (
                label,
                breakdown.ops_per_frame / 1e9,
                breakdown.traffic_per_frame_bytes / 1e6,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 10: visual tracking
# ----------------------------------------------------------------------
def figure10a_tracking_success(
    dataset: Optional[Dataset] = None,
    ew_values: Sequence[int] = DEFAULT_EW_SWEEP,
    include_adaptive: bool = True,
    seed: int = 1,
    runner: Optional[SweepRunner] = None,
    spec: Optional[PipelineSpec] = None,
) -> PrecisionCurveResult:
    """Fig. 10a: tracking success rate vs IoU threshold (MDNet, EW-N, EW-A)."""
    dataset = dataset or build_tracking_dataset()
    runner = runner or SweepRunner()
    spec = spec or PipelineSpec()
    result = PrecisionCurveResult(title="Fig. 10a: success rate vs IoU threshold")

    def run(label: str, window: Union[int, str]) -> None:
        run_result = runner.run("tracking", "mdnet", dataset, window, spec=spec, seed=seed)
        result.curves[label] = success_curve(run_result.sequences, dataset)
        result.inference_rates[label] = run_result.inference_rate

    run("MDNet", 1)
    for window in ew_values:
        run(f"EW-{window}", window)
    if include_adaptive:
        run("EW-A", "adaptive")
    return result


def figure10b_tracking_energy(
    ew_values: Sequence[int] = DEFAULT_EW_SWEEP,
    num_frames: int = 69253,
    adaptive_inference_rate: Optional[float] = None,
    soc: Optional[VisionSoC] = None,
) -> EnergyExperimentResult:
    """Fig. 10b: normalized energy and inference rate for tracking.

    ``adaptive_inference_rate`` should come from an actual EW-A run (e.g. the
    ``inference_rates["EW-A"]`` field of :func:`figure10a_tracking_success`);
    when omitted, the EW-A bar uses the paper-like value of ~0.28.
    """
    soc = soc or VisionSoC()
    mdnet = build_mdnet()
    result = EnergyExperimentResult(
        title="Fig. 10b: tracking energy and inference rate", baseline_label="MDNet"
    )
    result.breakdowns["MDNet"] = soc.evaluate_constant_ew(mdnet, 1, num_frames=num_frames)
    for window in ew_values:
        result.breakdowns[f"EW-{window}"] = soc.evaluate_constant_ew(
            mdnet, window, num_frames=num_frames
        )
    rate = adaptive_inference_rate if adaptive_inference_rate is not None else 0.28
    inference_frames = max(1, int(round(rate * num_frames)))
    adaptive_schedule = FrameSchedule(
        num_frames=num_frames,
        inference_frames=inference_frames,
        extrapolation_frames=num_frames - inference_frames,
        rois_per_frame=1.0,
    )
    result.breakdowns["EW-A"] = soc.evaluate(mdnet, adaptive_schedule, label="EW-A")
    return result


def figure10c_per_sequence_success(
    dataset: Optional[Dataset] = None,
    configurations: Sequence[Union[int, str]] = (2, 4, "adaptive"),
    iou_threshold: float = 0.5,
    seed: int = 1,
    runner: Optional[SweepRunner] = None,
    spec: Optional[PipelineSpec] = None,
) -> ScalarSweepResult:
    """Fig. 10c: per-sequence success rate for EW-2, EW-4 and EW-A."""
    dataset = dataset or build_tracking_dataset()
    runner = runner or SweepRunner()
    spec = spec or PipelineSpec()
    result = ScalarSweepResult(title="Fig. 10c: per-sequence success rate")
    for window in configurations:
        label = "EW-A" if isinstance(window, str) else f"EW-{window}"
        run_result = runner.run("tracking", "mdnet", dataset, window, spec=spec, seed=seed)
        per_sequence = per_sequence_success(run_result.sequences, dataset, iou_threshold)
        result.values[label] = dict(sorted(per_sequence.items()))
    return result


# ----------------------------------------------------------------------
# Fig. 11: motion-estimation sensitivity
# ----------------------------------------------------------------------
def figure11a_macroblock_sensitivity(
    dataset: Optional[Dataset] = None,
    block_sizes: Sequence[int] = (4, 8, 16, 32, 64, 128),
    ew_values: Sequence[int] = (2, 8, 32),
    iou_threshold: float = 0.5,
    seed: int = 1,
    runner: Optional[SweepRunner] = None,
    spec: Optional[PipelineSpec] = None,
) -> ScalarSweepResult:
    """Fig. 11a: tracking success rate vs macroblock size for several EWs."""
    dataset = dataset or build_tracking_dataset(otb_sequences=8, vot_sequences=0)
    runner = runner or SweepRunner()
    spec = spec or PipelineSpec()
    result = ScalarSweepResult(title="Fig. 11a: success rate vs macroblock size")
    for window in ew_values:
        series: Dict[object, float] = {}
        for block_size in block_sizes:
            run_result = runner.run(
                "tracking",
                "mdnet",
                dataset,
                window,
                spec=replace(spec, block_size=block_size),
                seed=seed,
            )
            series[block_size] = success_rate(run_result.sequences, dataset, iou_threshold)
        result.values[f"EW-{window}"] = series
    return result


def figure11b_es_vs_tss(
    dataset: Optional[Dataset] = None,
    ew_values: Sequence[int] = (2, 8, 32),
    thresholds: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    seed: int = 1,
    runner: Optional[SweepRunner] = None,
    spec: Optional[PipelineSpec] = None,
) -> Dict[str, List[Tuple[float, float, float]]]:
    """Fig. 11b: success rate with exhaustive search vs three-step search.

    Returns, per EW configuration, a list of ``(iou_threshold, es, tss)``
    points — the scatter data of the figure.
    """
    dataset = dataset or build_tracking_dataset(otb_sequences=8, vot_sequences=0)
    runner = runner or SweepRunner()
    spec = spec or PipelineSpec()
    scatter: Dict[str, List[Tuple[float, float, float]]] = {}
    for window in ew_values:
        es_run = runner.run(
            "tracking",
            "mdnet",
            dataset,
            window,
            spec=replace(spec, exhaustive_search=True),
            seed=seed,
        )
        tss_run = runner.run(
            "tracking",
            "mdnet",
            dataset,
            window,
            spec=replace(spec, exhaustive_search=False),
            seed=seed,
        )
        es_curve = success_curve(es_run.sequences, dataset, thresholds)
        tss_curve = success_curve(tss_run.sequences, dataset, thresholds)
        scatter[f"EW-{window}"] = [
            (float(t), es_curve[float(t)], tss_curve[float(t)]) for t in thresholds
        ]
    return scatter


# ----------------------------------------------------------------------
# Fig. 12: visual-attribute sensitivity
# ----------------------------------------------------------------------
def figure12_attribute_sensitivity(
    dataset: Optional[Dataset] = None,
    extrapolation_window: int = 2,
    iou_threshold: float = 0.5,
    seed: int = 1,
    runner: Optional[SweepRunner] = None,
    spec: Optional[PipelineSpec] = None,
) -> Dict[str, Dict[VisualAttribute, float]]:
    """Fig. 12: per-attribute accuracy, baseline MDNet vs Euphrates EW-2."""
    dataset = dataset or build_tracking_dataset()
    runner = runner or SweepRunner()
    spec = spec or PipelineSpec()
    output: Dict[str, Dict[VisualAttribute, float]] = {}

    baseline_run = runner.run("tracking", "mdnet", dataset, 1, spec=spec, seed=seed)
    output["MDNet"] = attribute_precision(baseline_run.sequences, dataset, iou_threshold)

    euphrates_run = runner.run(
        "tracking", "mdnet", dataset, extrapolation_window, spec=spec, seed=seed
    )
    output[f"EW-{extrapolation_window}"] = attribute_precision(
        euphrates_run.sequences, dataset, iou_threshold
    )
    return output


# ----------------------------------------------------------------------
# Registry entries: one per paper figure/table, all built on the shared
# runner so run-all executes each sweep point at most once.
# ----------------------------------------------------------------------
def _dataset_metadata(dataset: Dataset) -> Dict[str, object]:
    return {
        "dataset": dataset.name,
        "num_sequences": len(dataset),
        "total_frames": dataset.total_frames,
    }


@register("fig1", "Fig. 1: accuracy vs compute for detection at 480p/60 FPS", kind="figure")
def _fig1(context: ExperimentContext) -> ExperimentArtifact:
    artifact = ExperimentArtifact(
        name="fig1", title="Fig. 1: accuracy vs compute for detection at 480p/60 FPS", kind="figure"
    )
    artifact.add_table(
        ["approach", "TOPS@480p60", "accuracy_%", "is_cnn", "fits_1W_budget"],
        figure1_accuracy_vs_tops(),
    )
    return artifact


@register("table1", "Table 1: modeled vision SoC configuration", kind="table")
def _table1(context: ExperimentContext) -> ExperimentArtifact:
    artifact = ExperimentArtifact(
        name="table1", title="Table 1: modeled vision SoC configuration", kind="table"
    )
    artifact.add_table(["component", "configuration"], table1_soc_configuration())
    return artifact


@register("table2", "Table 2: benchmark workloads", kind="table")
def _table2(context: ExperimentContext) -> ExperimentArtifact:
    artifact = ExperimentArtifact(name="table2", title="Table 2: benchmark workloads", kind="table")
    artifact.add_table(
        ["domain", "network", "GOPS@60fps", "dataset", "frames"],
        [[d, n, round(g, 1), ds, f] for d, n, g, ds, f in table2_workloads()],
    )
    return artifact


@register("fig9a", "Fig. 9a: detection average precision vs IoU threshold", kind="figure")
def _fig9a(context: ExperimentContext) -> ExperimentArtifact:
    result = figure9a_detection_precision(
        dataset=context.detection_dataset,
        seed=context.seed,
        runner=context.runner,
        spec=context.base_spec,
    )
    artifact = ExperimentArtifact(name="fig9a", title=result.title, kind="figure")
    artifact.add_table(result.headers(), result.rows())
    artifact.metadata["inference_rates"] = {
        label: round(rate, 4) for label, rate in result.inference_rates.items()
    }
    artifact.metadata.update(_dataset_metadata(context.detection_dataset))
    artifact.metadata["seed"] = context.seed
    return artifact


@register("fig9b", "Fig. 9b: detection energy and FPS", kind="figure")
def _fig9b(context: ExperimentContext) -> ExperimentArtifact:
    result = figure9b_detection_energy(soc=context.vision_soc)
    artifact = ExperimentArtifact(name="fig9b", title=result.title, kind="figure")
    artifact.add_table(result.headers(), result.rows())
    return artifact


def _measured_vs_analytic_metadata(
    measured: EnergyExperimentResult, analytic: EnergyExperimentResult
) -> Dict[str, object]:
    """Per-configuration % delta of measured vs analytic per-frame energy."""
    deltas = {}
    for label, breakdown in measured.breakdowns.items():
        reference = analytic.breakdowns.get(label)
        if reference is None:
            continue
        deltas[label] = round(
            100.0 * (breakdown.energy_per_frame_j / reference.energy_per_frame_j - 1.0),
            2,
        )
    return {"vs_analytic_pct": deltas}


@register(
    "fig9b_measured",
    "Fig. 9b (measured): detection energy from per-frame telemetry",
    kind="figure",
)
def _fig9b_measured(context: ExperimentContext) -> ExperimentArtifact:
    result = figure9b_detection_energy_measured(
        dataset=context.detection_dataset,
        seed=context.seed,
        runner=context.runner,
        spec=context.base_spec,
        soc=context.vision_soc,
    )
    artifact = ExperimentArtifact(name="fig9b_measured", title=result.title, kind="figure")
    artifact.add_table(result.headers(), result.rows())
    artifact.metadata.update(
        _measured_vs_analytic_metadata(
            result, figure9b_detection_energy(soc=context.vision_soc)
        )
    )
    artifact.metadata.update(_dataset_metadata(context.detection_dataset))
    artifact.metadata["seed"] = context.seed
    return artifact


@register("fig9c", "Fig. 9c: compute and memory traffic per frame", kind="figure")
def _fig9c(context: ExperimentContext) -> ExperimentArtifact:
    artifact = ExperimentArtifact(
        name="fig9c", title="Fig. 9c: compute and memory traffic per frame", kind="figure"
    )
    artifact.add_table(
        ["config", "GOPs/frame", "traffic_MB/frame"],
        [[label, round(ops, 2), round(traffic, 1)] for label, ops, traffic in figure9c_compute_memory()],
    )
    return artifact


@register("fig10a", "Fig. 10a: tracking success rate vs IoU threshold", kind="figure")
def _fig10a(context: ExperimentContext) -> ExperimentArtifact:
    result = figure10a_tracking_success(
        dataset=context.tracking_dataset,
        seed=context.seed,
        runner=context.runner,
        spec=context.base_spec,
    )
    artifact = ExperimentArtifact(name="fig10a", title=result.title, kind="figure")
    artifact.add_table(result.headers(), result.rows())
    artifact.metadata["inference_rates"] = {
        label: round(rate, 4) for label, rate in result.inference_rates.items()
    }
    artifact.metadata.update(_dataset_metadata(context.tracking_dataset))
    artifact.metadata["seed"] = context.seed
    return artifact


@register("fig10b", "Fig. 10b: tracking energy and inference rate", kind="figure")
def _fig10b(context: ExperimentContext) -> ExperimentArtifact:
    # The EW-A bar is driven by the inference rate actually measured in the
    # Fig. 10a sweep (memoized, so run-all still runs that sweep only once).
    measured = context.artifact("fig10a").metadata.get("inference_rates", {})
    result = figure10b_tracking_energy(
        adaptive_inference_rate=measured.get("EW-A"), soc=context.vision_soc
    )
    artifact = ExperimentArtifact(name="fig10b", title=result.title, kind="figure")
    artifact.add_table(result.headers(), result.rows())
    if "EW-A" in measured:
        artifact.metadata["adaptive_inference_rate"] = measured["EW-A"]
    return artifact


@register(
    "fig10b_measured",
    "Fig. 10b (measured): tracking energy from per-frame telemetry",
    kind="figure",
)
def _fig10b_measured(context: ExperimentContext) -> ExperimentArtifact:
    result = figure10b_tracking_energy_measured(
        dataset=context.tracking_dataset,
        seed=context.seed,
        runner=context.runner,
        spec=context.base_spec,
        soc=context.vision_soc,
    )
    artifact = ExperimentArtifact(
        name="fig10b_measured", title=result.title, kind="figure"
    )
    artifact.add_table(result.headers(), result.rows())
    rates = context.artifact("fig10a").metadata.get("inference_rates", {})
    artifact.metadata.update(
        _measured_vs_analytic_metadata(
            result,
            figure10b_tracking_energy(
                adaptive_inference_rate=rates.get("EW-A"), soc=context.vision_soc
            ),
        )
    )
    artifact.metadata.update(_dataset_metadata(context.tracking_dataset))
    artifact.metadata["seed"] = context.seed
    return artifact


@register("fig10c", "Fig. 10c: per-sequence tracking success rate", kind="figure")
def _fig10c(context: ExperimentContext) -> ExperimentArtifact:
    result = figure10c_per_sequence_success(
        dataset=context.tracking_dataset,
        seed=context.seed,
        runner=context.runner,
        spec=context.base_spec,
    )
    artifact = ExperimentArtifact(name="fig10c", title=result.title, kind="figure")
    artifact.add_table(result.headers(), result.rows())
    artifact.metadata.update(_dataset_metadata(context.tracking_dataset))
    artifact.metadata["seed"] = context.seed
    return artifact


@register("fig11a", "Fig. 11a: success rate vs macroblock size", kind="figure")
def _fig11a(context: ExperimentContext) -> ExperimentArtifact:
    result = figure11a_macroblock_sensitivity(
        dataset=context.small_tracking_dataset,
        seed=context.seed,
        runner=context.runner,
        spec=context.base_spec,
    )
    artifact = ExperimentArtifact(name="fig11a", title=result.title, kind="figure")
    artifact.add_table(result.headers(), result.rows())
    artifact.metadata.update(_dataset_metadata(context.small_tracking_dataset))
    artifact.metadata["seed"] = context.seed
    return artifact


@register("fig11b", "Fig. 11b: exhaustive search vs three-step search", kind="figure")
def _fig11b(context: ExperimentContext) -> ExperimentArtifact:
    scatter = figure11b_es_vs_tss(
        dataset=context.small_tracking_dataset,
        seed=context.seed,
        runner=context.runner,
        spec=context.base_spec,
    )
    artifact = ExperimentArtifact(
        name="fig11b", title="Fig. 11b: exhaustive search vs three-step search", kind="figure"
    )
    artifact.add_table(
        ["config", "iou_threshold", "ES", "TSS"],
        [
            [label, threshold, round(es, 4), round(tss, 4)]
            for label, points in scatter.items()
            for threshold, es, tss in points
        ],
    )
    artifact.metadata.update(_dataset_metadata(context.small_tracking_dataset))
    artifact.metadata["seed"] = context.seed
    artifact.metadata["kernel_backend"] = context.base_spec.kernel_backend
    return artifact


@register("fig12", "Fig. 12: accuracy sensitivity to visual attributes", kind="figure")
def _fig12(context: ExperimentContext) -> ExperimentArtifact:
    breakdown = figure12_attribute_sensitivity(
        dataset=context.tracking_dataset,
        seed=context.seed,
        runner=context.runner,
        spec=context.base_spec,
    )
    baseline = breakdown["MDNet"]
    euphrates = breakdown["EW-2"]
    artifact = ExperimentArtifact(
        name="fig12", title="Fig. 12: accuracy sensitivity to visual attributes", kind="figure"
    )
    artifact.add_table(
        ["attribute", "MDNet", "EW-2", "loss"],
        [
            [
                attribute.display_name,
                round(baseline[attribute], 4),
                round(euphrates.get(attribute, 0.0), 4),
                round(baseline[attribute] - euphrates.get(attribute, 0.0), 4),
            ]
            for attribute in baseline
        ],
    )
    artifact.metadata.update(_dataset_metadata(context.tracking_dataset))
    artifact.metadata["seed"] = context.seed
    return artifact
