"""Experiment harness: one entry point per table/figure in the paper.

Every function returns a plain-data result object with a ``rows()`` method so
the benchmarks can both assert on the numbers and print the same table/series
the paper reports.  The experiment functions accept dataset-size parameters;
the defaults are sized to finish quickly, and EXPERIMENTS.md records the
settings used for the committed results.

The experiments are also exposed through a registry (:mod:`.runner`) and a
CLI — ``python -m repro.harness run-all --workers N --json-dir out/``
regenerates every artifact; see EXPERIMENTS.md for the recorded results.
"""

from .reporting import (
    artifact_from_dict,
    artifact_to_dict,
    format_markdown_table,
    format_table,
    write_artifact_json,
)
from .runner import (
    DatasetSpec,
    ExperimentArtifact,
    ExperimentContext,
    ExperimentSpec,
    ResultTable,
    SweepRunner,
    get_experiment,
    list_experiments,
)
from .perf import benchmark_motion_estimation, synthetic_luma_sequence
from .experiments import (
    EnergyExperimentResult,
    PrecisionCurveResult,
    figure1_accuracy_vs_tops,
    figure9a_detection_precision,
    figure9b_detection_energy,
    figure9b_detection_energy_measured,
    figure9c_compute_memory,
    figure10a_tracking_success,
    figure10b_tracking_energy,
    figure10b_tracking_energy_measured,
    fold_energy_breakdown,
    figure10c_per_sequence_success,
    figure11a_macroblock_sensitivity,
    figure11b_es_vs_tss,
    figure12_attribute_sensitivity,
    table1_soc_configuration,
    table2_workloads,
)

__all__ = [
    "format_table",
    "format_markdown_table",
    "artifact_to_dict",
    "artifact_from_dict",
    "write_artifact_json",
    "DatasetSpec",
    "ExperimentArtifact",
    "ExperimentContext",
    "ExperimentSpec",
    "ResultTable",
    "SweepRunner",
    "get_experiment",
    "list_experiments",
    "benchmark_motion_estimation",
    "synthetic_luma_sequence",
    "EnergyExperimentResult",
    "PrecisionCurveResult",
    "figure1_accuracy_vs_tops",
    "table1_soc_configuration",
    "table2_workloads",
    "figure9a_detection_precision",
    "figure9b_detection_energy",
    "figure9b_detection_energy_measured",
    "figure9c_compute_memory",
    "figure10a_tracking_success",
    "figure10b_tracking_energy",
    "figure10b_tracking_energy_measured",
    "fold_energy_breakdown",
    "figure10c_per_sequence_success",
    "figure11a_macroblock_sensitivity",
    "figure11b_es_vs_tss",
    "figure12_attribute_sensitivity",
]
