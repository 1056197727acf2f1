"""Tests for the experiment registry, the sweep-runner cache and the CLI."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.types import DatasetRunResult
from repro.harness.cli import main
from repro.harness.reporting import (
    artifact_from_dict,
    artifact_to_dict,
    format_artifact,
    write_artifact_json,
)
from repro.harness.runner import (
    DatasetSpec,
    ExperimentArtifact,
    ExperimentContext,
    SweepRunner,
    get_experiment,
    list_experiments,
)
from repro.video.datasets import build_tracking_dataset


EXPECTED_EXPERIMENTS = [
    "fig1",
    "table1",
    "table2",
    "fig9a",
    "fig9b",
    "fig9b_measured",
    "fig9c",
    "fig10a",
    "fig10b",
    "fig10b_measured",
    "fig10c",
    "fig11a",
    "fig11b",
    "fig12",
]


@pytest.fixture(scope="module")
def tiny_dataset():
    return build_tracking_dataset(
        otb_sequences=2, vot_sequences=0, frames_per_sequence=8, seed=42
    )


class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        names = [spec.name for spec in list_experiments()]
        assert names == EXPECTED_EXPERIMENTS

    def test_lookup_returns_spec(self):
        spec = get_experiment("fig9a")
        assert spec.name == "fig9a"
        assert spec.kind == "figure"
        assert callable(spec.build)
        assert get_experiment("table1").kind == "table"

    def test_unknown_name_raises_with_suggestion(self):
        with pytest.raises(KeyError, match="did you mean 'fig9"):
            get_experiment("fig9")
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("nonsense")


class TestSweepRunnerCache:
    def test_same_point_runs_once(self, tiny_dataset):
        runner = SweepRunner()
        first = runner.run("tracking", "mdnet", tiny_dataset, 2, seed=1)
        second = runner.run("tracking", "mdnet", tiny_dataset, 2, seed=1)
        assert second is first
        assert (runner.cache_misses, runner.cache_hits) == (1, 1)

    def test_distinct_points_miss(self, tiny_dataset):
        from repro.core.spec import PipelineSpec

        runner = SweepRunner()
        spec = PipelineSpec(extrapolation_window=2)
        base = runner.run("tracking", "mdnet", tiny_dataset, spec=spec, seed=1)
        for kwargs in (
            dict(spec=replace(spec, extrapolation_window=4)),
            dict(spec=spec, seed=2),
            dict(spec=replace(spec, block_size=8)),
            dict(spec=replace(spec, exhaustive_search=True)),
            dict(spec=replace(spec, extrapolation_window="adaptive")),
        ):
            other = runner.run("tracking", "mdnet", tiny_dataset, **kwargs)
            assert other is not base
        assert runner.cache_hits == 0
        assert runner.cache_misses == 6

    def test_distinct_datasets_do_not_alias(self, tiny_dataset):
        other_dataset = build_tracking_dataset(
            otb_sequences=1, vot_sequences=0, frames_per_sequence=8, seed=7
        )
        runner = SweepRunner()
        runner.run("tracking", "mdnet", tiny_dataset, 2, seed=1)
        runner.run("tracking", "mdnet", other_dataset, 2, seed=1)
        assert runner.cache_misses == 2

    def test_cached_result_identical_to_isolated_run(self, tiny_dataset):
        shared = SweepRunner()
        shared.run("tracking", "mdnet", tiny_dataset, 4, seed=1)  # warm other points
        shared_result = shared.run("tracking", "mdnet", tiny_dataset, 2, seed=1)
        isolated_result = SweepRunner().run("tracking", "mdnet", tiny_dataset, 2, seed=1)
        assert shared_result.inference_count == isolated_result.inference_count
        for a, b in zip(shared_result.sequences, isolated_result.sequences):
            assert [d.box for f in a for d in f.detections] == [
                d.box for f in b for d in f.detections
            ]

    @pytest.mark.parametrize("window", [2, "adaptive"])
    def test_parallel_matches_serial(self, tiny_dataset, window):
        serial = SweepRunner().run("tracking", "mdnet", tiny_dataset, window, seed=1)
        parallel = SweepRunner(max_workers=2).run(
            "tracking", "mdnet", tiny_dataset, window, seed=1
        )
        assert [d.box for r in serial for f in r for d in f.detections] == [
            d.box for r in parallel for f in r for d in f.detections
        ]
        assert [f.window_size for r in serial for f in r] == [
            f.window_size for r in parallel for f in r
        ]
        assert parallel.extrapolation_ops == serial.extrapolation_ops

    def test_run_result_counters(self, tiny_dataset):
        result = SweepRunner().run("tracking", "mdnet", tiny_dataset, 2, seed=1)
        assert isinstance(result, DatasetRunResult)
        assert result.total_frames == sum(len(r) for r in result.sequences)
        assert result.inference_rate == pytest.approx(
            result.inference_count / result.total_frames
        )
        assert result.extrapolation_ops > 0

    def test_explicit_kwargs_override_a_passed_spec(self, tiny_dataset):
        from repro.core.spec import PipelineSpec

        runner = SweepRunner()
        base = PipelineSpec(extrapolation_window=2, block_size=8)
        two = runner.run("tracking", "mdnet", tiny_dataset, spec=base, seed=1)
        four = runner.run("tracking", "mdnet", tiny_dataset, 4, spec=base, seed=1)
        # The window override must produce (and cache) a genuinely different
        # point, and keep the passed spec's other fields.
        assert four is not two
        assert runner.cache_misses == 2
        assert runner.run(
            "tracking",
            "mdnet",
            tiny_dataset,
            spec=replace(base, extrapolation_window=4),
            seed=1,
        ) is four
        assert runner.run("tracking", "mdnet", tiny_dataset, 4, seed=1) is not four

    def test_unknown_task_and_window_rejected(self, tiny_dataset):
        runner = SweepRunner()
        with pytest.raises(ValueError, match="unknown task"):
            runner.run("segmentation", "mdnet", tiny_dataset, 2)
        with pytest.raises(ValueError, match="window mode"):
            runner.run("tracking", "mdnet", tiny_dataset, "sometimes")


class TestExperimentContext:
    def test_artifact_memoized(self):
        context = ExperimentContext()
        first = context.artifact("table1")
        assert context.artifact("table1") is first
        assert first.tables and first.tables[0].rows

    def test_fig10b_uses_measured_adaptive_rate(self, tiny_dataset):
        context = ExperimentContext(datasets=DatasetSpec.smoke())
        artifact = context.artifact("fig10b")
        measured = context.artifact("fig10a").metadata["inference_rates"]["EW-A"]
        assert artifact.metadata["adaptive_inference_rate"] == measured

    def test_smoke_spec_is_near_minimal(self):
        spec = DatasetSpec.smoke()
        # Two sequences per swept dataset: one would silently fall back to
        # the serial run_dataset path, and tracking sequence 0 carries no
        # visual attributes (which would leave the fig12 smoke table empty).
        assert spec.otb_sequences == 2 and spec.vot_sequences == 0
        assert spec.detection_sequences == 2
        context = ExperimentContext(datasets=spec)
        assert len(context.tracking_dataset) == 2
        assert len(context.detection_dataset) == 2
        assert context.artifact("fig12").tables[0].rows


class TestJsonEmitters:
    def _artifact(self):
        artifact = ExperimentArtifact(name="demo", title="Demo artifact", kind="figure")
        artifact.add_table(
            ["config", "value", "ok"], [["EW-2", 0.75, True], ["EW-4", 0.5, False]]
        )
        artifact.metadata["seed"] = 1
        artifact.metadata["inference_rates"] = {"EW-2": 0.5}
        return artifact

    def test_round_trip_through_json_text(self):
        artifact = self._artifact()
        payload = json.loads(json.dumps(artifact_to_dict(artifact)))
        assert artifact_from_dict(payload) == artifact

    def test_write_artifact_json_is_deterministic(self, tmp_path):
        artifact = self._artifact()
        path = write_artifact_json(artifact, tmp_path)
        first = path.read_bytes()
        assert write_artifact_json(artifact, tmp_path).read_bytes() == first
        assert json.loads(first)["name"] == "demo"

    def test_tables_become_plain_lists(self):
        payload = artifact_to_dict(self._artifact())
        assert payload["tables"][0]["rows"] == [["EW-2", 0.75, True], ["EW-4", 0.5, False]]


class TestDegenerateArtifacts:
    """Emitters must survive empty sweeps and non-finite measurements."""

    def test_empty_sweep_artifact(self, tmp_path):
        artifact = ExperimentArtifact(name="empty", title="Empty sweep", kind="figure")
        artifact.add_table(["config", "value"], [])
        assert "config" in format_artifact(artifact)
        path = write_artifact_json(artifact, tmp_path)
        payload = json.loads(path.read_text())
        assert payload["tables"][0]["rows"] == []

    def test_no_tables_at_all(self):
        artifact = ExperimentArtifact(name="bare", title="No tables", kind="table")
        assert "(no tabular data)" in format_artifact(artifact)
        assert artifact_to_dict(artifact)["tables"] == []

    def test_single_point_frontier(self):
        artifact = ExperimentArtifact(name="one", title="One point", kind="figure")
        artifact.add_table(["config", "mJ"], [["EW-2", 15.2]])
        table = format_artifact(artifact, markdown=True)
        assert table.count("| EW-2") == 1

    def test_nan_and_inf_metrics_stay_strict_json(self, tmp_path):
        artifact = ExperimentArtifact(name="nonfinite", title="Non-finite", kind="figure")
        nan, inf = float("nan"), float("inf")
        artifact.add_table(["config", "fps", "rate"], [["dead", inf, nan], ["neg", -inf, 0.5]])
        artifact.metadata["worst_latency_ms"] = inf
        payload = artifact_to_dict(artifact)
        # Strict parsers must accept the document: no NaN/Infinity literals.
        text = json.dumps(payload, allow_nan=False)
        reparsed = json.loads(text)
        assert reparsed["tables"][0]["rows"][0] == ["dead", "Infinity", "NaN"]
        assert reparsed["tables"][0]["rows"][1] == ["neg", "-Infinity", 0.5]
        assert reparsed["metadata"]["worst_latency_ms"] == "Infinity"
        path = write_artifact_json(artifact, tmp_path)
        json.loads(path.read_text())

    def test_non_finite_cells_format_as_text(self):
        from repro.harness.reporting import format_table

        table = format_table(["a"], [[float("nan")], [float("inf")]])
        assert "nan" in table and "inf" in table

    def test_sanitizer_handles_nested_and_exotic_values(self):
        from repro.harness.reporting import sanitize_json_value

        value = {"tuple": (1, float("nan")), "path": Path("x"), 3: None}
        assert sanitize_json_value(value) == {"tuple": [1, "NaN"], "path": "x", "3": None}


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_EXPERIMENTS:
            assert name in out

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "nonsense"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_writes_json_and_tables(self, tmp_path, capsys):
        assert main(["run", "table2", "fig9b", "--json-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "YOLOv2" in out
        for name in ("table2", "fig9b"):
            payload = json.loads((tmp_path / f"{name}.json").read_text())
            assert payload["name"] == name
            assert payload["tables"][0]["rows"]

    def test_run_markdown(self, capsys):
        assert main(["run", "table1", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "| component | configuration |" in out
        assert "| --- | --- |" in out
