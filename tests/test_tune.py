"""Tests for the design-space autotuner (repro.harness.tune).

The load-bearing properties: the disk store makes sweeps resumable with
**zero repeated evaluations** (kill-mid-sweep + ``--resume`` completes the
remainder), the Pareto machinery is correct on known inputs, and every
strategy respects the evaluation budget.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.spec import PipelineSpec
from repro.harness.cli import main as harness_main
from repro.harness.tune import (
    TUNE_PRESETS,
    TUNE_SPACES,
    TuneError,
    TuneFidelity,
    TuneResult,
    TuneStore,
    best_at_baseline_accuracy,
    dominates,
    enumerate_candidates,
    load_space,
    pareto_frontier,
    point_key,
    run_tune,
    searchable_dimensions,
)

#: A 3-point window sweep: small enough that a full grid is a few hundred
#: milliseconds at ci fidelity, big enough to exercise resume and budgets.
TINY_SPACE = {"extrapolation_window": [1, 2, 4]}


def _result(key="k", accuracy=1.0, energy=10.0, fps=60.0, **extra) -> TuneResult:
    defaults = dict(
        key=key,
        spec_args=[],
        describe=key,
        fidelity=TuneFidelity().to_dict(),
        accuracy=accuracy,
        energy_per_frame_mj=energy,
        fps=fps,
        latency_ms=1000.0 / fps if fps else float("inf"),
        inference_rate=0.5,
    )
    defaults.update(extra)
    return TuneResult(**defaults)


class TestSpaces:
    def test_builtin_spaces_validate(self):
        for name in TUNE_SPACES:
            label, dims = load_space(name)
            assert label == name
            assert enumerate_candidates(dims)

    def test_unknown_space_lists_builtins(self):
        with pytest.raises(TuneError, match="ci"):
            load_space("no-such-space")

    def test_json_space_file(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(TINY_SPACE))
        label, dims = load_space(str(path))
        assert label == "space"
        assert dims == TINY_SPACE

    def test_unsearchable_dimension_rejected(self):
        with pytest.raises(TuneError, match="workers"):
            load_space({"workers": [1, 2]})

    def test_empty_values_rejected(self):
        with pytest.raises(TuneError, match="block_size"):
            load_space({"block_size": []})

    def test_candidates_start_from_base_and_deduplicate(self):
        candidates = enumerate_candidates(TINY_SPACE)
        # EW-2 is both the base spec and a swept value: one candidate, first.
        assert candidates[0] == PipelineSpec()
        assert len(candidates) == 3
        assert len({c.cache_key() for c in candidates}) == 3

    def test_redundant_combos_are_filtered(self):
        dims = {
            "exhaustive_search": [False, True],
            "search_policy": ["pruned", "histogram"],
        }
        candidates = enumerate_candidates(dims)
        # TSS ignores the scan policy, so histogram-under-TSS must not appear.
        assert not any(
            not c.exhaustive_search and c.search_policy == "histogram"
            for c in candidates
        )
        dims = {"extrapolation_window": [1], "extrapolation_host": ["cpu"]}
        # EW-1 has no E-frames: nothing for a CPU host to extrapolate.
        assert all(
            c.extrapolation_host == "mc" for c in enumerate_candidates(dims)
        )

    def test_kernel_backend_is_not_a_dimension(self):
        """Backends are bit-identical and every tuned metric is modeled, so
        a backend candidate could only duplicate a point."""
        assert all("kernel_backend" not in dims for dims in TUNE_SPACES.values())
        assert "kernel_backend" not in searchable_dimensions()
        with pytest.raises(TuneError, match="not a searchable"):
            load_space({"kernel_backend": ["numpy", "c"]})

    def test_searchable_dimensions_cover_the_spaces(self):
        listing = searchable_dimensions()
        for dims in TUNE_SPACES.values():
            for name in dims:
                assert name in listing
        for info in listing.values():
            assert "default" in info


class TestStore:
    def test_point_key_is_stable_and_discriminating(self):
        fidelity = TUNE_PRESETS["ci"]
        a = point_key(PipelineSpec(), fidelity, seed=1)
        assert a == point_key(PipelineSpec(), fidelity, seed=1)
        json.loads(a)  # keys are themselves valid JSON
        others = [
            point_key(PipelineSpec(extrapolation_window=4), fidelity, seed=1),
            point_key(PipelineSpec(frame_format="q8.8"), fidelity, seed=1),
            point_key(PipelineSpec(soc_config="720p30"), fidelity, seed=1),
            point_key(PipelineSpec(), replace(fidelity, frames=6), seed=1),
            point_key(PipelineSpec(), fidelity, seed=2),
        ]
        assert len({a, *others}) == len(others) + 1

    def test_round_trip(self, tmp_path):
        store = TuneStore(tmp_path / "store.jsonl")
        store.add(_result("a", accuracy=0.5))
        store.add(_result("b", energy=float("nan")))
        reloaded = TuneStore(store.path)
        assert reloaded.load() == 2
        assert reloaded.get("a").accuracy == 0.5
        assert reloaded.get("b").energy_per_frame_mj != reloaded.get("b").energy_per_frame_mj

    def test_later_lines_supersede(self, tmp_path):
        store = TuneStore(tmp_path / "store.jsonl")
        store.add(_result("a", accuracy=0.1))
        store.add(_result("a", accuracy=0.9))
        reloaded = TuneStore(store.path)
        reloaded.load()
        assert len(reloaded) == 1
        assert reloaded.get("a").accuracy == 0.9

    def test_corrupt_line_is_a_tune_error(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"not": "a result"}\n')
        with pytest.raises(TuneError, match="corrupt"):
            TuneStore(path).load()


class TestPareto:
    def test_dominates(self):
        good = _result("good", accuracy=0.9, energy=10.0, fps=60.0)
        worse = _result("worse", accuracy=0.8, energy=12.0, fps=60.0)
        tradeoff = _result("tradeoff", accuracy=0.95, energy=20.0, fps=60.0)
        assert dominates(good, worse)
        assert not dominates(worse, good)
        assert not dominates(good, tradeoff) and not dominates(tradeoff, good)
        assert not dominates(good, good)

    def test_frontier_on_known_points(self):
        points = [
            _result("a", accuracy=1.0, energy=20.0),
            _result("b", accuracy=0.9, energy=10.0),
            _result("c", accuracy=0.8, energy=15.0),  # dominated by b
            _result("d", accuracy=0.9, energy=12.0),  # dominated by b
        ]
        frontier = pareto_frontier(points)
        assert [r.key for r in frontier] == ["a", "b"]

    def test_frontier_deduplicates_equal_objectives(self):
        points = [_result("a"), _result("a-twin")]
        assert [r.key for r in pareto_frontier(points)] == ["a"]

    def test_single_point_frontier(self):
        assert len(pareto_frontier([_result("only")])) == 1
        assert pareto_frontier([]) == []

    def test_best_at_baseline_accuracy(self):
        baseline = _result("base", accuracy=0.9, energy=15.0)
        cheaper_same = _result("cheap", accuracy=0.92, energy=9.0)
        cheapest_worse = _result("lossy", accuracy=0.5, energy=5.0)
        best = best_at_baseline_accuracy(
            [baseline, cheaper_same, cheapest_worse], baseline
        )
        assert best.key == "cheap"
        # Without a baseline: lowest energy outright.
        assert (
            best_at_baseline_accuracy([baseline, cheapest_worse], None).key == "lossy"
        )
        assert best_at_baseline_accuracy([], None) is None


class TestRunTune:
    def test_grid_completes_and_reports_frontier(self, tmp_path):
        report = run_tune(
            TINY_SPACE, preset="ci", strategy="grid", store_path=tmp_path / "s.jsonl"
        )
        assert report.evaluated == 3
        assert report.reused == 0
        assert report.frontier
        meta = report.artifact.metadata
        assert meta["evaluated"] == 3
        assert meta["frontier_size"] == len(report.frontier)
        assert "baseline" in meta and "best_at_baseline_accuracy" in meta

    def test_budget_caps_fresh_evaluations(self, tmp_path):
        report = run_tune(
            TINY_SPACE,
            preset="ci",
            strategy="grid",
            budget=2,
            store_path=tmp_path / "s.jsonl",
        )
        assert report.evaluated == 2
        assert report.artifact.metadata["budget_exhausted"]

    def test_kill_mid_sweep_then_resume_repeats_nothing(self, tmp_path):
        store_path = tmp_path / "s.jsonl"
        evaluated: list[str] = []

        def killer(message: str) -> None:
            # Simulate Ctrl-C after the second point finishes journaling.
            evaluated.append(message)
            if len(evaluated) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_tune(
                TINY_SPACE,
                preset="ci",
                strategy="grid",
                store_path=store_path,
                log=killer,
            )
        # The two finished points survived the kill.
        assert len(TuneStore(store_path)) == 0  # fresh handle, not loaded
        interrupted = TuneStore(store_path)
        assert interrupted.load() == 2

        report = run_tune(
            TINY_SPACE,
            preset="ci",
            strategy="grid",
            store_path=store_path,
            resume=True,
        )
        assert report.reused == 2
        assert report.evaluated == 1  # only the missing point
        # Zero repeated evaluations: every key appears exactly once on disk.
        keys = [
            json.loads(line)["key"]
            for line in store_path.read_text().splitlines()
            if line.strip()
        ]
        assert len(keys) == len(set(keys)) == 3

        again = run_tune(
            TINY_SPACE,
            preset="ci",
            strategy="grid",
            store_path=store_path,
            resume=True,
        )
        assert again.evaluated == 0
        assert again.reused == 3

    def test_existing_store_without_resume_is_refused(self, tmp_path):
        store_path = tmp_path / "s.jsonl"
        run_tune(TINY_SPACE, preset="ci", strategy="grid", store_path=store_path)
        with pytest.raises(TuneError, match="--resume"):
            run_tune(TINY_SPACE, preset="ci", strategy="grid", store_path=store_path)

    def test_random_strategy_is_seed_deterministic(self, tmp_path):
        kwargs = dict(preset="ci", strategy="random", budget=2, seed=7)
        first = run_tune(TINY_SPACE, store_path=tmp_path / "a.jsonl", **kwargs)
        second = run_tune(TINY_SPACE, store_path=tmp_path / "b.jsonl", **kwargs)
        a = sorted(r.key for r in TuneStore(tmp_path / "a.jsonl").results())
        b = sorted(r.key for r in TuneStore(tmp_path / "b.jsonl").results())
        assert first.evaluated == second.evaluated == 2
        assert a == b

    def test_soc_variants_share_one_pipeline_run(self, tmp_path):
        from repro.harness.runner import SweepRunner

        runner = SweepRunner()
        from repro.harness.tune import TuneEvaluator

        evaluator = TuneEvaluator(runner, seed=1)
        fidelity = TUNE_PRESETS["ci"]
        a = evaluator.evaluate(PipelineSpec(), fidelity)
        b = evaluator.evaluate(PipelineSpec(soc_config="720p30"), fidelity)
        assert runner.cache_misses == 1  # pricing knob reused the vision run
        assert runner.cache_hits == 1
        assert a.energy_per_frame_mj != b.energy_per_frame_mj

    def test_unknown_strategy_and_preset_rejected(self, tmp_path):
        with pytest.raises(TuneError, match="strategy"):
            run_tune(TINY_SPACE, strategy="simulated-annealing")
        with pytest.raises(TuneError, match="preset"):
            run_tune(TINY_SPACE, preset="nightly")


class TestTuneCli:
    def test_tune_subcommand_writes_frontier_artifact(self, tmp_path, capsys):
        frontier_path = tmp_path / "frontier.json"
        code = harness_main(
            [
                "tune",
                "--space",
                "ci",
                "--preset",
                "ci",
                "--budget",
                "4",
                "--store",
                str(tmp_path / "store.jsonl"),
                "--frontier-out",
                str(frontier_path),
            ]
        )
        assert code == 0
        payload = json.loads(frontier_path.read_text())
        assert payload["name"] == "tune"
        assert payload["metadata"]["evaluated"] == 4
        assert payload["tables"][0]["rows"]
        assert "Pareto frontier" in capsys.readouterr().out

    def test_tune_resume_via_cli_reports_zero_evaluations(self, tmp_path, capsys):
        args = [
            "tune",
            "--space",
            "ci",
            "--store",
            str(tmp_path / "store.jsonl"),
            "--frontier-out",
            str(tmp_path / "frontier.json"),
        ]
        assert harness_main(args) == 0
        assert harness_main(args + ["--resume"]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "frontier.json").read_text())
        assert payload["metadata"]["evaluated"] == 0
        assert payload["metadata"]["reused"] == payload["metadata"]["candidates"]

    def test_best_point_note_prints_the_energy_change_with_its_sign(
        self, tmp_path, capsys
    ):
        space = tmp_path / "space.json"
        space.write_text(
            json.dumps({"extrapolation_window": [2, 4], "sub_roi_grid": [[2, 2], [4, 4]]})
        )
        args = ["tune", "--space", str(space), "--preset", "ci"]
        assert harness_main(args + ["--store", str(tmp_path / "store.jsonl")]) == 0
        out = capsys.readouterr().out
        # EW-4 is ~20% cheaper than the EW-2 baseline: a negative change.
        assert "EW-4/b16/r7/tss/sr4x4 — 12.068 mJ/frame" in out
        assert "(-20.4% energy vs baseline)" in out

    def test_refusing_a_dirty_store_is_exit_2(self, tmp_path, capsys):
        args = ["tune", "--space", "ci", "--budget", "1", "--store", str(tmp_path / "s.jsonl")]
        assert harness_main(args) == 0
        assert harness_main(args) == 2
        assert "--resume" in capsys.readouterr().err

    def test_list_json_is_machine_readable(self, capsys):
        assert harness_main(["list", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in listing["experiments"]}
        assert "fig10a" in names
        assert "extrapolation_window" in listing["spec_dimensions"]
        assert "ci" in listing["tune"]["spaces"]
        assert "tuned-ci-energy" in listing["spec_presets"]
