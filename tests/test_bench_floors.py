"""Tests for the perf trajectory and its one floor checker (no bench runs)."""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.harness.bench import BENCHES
from repro.harness.cli import build_parser, main
from repro.harness.trajectory import (
    DEFAULT_FLOORS,
    FLOORS,
    append_entry,
    applicable_floors,
    check_floors,
    git_sha,
    load_trajectory,
    stamp,
)
from repro.motion.kernels import resolve_kernel_backend

COMMITTED = Path(__file__).resolve().parents[1] / "BENCH_motion.json"

#: One entry per benchmark that clears every floor by a wide margin.
PASSING = {
    "motion_estimation": lambda: {
        "benchmark": "motion_estimation",
        "kernel_backend": "numpy",
        "kernel_backend_active": "numpy",
        "results": [
            {
                "resolution": resolution,
                "speedup": 99.0,
                "es_pruned_speedup_vs_full": 99.0,
                "es_histogram_speedup_vs_full": 99.0,
            }
            for resolution in ("720p", "1080p")
        ],
    },
    "motion_estimation_c": lambda: {
        "benchmark": "motion_estimation",
        "kernel_backend": "c",
        "kernel_backend_active": "c",
        "results": [
            {
                "resolution": resolution,
                "speedup": 99.0,
                "es_pruned_speedup_vs_full": 99.0,
                "es_histogram_speedup_vs_full": 99.0,
                "es_pruned_speedup_vs_numpy": 99.0,
                "tss_speedup_vs_numpy": 99.0,
            }
            for resolution in ("720p", "1080p")
        ],
    },
    "pipeline": lambda: {
        "benchmark": "pipeline",
        "kernel_backend": "numpy",
        "kernel_backend_active": "numpy",
        "results": [
            {
                "resolution": "720p",
                "blend_vs_reference": {"speedup": 99.0},
                "e_frame_alloc_mb": 1.0,
            }
        ],
    },
    "pipeline_c": lambda: {
        "benchmark": "pipeline",
        "kernel_backend": "c",
        "kernel_backend_active": "c",
        "results": [
            {
                "resolution": "720p",
                "blend_vs_reference": {"speedup": 99.0},
                "e_frame_alloc_mb": 1.0,
                "extrapolation_vs_numpy": {"speedup": 99.0},
            }
        ],
    },
    "multi_stream": lambda: {
        "benchmark": "multi_stream",
        "per_stream": [
            {"name": "camera_0", "energy_per_frame_mj": 1.0},
            {"name": "camera_1", "energy_per_frame_mj": 1.0},
        ],
    },
    "serve": lambda: {"benchmark": "serve", "result_acks": 10, "latency_p99_ms": 1.0},
    "tune": lambda: {
        "benchmark": "tune",
        "frontier_points": 99,
        "best_energy_per_frame_mj": 1.0,
        "resume_reevaluated": 0,
    },
}


def _result(entry: dict, resolution: str) -> dict:
    return next(r for r in entry["results"] if r["resolution"] == resolution)


#: Floor key -> how to push a passing entry past that one floor.
VIOLATE = {
    "min_tss_speedup_720p": lambda e: _result(e, "720p").update(speedup=1.0),
    "min_es_pruned_speedup_vs_full_720p": lambda e: _result(e, "720p").update(
        es_pruned_speedup_vs_full=1.0
    ),
    "min_es_histogram_speedup_vs_full_720p": lambda e: _result(e, "720p").update(
        es_histogram_speedup_vs_full=1.0
    ),
    "min_c_es_pruned_speedup_vs_numpy_720p": lambda e: _result(e, "720p").update(
        es_pruned_speedup_vs_numpy=1.0
    ),
    "min_c_es_pruned_speedup_vs_numpy_1080p": lambda e: _result(e, "1080p").update(
        es_pruned_speedup_vs_numpy=1.0
    ),
    "min_c_tss_speedup_vs_numpy_720p": lambda e: _result(e, "720p").update(
        tss_speedup_vs_numpy=1.0
    ),
    "min_c_es_pruned_speedup_vs_full_720p": lambda e: _result(e, "720p").update(
        es_pruned_speedup_vs_full=0.9
    ),
    "min_c_es_histogram_speedup_vs_full_720p": lambda e: _result(e, "720p").update(
        es_histogram_speedup_vs_full=0.9
    ),
    # Only the second stream breaches: the ceiling applies to each stream.
    "max_stream_energy_per_frame_mj": lambda e: e["per_stream"][1].update(
        energy_per_frame_mj=99.0
    ),
    "max_serve_p99_latency_ms": lambda e: e.update(latency_p99_ms=99_999.0),
    "min_tune_frontier_points": lambda e: e.update(frontier_points=1),
    "max_tune_best_energy_per_frame_mj": lambda e: e.update(best_energy_per_frame_mj=99.0),
    "min_pipeline_blend_speedup_vs_reference_720p": lambda e: _result(e, "720p").update(
        blend_vs_reference={"speedup": 1.0}
    ),
    "max_pipeline_alloc_mb_per_eframe_720p": lambda e: _result(e, "720p").update(
        e_frame_alloc_mb=999.0
    ),
    "min_c_extrapolation_speedup_vs_numpy_720p": lambda e: _result(e, "720p").update(
        extrapolation_vs_numpy={"speedup": 1.0}
    ),
}


class TestSeeding:
    def test_fresh_trajectory_seeds_every_committed_floor(self, tmp_path):
        document = load_trajectory(tmp_path / "fresh.json")
        assert document["entries"] == []
        assert len(document["floors"]) == len(FLOORS) == 15
        assert document["floors"] == DEFAULT_FLOORS
        assert DEFAULT_FLOORS == json.loads(COMMITTED.read_text())["floors"]

    def test_append_seeds_then_keeps_stored_floors(self, tmp_path):
        path = tmp_path / "trajectory.json"
        append_entry(path, {"benchmark": "serve"})
        stored = json.loads(path.read_text())
        stored["floors"]["max_serve_p99_latency_ms"] = 7.0
        path.write_text(json.dumps(stored))
        document = append_entry(path, {"benchmark": "tune"})
        assert [e["benchmark"] for e in document["entries"]] == ["serve", "tune"]
        assert document["floors"]["max_serve_p99_latency_ms"] == 7.0
        assert json.loads(path.read_text()) == document


class TestFloorChecker:
    def test_every_floor_has_a_violation_case(self):
        assert set(VIOLATE) == set(DEFAULT_FLOORS)

    @pytest.mark.parametrize("kind", sorted(PASSING))
    def test_passing_entries_pass(self, kind):
        assert check_floors(PASSING[kind](), DEFAULT_FLOORS) == []

    @pytest.mark.parametrize("floor", FLOORS, ids=lambda floor: floor.key)
    def test_violating_entry_is_reported(self, floor):
        kind = f"{floor.benchmark}_c" if floor.key.startswith("min_c_") else floor.benchmark
        entry = PASSING[kind]()
        VIOLATE[floor.key](entry)
        violations = check_floors(entry, DEFAULT_FLOORS)
        assert len(violations) == 1
        assert violations[0].startswith(f"{floor.key}:")

    def test_unmeasured_metric_is_a_violation(self):
        entry = PASSING["pipeline"]()
        del _result(entry, "720p")["blend_vs_reference"]
        (violation,) = check_floors(entry, DEFAULT_FLOORS)
        assert "min_pipeline_blend_speedup_vs_reference_720p" in violation
        assert "not measured" in violation

    def test_unmeasured_resolution_skips_its_floors(self):
        entry = PASSING["motion_estimation"]()
        entry["results"] = [_result(entry, "720p")]
        assert check_floors(entry, DEFAULT_FLOORS) == []

    def test_c_floors_skip_numpy_entries(self):
        entry = PASSING["motion_estimation"]()
        for result in entry["results"]:
            result["es_pruned_speedup_vs_numpy"] = 0.5
            result["tss_speedup_vs_numpy"] = 0.5
        assert check_floors(entry, DEFAULT_FLOORS) == []
        entry = PASSING["pipeline"]()
        _result(entry, "720p")["extrapolation_vs_numpy"] = {"speedup": 0.5}
        assert check_floors(entry, DEFAULT_FLOORS) == []

    def test_c_pipeline_entry_must_time_the_extrapolation(self):
        entry = PASSING["pipeline_c"]()
        del _result(entry, "720p")["extrapolation_vs_numpy"]
        (violation,) = check_floors(entry, DEFAULT_FLOORS)
        assert violation.startswith("min_c_extrapolation_speedup_vs_numpy_720p:")
        assert "not measured" in violation

    def test_es_vs_full_floors_follow_the_backend(self):
        """Each backend's pruning is held to its own pair of ES-vs-full
        floors: the C full scan already stops each candidate early, so
        pruning saves it less than it saves numpy."""
        es_vs_full = {
            floor.key for floor in FLOORS if floor.key.endswith("speedup_vs_full_720p")
        }
        for kind, expected in (
            (
                "motion_estimation",
                {"min_es_pruned_speedup_vs_full_720p", "min_es_histogram_speedup_vs_full_720p"},
            ),
            (
                "motion_estimation_c",
                {
                    "min_c_es_pruned_speedup_vs_full_720p",
                    "min_c_es_histogram_speedup_vs_full_720p",
                },
            ),
        ):
            entry = PASSING[kind]()
            assert {floor.key for floor in applicable_floors(entry)} & es_vs_full == expected
            # A pruned or histogram scan slower than the full scan fails.
            for result in entry["results"]:
                result["es_pruned_speedup_vs_full"] = 0.9
                result["es_histogram_speedup_vs_full"] = 0.9
            violated = {v.split(":")[0] for v in check_floors(entry, DEFAULT_FLOORS)}
            assert violated == expected, kind

    @pytest.mark.parametrize("kind", ["motion_estimation_c", "pipeline"])
    def test_c_request_that_ran_numpy_fails(self, kind):
        entry = PASSING[kind]()
        entry["kernel_backend"] = "c"
        entry["kernel_backend_active"] = "numpy"
        violations = check_floors(entry, DEFAULT_FLOORS)
        assert any("c requested but numpy ran" in v for v in violations)

    @pytest.mark.parametrize("kind", ["multi_stream", "serve", "tune"])
    def test_modeled_benches_hold_whichever_backend_ran(self, kind):
        """Their floors do not time the kernels, so a host without a C
        compiler still passes them."""
        entry = PASSING[kind]()
        entry["kernel_backend"] = "c"
        entry["kernel_backend_active"] = "numpy"
        assert check_floors(entry, DEFAULT_FLOORS) == []

    def test_tune_resume_must_reevaluate_nothing(self):
        entry = PASSING["tune"]()
        entry["resume_reevaluated"] = 2
        (violation,) = check_floors(entry, DEFAULT_FLOORS)
        assert violation.startswith("resume:")

    def test_serve_run_without_acks_fails(self):
        entry = PASSING["serve"]()
        entry.update(result_acks=0, latency_p99_ms=0.0)
        (violation,) = check_floors(entry, DEFAULT_FLOORS)
        assert "no result acks" in violation

    def test_floors_absent_from_the_file_are_not_checked(self):
        entry = PASSING["tune"]()
        VIOLATE["min_tune_frontier_points"](entry)
        floors = dict(DEFAULT_FLOORS)
        del floors["min_tune_frontier_points"]
        assert check_floors(entry, floors) == []


class TestProvenance:
    def test_stamp_records_the_provenance_fields(self):
        entry = stamp({"benchmark": "pipeline"}, "ci", "c")
        for key in (
            "date",
            "preset",
            "git_sha",
            "cpu_model",
            "nproc",
            "python",
            "numpy",
            "kernel_backend",
            "kernel_backend_active",
        ):
            assert entry[key] not in (None, ""), key
        assert entry["preset"] == "ci"
        assert entry["kernel_backend"] == "c"
        assert entry["kernel_backend_active"] == resolve_kernel_backend("c")

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_git_sha_marks_uncommitted_package_code_dirty(self, tmp_path):
        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=tmp_path,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()

        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "kernel.py").write_text("SPEED = 1\n")
        (tmp_path / "BENCH.json").write_text("{}\n")
        git("init", "-q")
        git("add", ".")
        git("commit", "-q", "-m", "seed")
        head = git("rev-parse", "HEAD")
        assert git_sha(package) == head

        # Appending to the trajectory does not change the measured code.
        (tmp_path / "BENCH.json").write_text('{"entries": []}\n')
        assert git_sha(package) == head

        (package / "kernel.py").write_text("SPEED = 2\n")
        assert git_sha(package) == f"{head}-dirty"
        git("commit", "-q", "-am", "faster")
        assert git_sha(package) == git("rev-parse", "HEAD")

        (package / "new_kernel.py").write_text("SPEED = 3\n")
        assert git_sha(package).endswith("-dirty")

    def test_git_sha_outside_a_checkout_is_unknown(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        assert git_sha(tmp_path) == "unknown"


class TestBenchCommand:
    @pytest.mark.parametrize("name", sorted(BENCHES))
    def test_every_bench_takes_preset_output_and_guard(self, name, tmp_path):
        args = build_parser().parse_args(
            ["bench", name, "--preset", "ci", "--output", str(tmp_path / "t.json"), "--guard"]
        )
        assert (args.bench, args.preset, args.guard) == (name, "ci", True)
        assert args.output == tmp_path / "t.json"
        assert build_parser().parse_args(["bench", name]).preset == "full"

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "motion", "--guard", "--skip-scalar"],
            ["bench", "serve", "--faults", "drop,smoke"],
        ],
    )
    def test_contradictory_options_exit_2_before_measuring(self, argv, tmp_path):
        output = tmp_path / "t.json"
        assert main(argv + ["--output", str(output)]) == 2
        assert not output.exists()
