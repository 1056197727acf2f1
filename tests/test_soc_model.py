"""Tests for the SoC-level energy / performance model (Figs. 9b, 9c, 10b)."""

from __future__ import annotations

import pytest

from repro.core import PipelineSpec, detection_backend_for
from repro.core.types import FrameKind, FrameResult, FrameTelemetry, SequenceResult
from repro.nn.models import build_mdnet, build_tiny_yolo, build_yolo_v2
from repro.soc.soc import FrameSchedule, VisionSoC
from repro.video.datasets import build_detection_dataset


@pytest.fixture(scope="module")
def soc():
    return VisionSoC()


@pytest.fixture(scope="module")
def yolo():
    return build_yolo_v2()


@pytest.fixture(scope="module")
def mdnet():
    return build_mdnet()


class TestFrameSchedule:
    def test_constant_ew_counts(self):
        schedule = FrameSchedule.constant_ew(4, num_frames=100)
        assert schedule.inference_frames == 25
        assert schedule.extrapolation_frames == 75
        assert schedule.inference_rate == pytest.approx(0.25)

    def test_ew1_is_all_inference(self):
        schedule = FrameSchedule.constant_ew(1, num_frames=50)
        assert schedule.inference_frames == 50
        assert schedule.extrapolation_frames == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FrameSchedule(num_frames=0, inference_frames=0, extrapolation_frames=0)
        with pytest.raises(ValueError):
            FrameSchedule(num_frames=10, inference_frames=4, extrapolation_frames=4)
        with pytest.raises(ValueError):
            FrameSchedule.constant_ew(0)

    def test_empty_scene_prices_no_motion_controller_work(self, soc, mdnet):
        """An all-empty E-frame schedule must not charge extrapolation cost."""
        empty = FrameSchedule(
            num_frames=100, inference_frames=10, extrapolation_frames=90,
            rois_per_frame=0.0,
        )
        tracked = FrameSchedule(
            num_frames=100, inference_frames=10, extrapolation_frames=90,
            rois_per_frame=1.0,
        )
        empty_breakdown = soc.evaluate(mdnet, empty)
        tracked_breakdown = soc.evaluate(mdnet, tracked)
        # 10 K fixed-point ops per tracked ROI, none for empty scenes.
        assert empty_breakdown.total_ops < tracked_breakdown.total_ops
        extrapolation_ops = tracked_breakdown.total_ops - empty_breakdown.total_ops
        assert extrapolation_ops == pytest.approx(90 * 10_000.0)
        # The per-ROI result write-back disappears too (16 bytes per ROI).
        write_back = (
            tracked_breakdown.total_traffic_bytes - empty_breakdown.total_traffic_bytes
        )
        assert write_back == 90 * 16

    def test_clock_gated_motion_controller_idle(self, mdnet):
        """A lowered idle power only discounts the non-extrapolating time."""
        from dataclasses import replace

        from repro.soc.config import MotionControllerConfig, SoCConfig

        gated = VisionSoC(
            replace(SoCConfig(), motion_controller=MotionControllerConfig(idle_power_w=0.0))
        )
        always_on = VisionSoC()
        schedule = FrameSchedule.constant_ew(4, num_frames=600)
        gated_breakdown = gated.evaluate(mdnet, schedule)
        baseline = always_on.evaluate(mdnet, schedule)
        saved = baseline.backend_energy_j - gated_breakdown.backend_energy_j
        # Almost the whole wall clock is idle for the MC, so the saving is
        # close to (but strictly below) idle power x wall time.
        assert 0.0 < saved < 0.0022 * baseline.wall_time_s
        assert saved == pytest.approx(0.0022 * baseline.wall_time_s, rel=0.01)


class TestDetectionScenario:
    """The headline detection results of Sec. 6.1."""

    def test_baseline_fps_near_17(self, soc, yolo):
        baseline = soc.evaluate_constant_ew(yolo, 1)
        assert 14.0 <= baseline.fps <= 22.0

    def test_ew2_doubles_fps_and_saves_energy(self, soc, yolo):
        baseline = soc.evaluate_constant_ew(yolo, 1)
        ew2 = soc.evaluate_constant_ew(yolo, 2)
        assert ew2.fps == pytest.approx(2 * baseline.fps, rel=0.05)
        saving = ew2.energy_saving_vs(baseline)
        assert 0.35 <= saving <= 0.60  # paper: 45%

    def test_ew4_reaches_real_time_with_large_saving(self, soc, yolo):
        baseline = soc.evaluate_constant_ew(yolo, 1)
        ew4 = soc.evaluate_constant_ew(yolo, 4)
        assert ew4.fps == pytest.approx(60.0, rel=0.01)
        saving = ew4.energy_saving_vs(baseline)
        assert 0.55 <= saving <= 0.80  # paper: 66%

    def test_energy_decreases_monotonically_with_ew(self, soc, yolo):
        energies = [
            soc.evaluate_constant_ew(yolo, window).energy_per_frame_j
            for window in (1, 2, 4, 8, 16, 32)
        ]
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_diminishing_returns_beyond_ew8(self, soc, yolo):
        """Frontend + memory dominate at large EW, so savings flatten out."""
        baseline = soc.evaluate_constant_ew(yolo, 1)
        ew8 = soc.evaluate_constant_ew(yolo, 8).normalized_to(baseline)
        ew32 = soc.evaluate_constant_ew(yolo, 32).normalized_to(baseline)
        assert (ew8 - ew32) < 0.10

    def test_frontend_energy_constant_at_capped_fps(self, soc, yolo):
        ew4 = soc.evaluate_constant_ew(yolo, 4)
        ew32 = soc.evaluate_constant_ew(yolo, 32)
        assert ew4.frontend_energy_per_frame_j == pytest.approx(
            ew32.frontend_energy_per_frame_j, rel=0.01
        )

    def test_cpu_extrapolation_negates_most_of_the_benefit(self, soc, yolo):
        """EW-8@CPU costs about as much as EW-4 on the dedicated IP (Fig. 9b)."""
        ew4 = soc.evaluate_constant_ew(yolo, 4)
        ew8 = soc.evaluate_constant_ew(yolo, 8)
        ew8_cpu = soc.evaluate_constant_ew(yolo, 8, extrapolation_on_cpu=True)
        assert ew8_cpu.energy_per_frame_j > 1.3 * ew8.energy_per_frame_j
        assert ew8_cpu.energy_per_frame_j == pytest.approx(ew4.energy_per_frame_j, rel=0.25)

    def test_tiny_yolo_worse_than_ew32(self, soc, yolo):
        """Tiny YOLO burns more energy than EW-32 despite its truncated network."""
        tiny = soc.evaluate_constant_ew(build_tiny_yolo(), 1)
        ew32 = soc.evaluate_constant_ew(yolo, 32)
        assert tiny.energy_per_frame_j > 1.3 * ew32.energy_per_frame_j

    def test_iframe_and_eframe_traffic_match_paper_scale(self, soc, yolo):
        """Fig. 9c: I-frames ~646 MB, E-frames tens of MB."""
        baseline = soc.evaluate_constant_ew(yolo, 1)
        assert baseline.traffic_per_frame_bytes == pytest.approx(646e6, rel=0.20)
        ew32 = soc.evaluate_constant_ew(yolo, 32)
        eframe_traffic = (
            ew32.total_traffic_bytes
            - ew32.inference_rate * ew32.num_frames * baseline.traffic_per_frame_bytes
        ) / (ew32.num_frames * (1 - ew32.inference_rate))
        assert 15e6 <= eframe_traffic <= 35e6

    def test_ops_per_frame_scale_with_inference_rate(self, soc, yolo):
        baseline = soc.evaluate_constant_ew(yolo, 1)
        ew4 = soc.evaluate_constant_ew(yolo, 4)
        assert ew4.ops_per_frame == pytest.approx(baseline.ops_per_frame / 4, rel=0.01)


class TestTrackingScenario:
    """The headline tracking results of Sec. 6.2."""

    def test_baseline_mdnet_achieves_60fps(self, soc, mdnet):
        assert soc.evaluate_constant_ew(mdnet, 1).fps == pytest.approx(60.0, rel=0.01)

    def test_ew2_saves_backend_energy(self, soc, mdnet):
        baseline = soc.evaluate_constant_ew(mdnet, 1)
        ew2 = soc.evaluate_constant_ew(mdnet, 2)
        saving = ew2.energy_saving_vs(baseline)
        assert 0.15 <= saving <= 0.40  # paper: 21%
        backend_saving = 1.0 - (
            ew2.backend_energy_per_frame_j / baseline.backend_energy_per_frame_j
        )
        assert 0.4 <= backend_saving <= 0.6  # paper: ~50% backend saving

    def test_savings_saturate_at_large_ew(self, soc, mdnet):
        baseline = soc.evaluate_constant_ew(mdnet, 1)
        ew16 = soc.evaluate_constant_ew(mdnet, 16).normalized_to(baseline)
        ew32 = soc.evaluate_constant_ew(mdnet, 32).normalized_to(baseline)
        assert ew16 - ew32 < 0.05
        assert ew32 > 0.3  # frontend + memory put a floor under the energy

    def test_inference_rate_reported(self, soc, mdnet):
        ew4 = soc.evaluate_constant_ew(mdnet, 4)
        assert ew4.inference_rate == pytest.approx(0.25, abs=0.01)

    def test_evaluate_results_uses_actual_schedule(self, soc, mdnet):
        frames = [FrameResult(0, FrameKind.INFERENCE, [])] + [
            FrameResult(i, FrameKind.EXTRAPOLATION, []) for i in range(1, 10)
        ]
        telemetry = [
            FrameTelemetry(frame.frame_index, frame.kind, rois=0) for frame in frames
        ]
        results = [SequenceResult("seq", frames, telemetry)]
        breakdown = soc.evaluate_results(mdnet, results)
        assert breakdown.inference_rate == pytest.approx(0.1)
        assert breakdown.num_frames == 10


class TestEvaluateResults:
    """Measured energy: every recorded frame priced through one meter."""

    def test_prices_every_recorded_frame(self, soc, yolo):
        """Per-frame ROI counts are priced as recorded, not as a mean."""
        pipeline = PipelineSpec(extrapolation_window=2).build(
            detection_backend_for("yolov2", seed=1)
        )
        results = pipeline.run_dataset(build_detection_dataset())
        e_frame_rois = {
            event.rois
            for result in results
            for event in result.telemetry
            if event.kind is FrameKind.EXTRAPOLATION
        }
        assert len(e_frame_rois) > 1

        meter = soc.open_meter(yolo, assume_nominal_capture=True)
        for result in results:
            for event in result.telemetry:
                meter.record(event)
        assert soc.evaluate_results(yolo, results, label="EW-2") == meter.breakdown(
            "EW-2"
        )

    def test_results_without_telemetry_raise(self, soc, mdnet):
        frames = [FrameResult(0, FrameKind.INFERENCE, [])]
        results = [SequenceResult("seq", frames)]
        with pytest.raises(ValueError, match="'EW-4'"):
            soc.evaluate_results(mdnet, results, label="EW-4")
        with pytest.raises(ValueError, match="'MDNet'"):
            soc.evaluate_results(mdnet, results)


class TestEnergyBreakdownArithmetic:
    def test_components_sum_to_total(self, soc, yolo):
        breakdown = soc.evaluate_constant_ew(yolo, 4)
        assert breakdown.total_energy_j == pytest.approx(
            breakdown.frontend_energy_j
            + breakdown.memory_energy_j
            + breakdown.backend_energy_j
            + breakdown.cpu_energy_j
        )
        per_frame_sum = (
            breakdown.frontend_energy_per_frame_j
            + breakdown.memory_energy_per_frame_j
            + breakdown.backend_energy_per_frame_j
        )
        assert per_frame_sum == pytest.approx(breakdown.energy_per_frame_j)

    def test_normalization_identity(self, soc, yolo):
        baseline = soc.evaluate_constant_ew(yolo, 1)
        assert baseline.normalized_to(baseline) == pytest.approx(1.0)
        assert baseline.energy_saving_vs(baseline) == pytest.approx(0.0)
