"""Tests for the per-frame SoC costing core (FrameCost / CostMeter).

The central property: folding per-frame events through a
:class:`~repro.soc.frame_cost.CostMeter` reproduces the closed-form
``evaluate_constant_ew`` breakdown exactly, across EW values and
extrapolation hosts — the analytic and measured paths share one costing
core by construction, and these tests pin that down.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PipelineSpec, tracking_backend_for
from repro.core.types import FrameKind, FrameTelemetry
from repro.nn.models import build_mdnet, build_yolo_v2
from repro.soc import CostMeter, VisionSoC
from repro.video.datasets import build_tracking_dataset


@pytest.fixture(scope="module")
def soc():
    return VisionSoC()


@pytest.fixture(scope="module")
def mdnet():
    return build_mdnet()


@pytest.fixture(scope="module")
def yolo():
    return build_yolo_v2()


def constant_ew_events(extrapolation_window: int, num_frames: int, rois: int):
    """The per-frame event stream of a constant-EW run: I, E, E, ..., I, ..."""
    for index in range(num_frames):
        kind = (
            FrameKind.INFERENCE
            if index % extrapolation_window == 0
            else FrameKind.EXTRAPOLATION
        )
        yield FrameTelemetry(frame_index=index, kind=kind, rois=rois)


class TestFoldReproducesClosedForm:
    """Satellite: per-frame fold == closed-form constant-EW breakdown."""

    @settings(max_examples=60, deadline=None)
    @given(
        extrapolation_window=st.integers(min_value=1, max_value=48),
        num_frames=st.integers(min_value=1, max_value=400),
        rois=st.integers(min_value=0, max_value=10),
        on_cpu=st.booleans(),
    )
    def test_event_fold_matches_evaluate_constant_ew(
        self, soc, mdnet, extrapolation_window, num_frames, rois, on_cpu
    ):
        analytic = soc.evaluate_constant_ew(
            mdnet,
            extrapolation_window,
            num_frames=num_frames,
            rois_per_frame=float(rois),
            extrapolation_on_cpu=on_cpu,
        )
        meter = soc.open_meter(mdnet, extrapolation_on_cpu=on_cpu)
        for event in constant_ew_events(extrapolation_window, num_frames, rois):
            meter.record(event)
        measured = meter.breakdown()

        assert measured.num_frames == analytic.num_frames
        assert measured.inference_rate == pytest.approx(analytic.inference_rate)
        assert measured.fps == pytest.approx(analytic.fps, rel=1e-9)
        assert measured.wall_time_s == pytest.approx(analytic.wall_time_s, rel=1e-9)
        assert measured.frontend_energy_j == pytest.approx(
            analytic.frontend_energy_j, rel=1e-9
        )
        assert measured.memory_energy_j == pytest.approx(
            analytic.memory_energy_j, rel=1e-9
        )
        assert measured.backend_energy_j == pytest.approx(
            analytic.backend_energy_j, rel=1e-9
        )
        assert measured.cpu_energy_j == pytest.approx(
            analytic.cpu_energy_j, rel=1e-9, abs=1e-15
        )
        assert measured.total_traffic_bytes == analytic.total_traffic_bytes
        assert measured.total_ops == pytest.approx(analytic.total_ops, rel=1e-9)
        assert measured.total_energy_j == pytest.approx(
            analytic.total_energy_j, rel=1e-9
        )

    @pytest.mark.parametrize("extrapolation_window", [1, 2, 4, 8])
    def test_live_pipeline_telemetry_matches_analytic_model(
        self, soc, mdnet, extrapolation_window
    ):
        """Acceptance: measured constant-EW energy within 1% of analytic.

        Folds the telemetry of an actual pipeline run (true per-frame I/E
        decisions and ROI counts) at the nominal capture setting and
        compares against the closed form for the same frame count.
        """
        dataset = build_tracking_dataset(
            otb_sequences=2, vot_sequences=0, frames_per_sequence=24
        )
        pipeline = PipelineSpec(extrapolation_window=extrapolation_window).build(
            tracking_backend_for("mdnet", seed=1)
        )
        results = pipeline.run_dataset(dataset)
        meter = soc.open_meter(mdnet, assume_nominal_capture=True)
        frames = 0
        for result in results:
            assert len(result.telemetry) == len(result.frames)
            frames += meter.record_all(result.telemetry)
        measured = meter.breakdown("measured")
        analytic = soc.evaluate_constant_ew(mdnet, extrapolation_window, num_frames=frames)
        assert measured.energy_per_frame_j == pytest.approx(
            analytic.energy_per_frame_j, rel=0.01
        )
        assert measured.fps == pytest.approx(analytic.fps, rel=0.01)
        assert measured.traffic_per_frame_bytes == pytest.approx(
            analytic.traffic_per_frame_bytes, rel=0.01
        )


class TestPricing:
    def test_empty_scene_e_frame_has_no_mc_cost(self, soc, mdnet):
        meter = soc.open_meter(mdnet)
        cost = meter.price(
            FrameTelemetry(frame_index=1, kind=FrameKind.EXTRAPOLATION, rois=0)
        )
        assert cost.latency_s == 0.0
        assert cost.mc_busy_s == 0.0
        assert cost.ops == 0.0
        # Only the frame buffer + MV metadata traffic remains (the metadata
        # read still happens; there is just nothing to write back).
        tracked = meter.price(
            FrameTelemetry(frame_index=1, kind=FrameKind.EXTRAPOLATION, rois=3)
        )
        assert tracked.traffic_bytes - cost.traffic_bytes == 3 * 16

    def test_empty_scene_does_not_wake_the_cpu(self, soc, mdnet):
        meter = soc.open_meter(mdnet, extrapolation_on_cpu=True)
        idle = meter.price(
            FrameTelemetry(frame_index=1, kind=FrameKind.EXTRAPOLATION, rois=0)
        )
        busy = meter.price(
            FrameTelemetry(frame_index=1, kind=FrameKind.EXTRAPOLATION, rois=1)
        )
        assert idle.cpu_energy_j == 0.0
        assert idle.latency_s == 0.0
        assert busy.cpu_energy_j > 0.0

    def test_batched_inference_amortises_weight_traffic(self, soc, yolo):
        meter = soc.open_meter(yolo)
        event = FrameTelemetry(frame_index=0, kind=FrameKind.INFERENCE)
        single = meter.price(event, batch_size=1)
        batched = meter.price(event, batch_size=4)
        saved = single.traffic_bytes - batched.traffic_bytes
        assert saved == pytest.approx(yolo.weight_bytes * (1 - 1 / 4), rel=1e-6)
        # Compute, latency and ops are per-frame regardless of batching.
        assert batched.latency_s == single.latency_s
        assert batched.ops == single.ops

    def test_pixels_scale_frontend_traffic(self, soc, mdnet):
        meter = soc.open_meter(mdnet)
        nominal = meter.price(FrameTelemetry(frame_index=0, kind=FrameKind.INFERENCE))
        small = meter.price(
            FrameTelemetry(frame_index=0, kind=FrameKind.INFERENCE, pixels=192 * 108)
        )
        assert small.traffic_bytes < nominal.traffic_bytes
        # assume_nominal_capture overrides measured pixels.
        nominal_meter = soc.open_meter(mdnet, assume_nominal_capture=True)
        assert (
            nominal_meter.price(
                FrameTelemetry(frame_index=0, kind=FrameKind.INFERENCE, pixels=192 * 108)
            ).traffic_bytes
            == nominal.traffic_bytes
        )

    def test_price_is_pure_and_record_accumulates(self, soc, mdnet):
        meter = soc.open_meter(mdnet)
        event = FrameTelemetry(frame_index=0, kind=FrameKind.INFERENCE)
        meter.price(event)
        assert meter.frames == 0
        meter.record(event, count=5)
        assert meter.frames == 5
        assert meter.inference_frames == 5
        with pytest.raises(ValueError):
            meter.record(event, count=-1)

    def test_breakdown_requires_frames(self, soc, mdnet):
        with pytest.raises(ValueError, match="no frames"):
            soc.open_meter(mdnet).breakdown()

    def test_breakdown_is_non_destructive(self, soc, mdnet):
        meter = soc.open_meter(mdnet)
        meter.record(FrameTelemetry(frame_index=0, kind=FrameKind.INFERENCE))
        first = meter.breakdown()
        meter.record(
            FrameTelemetry(frame_index=1, kind=FrameKind.EXTRAPOLATION, rois=1)
        )
        second = meter.breakdown()
        assert first.num_frames == 1
        assert second.num_frames == 2

    def test_meter_label_defaults_to_network_name(self, soc, mdnet):
        assert CostMeter(soc, mdnet).label == mdnet.name


class TestQueueingEstimate:
    """The M/D/1 latency view layered on the wall-clock rule."""

    def test_capture_bound_stream_has_finite_wait(self, soc, mdnet):
        meter = soc.open_meter(mdnet)
        # Cheap E-frames: backend demand far below the capture period.
        for event in constant_ew_events(8, 64, rois=1):
            meter.record(event)
        estimate = meter.queueing_estimate()
        assert 0.0 < estimate.utilization < 1.0
        assert 0.0 < estimate.mean_wait_s < float("inf")

    def test_compute_bound_stream_has_unbounded_wait(self, soc, yolo):
        meter = soc.open_meter(yolo)
        # Every frame a heavyweight inference: compute-bound (wall ==
        # backend time, utilisation pinned at 1).
        for event in constant_ew_events(1, 16, rois=1):
            meter.record(event)
        estimate = meter.queueing_estimate()
        assert estimate.utilization == pytest.approx(1.0)
        assert estimate.mean_wait_s == float("inf")

    def test_requires_frames(self, soc, mdnet):
        with pytest.raises(ValueError, match="nothing to estimate"):
            soc.open_meter(mdnet).queueing_estimate()


class TestSharedSoCPool:
    """Exact shared-static-power aggregates across concurrent streams."""

    def _fill(self, meter, extrapolation_window=4, num_frames=32):
        for event in constant_ew_events(extrapolation_window, num_frames, rois=1):
            meter.record(event)

    def test_single_stream_aggregate_equals_its_breakdown(self, soc, mdnet):
        pool = soc.open_pool()
        meter = pool.open_meter(mdnet)
        self._fill(meter)
        aggregate = pool.aggregate()
        alone = meter.breakdown()
        assert aggregate.total_energy_j == pytest.approx(alone.total_energy_j)
        assert aggregate.num_frames == alone.num_frames
        assert aggregate.wall_time_s == pytest.approx(alone.wall_time_s)

    def test_multi_stream_aggregate_below_per_stream_sum(self, soc, mdnet):
        pool = soc.open_pool()
        meters = [pool.open_meter(mdnet, label=f"cam{i}") for i in range(4)]
        for meter in meters:
            self._fill(meter)
        aggregate = pool.aggregate()
        upper_bound = sum(meter.breakdown().total_energy_j for meter in meters)
        assert aggregate.total_energy_j < upper_bound
        # The gap is exactly the (N-1) extra copies of static power the
        # per-stream sum double-counts; both sides share identical dynamic
        # terms, so the exact figure is bounded below by them too.
        assert aggregate.total_energy_j > upper_bound / len(meters)

    def test_pool_queueing_can_overload_past_unity(self, soc, yolo):
        pool = soc.open_pool()
        for index in range(3):
            meter = pool.open_meter(yolo, label=f"cam{index}")
            self._fill(meter, extrapolation_window=1, num_frames=16)
        estimate = pool.queueing_estimate()
        # Three compute-bound streams genuinely overload one shared backend.
        assert estimate.utilization > 1.0
        assert estimate.mean_wait_s == float("inf")

    def test_empty_pool_refuses_aggregates(self, soc, mdnet):
        pool = soc.open_pool()
        pool.open_meter(mdnet)
        assert pool.frames == 0
        with pytest.raises(ValueError, match="nothing to aggregate"):
            pool.aggregate()
        with pytest.raises(ValueError, match="nothing to estimate"):
            pool.queueing_estimate()
