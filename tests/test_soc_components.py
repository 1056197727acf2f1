"""Tests for the individual SoC IP models: NNX, motion controller, CPU, DRAM."""

from __future__ import annotations

import pytest

from repro.core.types import FrameKind, FrameTelemetry
from repro.nn.models import build_mdnet, build_tiny_yolo, build_yolo_v2
from repro.soc.config import CPUConfig, NNXConfig, SoCConfig
from repro.soc.cpu import CPUHost
from repro.soc.dram import DRAMModel
from repro.soc.motion_controller import MotionControllerIP
from repro.soc.nnx import NNXAccelerator
from repro.soc.soc import VisionSoC

INFERENCE = FrameTelemetry(frame_index=0, kind=FrameKind.INFERENCE)


def extrapolation(rois: int) -> FrameTelemetry:
    return FrameTelemetry(frame_index=0, kind=FrameKind.EXTRAPOLATION, rois=rois)


def inference_traffic_bytes(nnx: NNXAccelerator, network, input_bytes: int) -> int:
    """DRAM bytes one unbatched inference moves (input, weights, activations)."""
    return nnx.batched_traffic_bytes(*nnx.inference_traffic_parts(network, input_bytes))


class TestNNXConfig:
    def test_peak_throughput(self):
        config = NNXConfig()
        # 24x24 MACs at 1 GHz = 1.152 TOPS (Sec. 5.1).
        assert config.peak_tops == pytest.approx(1.152)

    def test_power_efficiency_matches_paper(self):
        config = NNXConfig()
        # The paper reports 1.77 TOPS/W post-layout.
        assert config.tops_per_watt == pytest.approx(1.77, rel=0.02)


class TestNNXAccelerator:
    def test_inference_energy_scales_with_latency(self):
        soc = VisionSoC()
        active_power_w = soc.config.nnx.active_power_w

        def energy_per_inference_j(network):
            return active_power_w * soc.open_meter(network).price(INFERENCE).nnx_active_s

        assert energy_per_inference_j(build_yolo_v2()) > 3 * energy_per_inference_j(
            build_tiny_yolo()
        )

    def test_yolo_iframe_traffic_near_paper_value(self):
        """Each YOLOv2 I-frame moves ~646 MB of DRAM traffic (Sec. 6.1)."""
        nnx = NNXAccelerator()
        traffic = inference_traffic_bytes(nnx, build_yolo_v2(), 640 * 480 * 3)
        assert traffic == pytest.approx(646e6, rel=0.15)

    def test_traffic_ordering(self):
        nnx = NNXAccelerator()
        traffic = {
            net.name: inference_traffic_bytes(nnx, net, 640 * 480 * 3)
            for net in (build_yolo_v2(), build_tiny_yolo(), build_mdnet())
        }
        assert traffic["YOLOv2"] > traffic["TinyYOLO"] > 0
        assert traffic["YOLOv2"] > traffic["MDNet"] > 0

    def test_idle_energy(self):
        nnx = NNXAccelerator()
        assert nnx.idle_energy_j(1.0) == pytest.approx(NNXConfig().idle_power_w)


class TestMotionController:
    def test_extrapolation_is_orders_of_magnitude_cheaper_than_inference(self):
        mc = MotionControllerIP()
        # ~10 K ops per ROI vs billions per CNN inference (Sec. 3.2).
        assert mc.extrapolation_ops(1) == pytest.approx(10_000)
        assert mc.extrapolation_ops(1) < build_tiny_yolo().ops_per_frame / 1e4

    def test_supports_ten_rois_at_60fps(self):
        """The IP is sized for 10 ROIs per frame at 60 FPS (Sec. 5.1)."""
        mc = MotionControllerIP()
        assert mc.extrapolation_latency_s(10) <= 1.0 / 60.0

    def test_latency_scales_with_rois(self):
        mc = MotionControllerIP()
        assert mc.extrapolation_latency_s(10) == pytest.approx(
            10 * mc.extrapolation_latency_s(1)
        )

    def test_frame_energy_is_milliwatt_scale(self):
        """The always-on MC costs 2.2 mW over a frame period, busy or not."""
        mc = MotionControllerIP()
        busy_s = mc.extrapolation_latency_s(6)
        frame_s = 1.0 / 60.0
        energy = mc.config.active_power_w * busy_s + mc.idle_energy_j(frame_s - busy_s)
        assert energy == pytest.approx(0.0022 / 60.0)

    def test_extrapolation_traffic_dominated_by_metadata(self):
        mc = MotionControllerIP()
        traffic = mc.extrapolation_traffic_bytes(motion_metadata_bytes=16_200, num_rois=6)
        assert 16_200 < traffic < 17_000


class TestCPUHost:
    def test_software_extrapolation_is_far_more_expensive_than_mc(self):
        """An E-frame on the CPU costs >50x the MC's energy per frame."""
        soc = VisionSoC()
        network = build_mdnet()
        cpu_energy = (
            soc.open_meter(network, extrapolation_on_cpu=True)
            .price(extrapolation(1))
            .cpu_energy_j
        )
        mc = soc.motion_controller
        busy_s = soc.open_meter(network).price(extrapolation(1)).mc_busy_s
        mc_energy = mc.config.active_power_w * busy_s + mc.idle_energy_j(
            soc.config.frame_period_s - busy_s
        )
        assert cpu_energy > 50 * mc_energy

    def test_cost_combines_wake_and_compute(self):
        config = CPUConfig(active_power_w=2.0, wake_latency_s=0.001, extrapolation_time_s=0.002)
        cost = CPUHost(config).extrapolation_cost()
        assert cost.latency_s == pytest.approx(0.003)
        assert cost.energy_j == pytest.approx(0.006)


class TestDRAM:
    def test_energy_split(self):
        dram = DRAMModel()
        background = dram.energy_j(0, 1.0)
        dynamic = dram.energy_j(int(1e9), 0.0)
        assert background == pytest.approx(0.140)
        assert dynamic == pytest.approx(1e9 * 45e-12)
        assert dram.energy_j(int(1e9), 1.0) == background + dynamic

    def test_capture_only_power_near_tx2_measurement(self):
        """1080p60 capture workload should land near the measured ~230 mW."""
        soc = SoCConfig()
        dram = DRAMModel(soc.dram)
        frontend_traffic_per_s = 60 * (1920 * 1080) * (2 + 2 + 3 + 3)
        average_power_w = dram.energy_j(int(frontend_traffic_per_s), 1.0)  # over 1 s
        assert 0.15 <= average_power_w <= 0.30

    def test_validation(self):
        dram = DRAMModel()
        with pytest.raises(ValueError):
            dram.energy_j(-1, 1.0)
        with pytest.raises(ValueError):
            dram.energy_j(1, -1.0)

    def test_zero_duration(self):
        dram = DRAMModel()
        assert dram.energy_j(0, 0.0) == 0.0
        assert dram.energy_j(100, 0.0) == pytest.approx(100 * 45e-12)


class TestSoCConfigTable1:
    def test_table1_has_all_components(self):
        rows = SoCConfig().table1_rows()
        components = [name for name, _spec in rows]
        assert components == [
            "Camera Sensor",
            "ISP",
            "NN Accelerator (NNX)",
            "Motion Controller (MC)",
            "DRAM",
        ]

    def test_table1_mentions_key_parameters(self):
        text = " | ".join(spec for _name, spec in SoCConfig().table1_rows())
        assert "24x24 systolic" in text
        assert "1.5 MB" in text
        assert "8 KB" in text
        assert "4-wide SIMD" in text
        assert "LPDDR3" in text

    def test_frontend_power(self):
        config = SoCConfig()
        assert config.frontend_power_w == pytest.approx(0.180 + 0.153 * 1.025)
