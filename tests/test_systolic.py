"""Tests for the systolic-array performance model."""

from __future__ import annotations

import pytest

from repro.nn.layers import ConvLayer, FullyConnectedLayer, PoolLayer
from repro.nn.models import build_mdnet, build_tiny_yolo, build_yolo_v2
from repro.soc.config import NNXConfig
from repro.soc.systolic import SystolicArrayModel


@pytest.fixture
def model():
    return SystolicArrayModel(NNXConfig())


class TestLayerTiming:
    def test_conv_cycles_formula(self, model):
        layer = ConvLayer("c", 16, 16, 24, 24, kernel_size=1, stride=1)
        timing = model.layer_timing(layer)
        # reduction = 24 -> 1 tile of rows; out_c = 24 -> 1 tile of cols.
        assert timing.cycles == 1 * 1 * (16 * 16 + 48)

    def test_larger_reduction_needs_more_tiles(self, model):
        small = ConvLayer("s", 16, 16, 24, 24, kernel_size=1)
        large = ConvLayer("l", 16, 16, 48, 24, kernel_size=1)
        assert model.layer_timing(large).cycles == 2 * model.layer_timing(small).cycles

    def test_fc_timing(self, model):
        layer = FullyConnectedLayer("fc", 240, 48)
        timing = model.layer_timing(layer)
        assert timing.cycles == 10 * 2 + 48

    def test_pool_timing(self, model):
        layer = PoolLayer("p", 32, 32, 64)
        assert model.layer_timing(layer).cycles > 0

    def test_unsupported_layer_type(self, model):
        with pytest.raises(TypeError):
            model.layer_timing(object())


class TestNetworkTiming:
    def test_yolo_latency_matches_paper_fps(self, model):
        """The paper reports baseline YOLOv2 at ~17 FPS on the 1.15 TOPS NNX."""
        latency = model.latency_per_frame_s(build_yolo_v2())
        fps = 1.0 / latency
        assert 14.0 <= fps <= 22.0

    def test_small_networks_sustain_60fps(self, model):
        """Tiny YOLO and MDNet fit the real-time budget (Table 2 discussion)."""
        for network in (build_tiny_yolo(), build_mdnet()):
            assert model.latency_per_frame_s(network) < 1.0 / 60.0

    def test_evaluations_scale_latency(self, model):
        one = build_mdnet(candidates_per_frame=1)
        ten = build_mdnet(candidates_per_frame=10)
        assert model.cycles_per_frame(ten) == 10 * model.cycles_per_frame(one)

    def test_throughput_at_or_below_peak(self, model):
        config = NNXConfig()
        for network in (build_yolo_v2(), build_tiny_yolo(), build_mdnet()):
            tops = network.ops_per_frame / model.latency_per_frame_s(network) / 1e12
            assert 0.0 < tops <= config.peak_tops
