"""Tests for the full ISP pipeline (RAW path and luma path)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.isp.denoise import TemporalDenoiseConfig, TemporalDenoiseStage
from repro.isp.framebuffer import DEFAULT_FRAME_FORMAT
from repro.isp.pipeline import ISPConfig, ISPPipeline
from repro.isp.sensor import CameraSensor
from repro.isp.stages import rgb_to_luma


class TestRawPath:
    def test_full_raw_path_produces_luma_and_metadata(self, small_sequence):
        sensor = CameraSensor(seed=1)
        isp = ISPPipeline()
        first = isp.process(sensor.capture(small_sequence.frame(0), 0))
        second = isp.process(sensor.capture(small_sequence.frame(1), 1))
        assert first.motion_field is None  # no reference frame yet
        assert second.motion_field is not None
        assert second.luma.shape == small_sequence.frame(0).shape
        assert second.rgb.shape == (*small_sequence.frame(0).shape, 3)
        assert second.total_ops > second.motion_ops > 0

    @pytest.mark.parametrize(
        "frame_format", [DEFAULT_FRAME_FORMAT, None], ids=["q8.4", "float"]
    )
    def test_raw_path_matches_its_stages_and_a_denoise_stage(
        self, small_sequence, frame_format
    ):
        """``process`` commits exactly what its stages feed a denoise stage."""
        sensor = CameraSensor(seed=3)
        isp = ISPPipeline(ISPConfig(frame_format=frame_format))
        denoise = TemporalDenoiseStage(
            TemporalDenoiseConfig(block_matching=isp.config.block_matching)
        )
        for index in range(3):
            raw = sensor.capture(small_sequence.frame(index), index)
            processed = isp.process(raw)

            pixels = float(raw.bayer.size)
            image, total_ops = raw.bayer, 0.0
            for stage in isp.bayer_stages + isp.rgb_stages:
                image = stage.process(image, channel_map=raw.channel_map)
                total_ops += stage.ops_per_pixel * pixels
            denoised, field = denoise.process(
                rgb_to_luma(image, output_format=frame_format)
            )
            motion_ops = float(denoise.last_motion_ops)
            total_ops += 2.0 * pixels + motion_ops + denoise.ops_per_pixel * pixels
            expected = denoised if frame_format is None else frame_format.quantize(denoised)

            assert np.array_equal(processed.luma, expected)
            assert np.array_equal(processed.rgb, image)
            assert processed.motion_ops == motion_ops
            assert processed.total_ops == total_ops
            if index == 0:
                assert field is None and processed.motion_field is None
            else:
                assert np.array_equal(processed.motion_field.vectors, field.vectors)
                assert np.array_equal(processed.motion_field.sad, field.sad)

    def test_raw_path_luma_close_to_scene(self, small_sequence):
        sensor = CameraSensor(seed=2)
        isp = ISPPipeline()
        scene = small_sequence.frame(0).astype(np.float64)
        processed = isp.process(sensor.capture(scene, 0))
        assert np.abs(processed.luma - scene).mean() < 15.0


class TestLumaPath:
    def test_motion_vectors_exposed_by_default(self, small_sequence):
        isp = ISPPipeline()
        isp.process_luma(small_sequence.frame(0).astype(float), 0)
        result = isp.process_luma(small_sequence.frame(1).astype(float), 1)
        assert result.motion_field is not None
        entry = isp.frame_buffer.latest()
        assert entry.has_motion_vectors

    def test_motion_vectors_hidden_when_disabled(self, small_sequence):
        isp = ISPPipeline(ISPConfig(expose_motion_vectors=False))
        isp.process_luma(small_sequence.frame(0).astype(float), 0)
        result = isp.process_luma(small_sequence.frame(1).astype(float), 1)
        assert result.motion_field is None
        assert not isp.frame_buffer.latest().has_motion_vectors

    def test_frame_counter_and_reset(self, small_sequence):
        isp = ISPPipeline()
        for index in range(3):
            isp.process_luma(small_sequence.frame(index).astype(float), index)
        assert isp.frames_processed == 3
        # A frame of a new size resets the temporal reference.
        result = isp.process_luma(small_sequence.frame(3)[:32, :48].astype(float), 3)
        assert result.motion_field is None
        assert isp.frames_processed == 4

    def test_frame_buffer_traffic_grows(self, small_sequence):
        isp = ISPPipeline()
        isp.process_luma(small_sequence.frame(0).astype(float), 0)
        written_after_one = isp.frame_buffer.bytes_written
        isp.process_luma(small_sequence.frame(1).astype(float), 1)
        assert isp.frame_buffer.bytes_written > written_after_one


class TestISPConfig:
    def test_power_includes_motion_estimation_overhead(self):
        assert ISPConfig().total_power_w == pytest.approx(0.153 * 1.025)

    def test_motion_field_tracks_configured_block_size(self, small_sequence):
        from repro.motion.block_matching import BlockMatchingConfig

        isp = ISPPipeline(ISPConfig(block_matching=BlockMatchingConfig(block_size=32)))
        isp.process_luma(small_sequence.frame(0).astype(float), 0)
        result = isp.process_luma(small_sequence.frame(1).astype(float), 1)
        assert result.motion_field.grid.block_size == 32
