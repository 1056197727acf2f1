"""Tests for the temporal-denoise stage (the motion-vector producer)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.isp.denoise import TemporalDenoiseConfig, TemporalDenoiseStage
from repro.motion.block_matching import BlockMatchingConfig
from repro.motion.kernels import resolve_kernel_backend


def _noisy(frame: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.clip(frame + rng.normal(0, sigma, frame.shape), 0, 255)


class TestTemporalDenoise:
    def test_first_frame_passthrough(self, small_sequence):
        stage = TemporalDenoiseStage()
        frame = small_sequence.frame(0).astype(float)
        denoised, field = stage.process(frame)
        assert field is None
        assert np.array_equal(denoised, frame)

    def test_second_frame_produces_motion_field(self, small_sequence):
        stage = TemporalDenoiseStage()
        stage.process(small_sequence.frame(0).astype(float))
        _, field = stage.process(small_sequence.frame(1).astype(float))
        assert field is not None
        assert field.grid.frame_width == small_sequence.width
        assert stage.last_motion_ops > 0

    def test_denoising_reduces_noise_on_static_scene(self):
        rng = np.random.default_rng(3)
        clean = np.kron(rng.uniform(60, 200, (12, 16)), np.ones((8, 8)))
        stage = TemporalDenoiseStage(TemporalDenoiseConfig(blend_strength=0.5))
        stage.process(_noisy(clean, 6.0, 1))
        denoised, _ = stage.process(_noisy(clean, 6.0, 2))
        raw_error = np.abs(_noisy(clean, 6.0, 2) - clean).mean()
        denoised_error = np.abs(denoised - clean).mean()
        assert denoised_error < raw_error

    def test_bad_matches_are_not_blended(self):
        """Blocks whose SAD is too high (scene change) must pass through."""
        rng = np.random.default_rng(4)
        first = rng.uniform(0, 255, (48, 64))
        second = rng.uniform(0, 255, (48, 64))  # totally different content
        stage = TemporalDenoiseStage(
            TemporalDenoiseConfig(blend_strength=0.9, max_normalised_sad=0.05)
        )
        stage.process(first)
        denoised, _ = stage.process(second)
        assert np.abs(denoised - second).mean() < 1.0

    def test_resolution_change_resets_reference(self, small_sequence):
        stage = TemporalDenoiseStage()
        stage.process(small_sequence.frame(0).astype(float))
        _, field = stage.process(np.zeros((64, 64)))
        assert field is None


class TestSteadyStateAllocation:
    def test_float_frames_allocate_under_one_byte_per_pixel(self):
        """Float frames (the RAW path's luma) reuse the stage's buffers too."""
        if resolve_kernel_backend("c") != "c":
            pytest.skip("the C kernels are not available")
        rng = np.random.default_rng(5)
        clean = np.kron(rng.uniform(40, 220, (12, 20)), np.ones((16, 16)))
        frames = [_noisy(clean, 4.0, seed) for seed in range(8)]
        stage = TemporalDenoiseStage(
            TemporalDenoiseConfig(block_matching=BlockMatchingConfig(kernel_backend="c"))
        )
        for frame in frames[:3]:
            stage.process(frame)
        worst = 0
        tracemalloc.start()
        try:
            for frame in frames[3:]:
                before, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                stage.process(frame)
                _, peak = tracemalloc.get_traced_memory()
                worst = max(worst, peak - before)
        finally:
            tracemalloc.stop()
        assert worst / clean.size < 1.0


class TestSRAMAccounting:
    def test_double_buffering_doubles_sram(self):
        single = TemporalDenoiseStage(TemporalDenoiseConfig(double_buffered_sram=False))
        double = TemporalDenoiseStage(TemporalDenoiseConfig(double_buffered_sram=True))
        assert double.sram_bytes(1920, 1080) == 2 * single.sram_bytes(1920, 1080)

    def test_1080p_sram_is_about_8kb_single_buffered(self):
        stage = TemporalDenoiseStage(TemporalDenoiseConfig(double_buffered_sram=False))
        size = stage.sram_bytes(1920, 1080)
        assert 14_000 <= size <= 18_000  # 8100 MVs + 8100 confidences

    def test_block_size_affects_sram(self):
        small_blocks = TemporalDenoiseStage(
            TemporalDenoiseConfig(block_matching=BlockMatchingConfig(block_size=8))
        )
        large_blocks = TemporalDenoiseStage(
            TemporalDenoiseConfig(block_matching=BlockMatchingConfig(block_size=32))
        )
        assert small_blocks.sram_bytes(640, 480) > large_blocks.sram_bytes(640, 480)
