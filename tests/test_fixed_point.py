"""Tests for the fixed-point frame representation and its kernel fast path.

The acceptance property of the fixed-point work: float-valued luma produced
by the ISP's quantized stages always lies on a power-of-two lattice, so
block matching rides the exact integer SAD kernel end to end — the float64
gather path is reserved for genuinely fractional frames fed in from
outside.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.isp.framebuffer import DEFAULT_FRAME_FORMAT, FixedPointFormat
from repro.isp.pipeline import ISPConfig, ISPPipeline
from repro.isp.sensor import CameraSensor
from repro.isp.stages import GammaCorrection, WhiteBalance, rgb_to_luma
from repro.motion.kernels import SadKernel, fixed_point_scale


class TestFixedPointFormat:
    def test_q84_lattice_round_trip(self):
        fmt = FixedPointFormat(int_bits=8, frac_bits=4)
        assert fmt.scale == 16
        assert fmt.max_value == pytest.approx(255.9375)
        values = np.array([0.0, 0.03, 100.07, 255.9, 300.0, -3.0])
        quantized = fmt.quantize(values)
        # Quantizing is idempotent and saturating.
        assert np.array_equal(fmt.quantize(quantized), quantized)
        assert quantized.min() >= 0.0
        assert quantized.max() <= fmt.max_value
        # Every value is an exact multiple of the lattice step.
        assert np.array_equal(quantized * fmt.scale, np.rint(quantized * fmt.scale))

    def test_raw_codes_pack_and_unpack(self):
        fmt = DEFAULT_FRAME_FORMAT
        assert fmt.storage_dtype == np.uint16  # 12-bit codes
        values = np.array([0.0, 1.5, 255.9375])
        raw = fmt.to_raw(values)
        assert raw.dtype == np.uint16
        assert np.array_equal(fmt.from_raw(raw), values)

    def test_invalid_formats_rejected(self):
        with pytest.raises(ValueError):
            FixedPointFormat(int_bits=0)
        with pytest.raises(ValueError):
            FixedPointFormat(frac_bits=-1)


class TestKernelScaleDetection:
    def test_integer_frames_scale_one(self):
        frame = np.zeros((8, 8), dtype=np.uint8)
        assert fixed_point_scale(frame, frame) == 1

    def test_q84_lattice_detected(self):
        frame = np.arange(64, dtype=np.float64).reshape(8, 8) / 16.0
        assert fixed_point_scale(frame) == 16

    def test_fine_lattice_detected_at_8_bits(self):
        frame = np.full((8, 8), 1.0 / 256.0)
        assert fixed_point_scale(frame) == 256

    def test_fractional_frames_rejected(self):
        assert fixed_point_scale(np.full((8, 8), 1.0 / 3.0)) is None

    def test_mixed_lattice_and_integer_frames(self):
        lattice = np.full((8, 8), 2.5)
        integers = np.zeros((8, 8))
        assert fixed_point_scale(lattice, integers) == 16

    def test_mixed_lattice_and_integer_dtype_frames(self):
        """uint8 frames lie on every lattice — the pair must stay exact."""
        lattice = np.full((8, 8), 2.5)
        integers = np.zeros((8, 8), dtype=np.uint8)
        assert fixed_point_scale(lattice, integers) == 16
        kernel = SadKernel(lattice, integers, 8, 2)
        assert kernel.exact_integer and kernel.scale == 16

    def test_huge_integer_dtype_frames_rejected(self):
        lattice = np.full((8, 8), 2.5)
        huge = np.full((8, 8), 2**30, dtype=np.int64)
        assert fixed_point_scale(lattice, huge) is None

    def test_kernel_sad_matches_float_mode_on_lattice(self):
        rng = np.random.default_rng(0)
        current = np.round(rng.uniform(0, 255, (32, 32)) * 16) / 16
        previous = np.round(rng.uniform(0, 255, (32, 32)) * 16) / 16
        fast = SadKernel(current, previous, 16, 4)
        slow = SadKernel(current, previous, 16, 4, exact_integer=False)
        assert fast.exact_integer and fast.scale == 16
        dy = rng.integers(-4, 5, (2, 2))
        dx = rng.integers(-4, 5, (2, 2))
        assert np.array_equal(fast.sad_per_block(dy, dx), slow.sad_per_block(dy, dx))


class TestQuantizedStages:
    def test_stage_outputs_lie_on_lattice(self):
        fmt = DEFAULT_FRAME_FORMAT
        rng = np.random.default_rng(1)
        rgb = rng.uniform(0, 255, (16, 16, 3))
        for stage in (WhiteBalance(output_format=fmt), GammaCorrection(0.8, output_format=fmt)):
            out = stage.process(rgb)
            assert np.array_equal(out, fmt.quantize(out))
        luma = rgb_to_luma(rgb, output_format=fmt)
        assert np.array_equal(luma, fmt.quantize(luma))

    def test_no_format_keeps_float_output(self):
        rng = np.random.default_rng(2)
        rgb = rng.uniform(0, 255, (16, 16, 3))
        luma = rgb_to_luma(rgb)
        assert not np.array_equal(luma, DEFAULT_FRAME_FORMAT.quantize(luma))


class TestPipelineRidesIntegerKernel:
    def test_raw_path_motion_estimation_is_exact_integer(self):
        rng = np.random.default_rng(5)
        sensor = CameraSensor(seed=1)
        isp = ISPPipeline()
        scene = rng.uniform(0, 255, (64, 96))
        isp.process(sensor.capture(scene, 0))
        result = isp.process(sensor.capture(scene, 1))
        assert result.motion_field is not None
        assert isp.denoise_stage._matcher.last_kernel_exact
        entry = isp.frame_buffer.latest()
        assert entry.pixel_format == DEFAULT_FRAME_FORMAT
        fmt = entry.pixel_format
        assert np.array_equal(entry.pixels, fmt.quantize(entry.pixels))

    def test_luma_path_quantizes_committed_frames(self):
        rng = np.random.default_rng(6)
        isp = ISPPipeline()
        isp.process_luma(rng.uniform(0, 255, (64, 96)), 0)
        isp.process_luma(rng.uniform(0, 255, (64, 96)), 1)
        entry = isp.frame_buffer.latest()
        fmt = entry.pixel_format
        assert fmt == DEFAULT_FRAME_FORMAT
        assert np.array_equal(entry.pixels, fmt.quantize(entry.pixels))
        assert isp.denoise_stage._matcher.last_kernel_exact

    def test_format_none_restores_legacy_datapath(self):
        rng = np.random.default_rng(7)
        isp = ISPPipeline(ISPConfig(frame_format=None))
        frame = rng.uniform(0, 255, (64, 96))
        result = isp.process_luma(frame, 0)
        assert isp.frame_buffer.latest().pixel_format is None
        assert np.array_equal(result.luma, frame)
