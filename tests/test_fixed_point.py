"""Tests for the fixed-point frame representation of the ISP datapath.

The frame format (Q8.4 by default, Q8.8, or unquantized float) decides the
lattice every stage output and committed frame lies on.  It does not decide
what block matching sees: the temporal-denoise stage rounds its matching
reference to 8-bit luma under every format, so every format runs the same
uint8 motion search on either kernel backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import tracking_backend_for
from repro.core.spec import PipelineSpec
from repro.core.types import FrameKind
from repro.isp.framebuffer import DEFAULT_FRAME_FORMAT, FixedPointFormat
from repro.isp.pipeline import ISPConfig, ISPPipeline
from repro.isp.sensor import CameraSensor
from repro.isp.stages import GammaCorrection, WhiteBalance, rgb_to_luma
from repro.video.datasets import build_otb_like_dataset


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

    def test_format_none_restores_legacy_datapath(self):
        rng = np.random.default_rng(7)
        isp = ISPPipeline(ISPConfig(frame_format=None))
        frame = rng.uniform(0, 255, (64, 96))
        result = isp.process_luma(frame, 0)
        assert isp.frame_buffer.latest().pixel_format is None
        assert np.array_equal(result.luma, frame)


class TestEveryFormatMatchesEightBitLuma:
    """Q8.8 and float frames reach the matcher as 8-bit luma, like Q8.4."""

    @pytest.mark.parametrize("frame_format", ["q8.8", "float"])
    def test_sequence_extrapolates_identically_on_both_backends(self, frame_format):
        (sequence,) = build_otb_like_dataset(
            num_sequences=1, frames_per_sequence=6
        ).sequences

        def run(backend):
            spec = PipelineSpec(frame_format=frame_format, kernel_backend=backend)
            result = spec.build(tracking_backend_for("mdnet")).run(sequence)
            return (
                [(frame.kind, frame.boxes()) for frame in result.frames],
                [event.motion_ops for event in result.telemetry],
            )

        frames, motion_ops = run("c")
        assert any(kind is FrameKind.EXTRAPOLATION for kind, _boxes in frames)
        assert all(ops > 0 for ops in motion_ops[1:])
        assert (frames, motion_ops) == run("numpy")

    def test_float_raw_path_estimates_motion(self):
        rng = np.random.default_rng(8)
        sensor = CameraSensor(seed=2)
        isp = ISPPipeline(ISPConfig(frame_format=None))
        scene = rng.uniform(0, 255, (64, 96))
        assert isp.process(sensor.capture(scene, 0)).motion_field is None
        result = isp.process(sensor.capture(scene, 1))
        assert result.motion_field is not None
        assert result.luma.dtype == np.float64
