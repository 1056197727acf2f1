"""The ISP pipeline: RAW in, frame-buffer entries (pixels + MV metadata) out.

The pipeline chains the Bayer-domain and RGB-domain stages of Fig. 2, runs
the temporal-denoise stage that produces motion vectors, and commits the
result into the DRAM frame buffer.  When the Euphrates augmentation is
enabled (``expose_motion_vectors=True``) the motion vectors are written into
the frame-buffer metadata; otherwise they are discarded after denoising,
matching a conventional ISP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..motion.block_matching import BlockMatchingConfig
from ..motion.motion_field import MotionField
from .denoise import TemporalDenoiseConfig, TemporalDenoiseStage
from .framebuffer import (
    DEFAULT_FRAME_FORMAT,
    FixedPointFormat,
    FrameBuffer,
    FrameBufferEntry,
)
from .sensor import RawFrame
from .stages import (
    DeadPixelCorrection,
    Demosaic,
    GammaCorrection,
    ISPStage,
    WhiteBalance,
    rgb_to_luma,
)


@dataclass(frozen=True)
class ISPConfig:
    """Configuration of the modeled ISP."""

    #: Euphrates augmentation: write MVs to the frame-buffer metadata.
    expose_motion_vectors: bool = True
    block_matching: BlockMatchingConfig = BlockMatchingConfig()
    #: ISP clock in Hz (Table 1: 768 MHz).
    clock_hz: float = 768e6
    #: Measured ISP power at 1080p60 (Sec. 5.1), in watts.
    active_power_w: float = 0.153
    #: Extra power fraction attributed to motion estimation (Sec. 5.1: the
    #: paper conservatively adds 2.5%).
    motion_estimation_power_overhead: float = 0.025
    gamma: float = 1.0
    #: Fixed-point datapath format: every stage output (and the committed
    #: frame) is quantized onto this lattice.  ``None`` restores the
    #: unquantized float64 datapath.  Either way block matching sees the
    #: denoise stage's 8-bit rounding of the frame.
    frame_format: Optional[FixedPointFormat] = DEFAULT_FRAME_FORMAT

    @property
    def total_power_w(self) -> float:
        """ISP power including the motion-estimation overhead."""
        return self.active_power_w * (1.0 + self.motion_estimation_power_overhead)


class ProcessedFrame:
    """Output of the ISP for one frame.

    ``rgb`` is the RGB image of a RAW capture (:meth:`ISPPipeline.process`);
    frames that enter in the luma domain have none.
    """

    def __init__(
        self,
        frame_index: int,
        luma: np.ndarray,
        motion_field: Optional[MotionField],
        total_ops: float,
        motion_ops: float,
    ) -> None:
        self.frame_index = frame_index
        self.luma = luma
        self.motion_field = motion_field
        #: Total arithmetic operations spent by the ISP on this frame.
        self.total_ops = total_ops
        #: Operations spent on motion estimation alone.
        self.motion_ops = motion_ops
        self.rgb: Optional[np.ndarray] = None


class ISPPipeline:
    """Functional + accounting model of the mobile ISP."""

    def __init__(
        self,
        config: ISPConfig | None = None,
        frame_buffer: FrameBuffer | None = None,
    ) -> None:
        self.config = config or ISPConfig()
        self.frame_buffer = frame_buffer or FrameBuffer()
        frame_format = self.config.frame_format
        self.bayer_stages: List[ISPStage] = [
            DeadPixelCorrection(output_format=frame_format),
            Demosaic(output_format=frame_format),
        ]
        self.rgb_stages: List[ISPStage] = [
            WhiteBalance(output_format=frame_format),
            GammaCorrection(self.config.gamma, output_format=frame_format),
        ]
        # The pipeline always commits a quantized (or copied) frame, so the
        # denoise stage can safely recycle its output buffers across frames.
        self.denoise_stage = TemporalDenoiseStage(
            TemporalDenoiseConfig(block_matching=self.config.block_matching)
        )
        #: Number of frames processed since construction.
        self.frames_processed = 0
        # Ring of committed-frame buffers (depth + 1 so a buffer is only
        # recycled after its FrameBufferEntry has been evicted).  Committed
        # pixels are therefore valid for as long as the entry is resident in
        # the frame buffer; consumers that need a frame for longer copy it.
        self._committed_ring: List[np.ndarray] = []
        self._committed_index = 0

    def _next_committed_buffer(self, shape) -> np.ndarray:
        """The next float64 commit buffer from the reuse ring."""
        size = self.frame_buffer.depth + 1
        if len(self._committed_ring) != size or self._committed_ring[0].shape != shape:
            self._committed_ring = [
                np.empty(shape, dtype=np.float64) for _ in range(size)
            ]
            self._committed_index = 0
        buffer = self._committed_ring[self._committed_index % size]
        self._committed_index += 1
        return buffer

    # ------------------------------------------------------------------
    # Frame path
    # ------------------------------------------------------------------
    def process(self, raw: RawFrame) -> ProcessedFrame:
        """Run the Bayer and RGB stages on one RAW capture and commit its luma.

        The luma plane goes through :meth:`process_luma`, so it lives in the
        same commit ring: it stays valid while its frame-buffer entry is
        resident.  The result also carries the RGB image.
        """
        image: np.ndarray = raw.bayer
        context = {"channel_map": raw.channel_map}
        for stage in self.bayer_stages + self.rgb_stages:
            image = stage.process(image, **context)
        processed = self.process_luma(
            rgb_to_luma(image, output_format=self.config.frame_format),
            raw.frame_index,
        )
        processed.rgb = image
        return processed

    def process_luma(self, luma: np.ndarray, frame_index: int) -> ProcessedFrame:
        """Denoise a luma frame, commit it to the frame buffer and return it.

        Frames enter here directly when the Bayer/RGB stages can be skipped
        (their effect on the luma plane is nearly identity for synthetic
        scenes); the stages' operations are still counted, so the SoC-level
        accounting is that of the full path.  uint8 frames are passed
        through unconverted: the temporal-denoise stage matches them as
        they are and widens them only inside the blend.

        The committed pixels live in a ring of ``depth + 1`` buffers, valid
        while the frame's entry is resident in the frame buffer; consumers
        that need a frame for longer copy it.
        """
        luma = np.asarray(luma)
        pixel_count = float(luma.size)
        total_ops = sum(s.ops_per_pixel for s in self.bayer_stages + self.rgb_stages)
        total_ops = total_ops * pixel_count + 2.0 * pixel_count

        committed = self._next_committed_buffer(luma.shape)
        denoised, motion_field = self.denoise_stage.process(luma)
        motion_ops = float(self.denoise_stage.last_motion_ops)
        total_ops += motion_ops + self.denoise_stage.ops_per_pixel * pixel_count
        if self.config.frame_format is not None:
            # The DRAM store is fixed-point: the committed frame lies on the
            # datapath lattice like every other stage output.  Quantizes
            # into the commit ring: the denoise output is scratch the stage
            # will recycle.  When the stream is all-uint8 the denoise output
            # provably fits the format's range, so the quantizer's
            # saturation pass is skipped (an exact no-op).
            self.config.frame_format.quantize(
                denoised,
                out=committed,
                assume_in_range=(
                    self.denoise_stage.output_in_unit8_range
                    and self.config.frame_format.max_value >= 255.0
                ),
            )
        else:
            np.copyto(committed, denoised)

        exposed_field = motion_field if self.config.expose_motion_vectors else None
        entry = FrameBufferEntry(
            frame_index=frame_index,
            pixels=committed,
            motion_field=exposed_field,
            pixel_format=self.config.frame_format,
        )
        self.frame_buffer.push(entry)
        self.frames_processed += 1

        return ProcessedFrame(
            frame_index=frame_index,
            luma=committed,
            motion_field=exposed_field,
            total_ops=total_ops,
            motion_ops=motion_ops,
        )
