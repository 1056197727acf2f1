"""Temporal-denoising ISP stage (the stage that produces motion vectors).

The paper assumes (Sec. 4.2) that the ISP's temporal-denoise (TD) stage runs
block-matching motion estimation against the previous frame and then uses the
resulting motion vectors for motion-compensated denoising.  Euphrates' only
frontend change is to *keep* those motion vectors and write them to the
frame-buffer metadata instead of recycling the SRAM that holds them.

This module implements the functional behaviour of that stage: the motion
estimation (delegated to :mod:`repro.motion`), the motion-compensated
temporal blend (delegated to :mod:`repro.isp.kernels`, which dispatches on
the configured ``kernel_backend``), and the double-buffered SRAM accounting
used to take the MV write-back traffic off the ISP's critical path.

Block matching runs on 8-bit luma, like the real ISP whose frame buffer
stores 8-bit pixels: a uint8 capture is matched as it arrives, and the
stage's matching reference is the one place where any other frame (the RAW
path's fixed-point or float luma, the float blend output) is rounded to
8 bits.  The blend itself stays in float.

The stage keeps the frame path allocation-free: the widened float frame,
the blend output and the matching references all live in per-stage scratch
buffers reused across frames.  The blend output and the matching reference
each ping-pong between two buffers — the caller receives the blend buffer
that is *not* the previous frame's output, and must copy it before
retaining it beyond the next ``process()`` call (the ISP pipeline always
commits a quantized copy).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..motion.block_matching import BlockMatcher, BlockMatchingConfig
from ..motion.kernels import KernelScratch, resolve_kernel_backend
from ..motion.motion_field import MotionField
from . import kernels


@dataclass(frozen=True)
class TemporalDenoiseConfig:
    """Configuration of the temporal-denoise stage."""

    block_matching: BlockMatchingConfig = BlockMatchingConfig()
    #: Blend weight given to the motion-compensated previous frame.  Higher
    #: values denoise more aggressively but risk ghosting.
    blend_strength: float = 0.5
    #: Blocks whose normalised SAD exceeds this threshold are considered a bad
    #: match and are not blended (prevents ghosting on occlusions).
    max_normalised_sad: float = 0.15
    #: Whether the stage's local SRAM is double buffered so MV write-back can
    #: overlap with the rest of the pipeline (Sec. 4.2).
    double_buffered_sram: bool = True


class TemporalDenoiseStage:
    """Motion-estimating, motion-compensating temporal denoiser.

    Block matching runs on 8-bit luma (see the module docstring); the
    denoising blend itself stays in float.
    """

    ops_per_pixel = 4.0

    def __init__(self, config: TemporalDenoiseConfig | None = None) -> None:
        self.config = config or TemporalDenoiseConfig()
        self._matcher = BlockMatcher(self.config.block_matching)
        #: Resolved kernel backend for the blend (graceful numpy fallback,
        #: same resolution rule as the SAD kernels).
        self.kernel_backend = resolve_kernel_backend(
            self.config.block_matching.kernel_backend
        )
        self._previous_denoised: Optional[np.ndarray] = None
        self._previous_reference: Optional[np.ndarray] = None
        #: Motion field computed for the most recent frame.
        self.last_motion_field: Optional[MotionField] = None
        #: Arithmetic operations spent on motion estimation for the last frame.
        self.last_motion_ops = 0
        #: Wall-clock seconds of the last frame's motion estimation / blend
        #: (the stage-profiler feed).
        self.last_motion_s = 0.0
        self.last_blend_s = 0.0
        #: True while every frame of the stream so far arrived as uint8:
        #: the blend output is then a convex combination of values in
        #: ``[0, 255]``, so downstream saturation passes (the matching
        #: reference's clip, the commit quantizer's clip) are exact no-ops
        #: and can be skipped.  Any non-uint8 frame clears the flag until
        #: the reference restarts (a frame of a new size).
        self.output_in_unit8_range = False
        # Scratch buffers, (re)allocated on the first frame of each shape.
        self._scratch_shape: Optional[Tuple[int, int]] = None
        self._blend_buffers: List[np.ndarray] = []
        self._current_f64: Optional[np.ndarray] = None
        self._float_scratch: Optional[np.ndarray] = None
        self._reference_buffers: List[np.ndarray] = []
        # Gather-staging pool for the numpy blend kernel (reused every frame).
        self._blend_scratch = KernelScratch()

    @property
    def name(self) -> str:
        return type(self).__name__

    # ------------------------------------------------------------------
    # Scratch buffers
    # ------------------------------------------------------------------
    def _ensure_scratch(self, shape: Tuple[int, int]) -> None:
        if self._scratch_shape == shape:
            return
        self._scratch_shape = shape
        self._blend_buffers = [
            np.empty(shape, dtype=np.float64),
            np.empty(shape, dtype=np.float64),
        ]
        self._current_f64 = np.empty(shape, dtype=np.float64)
        self._float_scratch = np.empty(shape, dtype=np.float64)
        self._reference_buffers = [
            np.empty(shape, dtype=np.uint8),
            np.empty(shape, dtype=np.uint8),
        ]

    @staticmethod
    def _other(buffers: List[np.ndarray], held: Optional[np.ndarray]) -> np.ndarray:
        """The ping-pong buffer of ``buffers`` that is not ``held``."""
        return buffers[1] if held is buffers[0] else buffers[0]

    # ------------------------------------------------------------------
    # Matching domain
    # ------------------------------------------------------------------
    def _matching_reference(self, frame: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The 8-bit representation of ``frame`` handed to the block matcher.

        A uint8 frame already *is* its 8-bit representation
        (``clip(rint(float64(x))) == x`` exactly), so it is returned as it
        is.  Any other frame is rounded, clipped and narrowed into the uint8
        buffer ``out``; the ``copyto(casting="unsafe")`` is the same
        C-truncation ``astype`` performs, applied to already-rounded,
        already-clipped values.
        """
        if frame.dtype == np.uint8:
            return frame
        np.rint(frame, out=self._float_scratch)
        if not self.output_in_unit8_range:
            # Rounded in-range values are already in [0, 255]; the clip
            # pass only matters when some frame arrived as raw float.
            np.clip(self._float_scratch, 0.0, 255.0, out=self._float_scratch)
        np.copyto(out, self._float_scratch, casting="unsafe")
        return out

    def process(self, luma: np.ndarray, **context) -> Tuple[np.ndarray, Optional[MotionField]]:
        """Denoise ``luma`` and return ``(denoised, motion_field)``.

        The first frame of a stream has no reference, so it passes through
        unchanged with no motion field.  Float frames are widened to float64
        here, exactly once, for the blend; uint8 frames are handed to the
        blend kernel as-is (its reads widen exactly) and block matching sees
        the unconverted integer pixels.
        """
        raw = np.asarray(luma)
        is_first = (
            self._previous_denoised is None
            or self._previous_denoised.shape != raw.shape
        )
        self.output_in_unit8_range = raw.dtype == np.uint8 and (
            is_first or self.output_in_unit8_range
        )
        self._ensure_scratch(raw.shape)
        if raw.dtype == np.uint8:
            # The blend kernel reads ``current`` straight into float64
            # destinations (exact uint8 widening), so an 8-bit capture
            # skips the full-frame float64 copy entirely — the biggest
            # single memory pass of the steady-state blend stage.
            current = raw
        else:
            current = self._current_f64
            np.copyto(current, raw)
        out = self._other(self._blend_buffers, self._previous_denoised)
        # The previous reference is dead once the field is estimated, so the
        # current frame's reference and the next one share a buffer.
        reference = self._other(self._reference_buffers, self._previous_reference)
        if is_first:
            self.last_motion_field = None
            self.last_motion_ops = 0
            self.last_motion_s = 0.0
            self.last_blend_s = 0.0
            np.copyto(out, current)
            self._previous_denoised = out
            self._previous_reference = self._matching_reference(out, reference)
            return out, None

        start = time.perf_counter()
        field = self._matcher.estimate(
            self._matching_reference(current, reference), self._previous_reference
        )
        self.last_motion_s = time.perf_counter() - start
        self.last_motion_field = field
        self.last_motion_ops = self._matcher.last_operation_count

        start = time.perf_counter()
        denoised = self._motion_compensated_blend(
            current, self._previous_denoised, field, out
        )
        self.last_blend_s = time.perf_counter() - start
        self._previous_denoised = denoised
        self._previous_reference = self._matching_reference(denoised, reference)
        return denoised, field

    # ------------------------------------------------------------------
    # Motion compensation
    # ------------------------------------------------------------------
    def _motion_compensated_blend(
        self,
        current: np.ndarray,
        previous: np.ndarray,
        field: MotionField,
        out: np.ndarray,
    ) -> np.ndarray:
        """Blend each macroblock with its motion-compensated predecessor
        into ``out``.

        Dispatches to :func:`repro.isp.kernels.motion_compensated_blend` on
        the resolved backend; bit-identical to
        :func:`repro.isp.reference.reference_motion_compensated_blend`.
        """
        return kernels.motion_compensated_blend(
            current,
            previous,
            field,
            blend_strength=self.config.blend_strength,
            max_normalised_sad=self.config.max_normalised_sad,
            out=out,
            backend=self.kernel_backend,
            scratch=self._blend_scratch,
        )

    # ------------------------------------------------------------------
    # SRAM accounting (Sec. 4.2)
    # ------------------------------------------------------------------
    def sram_bytes(self, frame_width: int, frame_height: int) -> int:
        """Local SRAM needed to hold the motion vectors for one frame.

        With double buffering (the Euphrates augmentation) this doubles so
        that DMA write-back of the previous frame's MVs can overlap with the
        current frame's motion estimation.
        """
        grid_rows = -(-frame_height // self.config.block_matching.block_size)
        grid_cols = -(-frame_width // self.config.block_matching.block_size)
        bytes_single = grid_rows * grid_cols * 2  # 1 byte MV + 1 byte confidence
        if self.config.double_buffered_sram:
            return 2 * bytes_single
        return bytes_single
