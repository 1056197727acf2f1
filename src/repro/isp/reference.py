"""Scalar reference implementations of the ISP stage kernels.

The test oracle for :mod:`repro.isp.kernels`, mirroring the role
:mod:`repro.motion.reference` plays for the SAD kernels: every function here
walks pixels and macroblocks in plain Python loops, stating the stage
semantics in the most obvious possible form.  The vectorized numpy kernels
and the compiled C blend (:mod:`repro.motion.ckernels`) are property-tested
bit-identical to these — exactly, via ``np.array_equal``, not almost-equal —
so any divergence is a bug in the fast path, never a tolerance question.

Nothing here is called on the frame path; these functions exist for tests,
the pipeline bench's same-run speedup ratio, and documentation.
"""

from __future__ import annotations

import numpy as np

from ..motion.motion_field import MotionField


def reference_motion_compensated_blend(
    current: np.ndarray,
    previous: np.ndarray,
    field: MotionField,
    *,
    blend_strength: float,
    max_normalised_sad: float,
) -> np.ndarray:
    """Per-macroblock motion-compensated temporal blend, one block at a time.

    Each macroblock whose match is good enough (normalised SAD under the
    threshold, motion-compensated source fully inside the frame) is blended
    with its source patch in the previous denoised frame; everything else
    passes through.  Partial blocks at a ragged frame edge blend their
    actual extent.
    """
    block = field.grid.block_size
    height, width = current.shape
    blended = current.copy()
    strength = blend_strength
    max_sad = field.max_sad * max_normalised_sad

    for row in range(field.grid.rows):
        for col in range(field.grid.cols):
            if field.sad[row, col] > max_sad:
                continue
            y0 = row * block
            x0 = col * block
            y1 = min(y0 + block, height)
            x1 = min(x0 + block, width)
            u, v = field.vectors[row, col]
            src_y0 = int(round(y0 - v))
            src_x0 = int(round(x0 - u))
            src_y1 = src_y0 + (y1 - y0)
            src_x1 = src_x0 + (x1 - x0)
            if src_y0 < 0 or src_x0 < 0 or src_y1 > height or src_x1 > width:
                continue
            reference = previous[src_y0:src_y1, src_x0:src_x1]
            blended[y0:y1, x0:x1] = (
                (1.0 - strength) * current[y0:y1, x0:x1] + strength * reference
            )
    return blended


def reference_box_sum_3x3(image: np.ndarray) -> np.ndarray:
    """3x3 box sum with reflected borders via nine shifted adds.

    The accumulation order (``dy`` major, ``dx`` minor) is part of the
    contract: for fractional float inputs the fast path must add neighbours
    in this order to stay bit-identical.
    """
    padded = np.pad(image, 1, mode="reflect")
    height, width = image.shape
    total = np.zeros_like(image, dtype=np.float64)
    for dy in range(3):
        for dx in range(3):
            total += padded[dy : dy + height, dx : dx + width]
    return total


def reference_bilinear_demosaic(
    bayer: np.ndarray, channel_map: np.ndarray
) -> np.ndarray:
    """Mask-based bilinear demosaic: per-channel 3x3 neighbour averaging.

    At every pixel, each colour channel is either the sensed value (where
    the CFA has that channel) or the mean of the 3x3 neighbours that do.
    """
    height, width = bayer.shape
    rgb = np.zeros((height, width, 3), dtype=np.float64)
    for channel in range(3):
        mask = (channel_map == channel).astype(np.float64)
        values = bayer * mask
        summed = reference_box_sum_3x3(values)
        counts = reference_box_sum_3x3(mask)
        with np.errstate(invalid="ignore", divide="ignore"):
            interpolated = np.where(
                counts > 0, summed / np.maximum(counts, 1e-9), 0.0
            )
        rgb[..., channel] = np.where(mask > 0, bayer, interpolated)
    return np.clip(rgb, 0.0, 255.0)


__all__ = [
    "reference_bilinear_demosaic",
    "reference_box_sum_3x3",
    "reference_motion_compensated_blend",
]
