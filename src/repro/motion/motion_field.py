"""Macroblock-granularity motion fields.

The ISP's temporal-denoising stage produces one motion vector and one SAD
value per macroblock.  Euphrates packs these into the frame-buffer metadata
(Sec. 4.2) and the motion controller consumes them for extrapolation
(Sec. 3.2).  :class:`MotionField` is the in-memory representation of that
metadata block; its :meth:`~MotionField.roi_statistics` (Eqs. 1-2) is the
numpy oracle of the compiled kernel the extrapolator calls under the ``c``
backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.geometry import BoundingBox, MotionVector


@dataclass(frozen=True)
class MacroblockGrid:
    """Geometry of the macroblock tiling of a frame."""

    frame_width: int
    frame_height: int
    block_size: int

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.frame_width <= 0 or self.frame_height <= 0:
            raise ValueError("frame dimensions must be positive")

    @property
    def cols(self) -> int:
        """Number of macroblock columns (partial blocks at the edge count)."""
        return math.ceil(self.frame_width / self.block_size)

    @property
    def rows(self) -> int:
        """Number of macroblock rows."""
        return math.ceil(self.frame_height / self.block_size)

    @property
    def num_blocks(self) -> int:
        return self.rows * self.cols

    def block_index_for_pixel(self, x: float, y: float) -> Tuple[int, int]:
        """Return the ``(row, col)`` of the macroblock containing a pixel.

        Out-of-frame coordinates are clamped to the nearest edge block so
        that extrapolated ROIs that drift slightly outside the frame still
        read valid motion data.
        """
        col = int(x // self.block_size)
        row = int(y // self.block_size)
        col = min(max(col, 0), self.cols - 1)
        row = min(max(row, 0), self.rows - 1)
        return row, col

    def blocks_overlapping(self, roi: BoundingBox) -> Tuple[slice, slice]:
        """Return (row_slice, col_slice) of macroblocks overlapping ``roi``."""
        clipped = roi.clip(self.frame_width, self.frame_height)
        if clipped.is_empty():
            # Fall back to the nearest block so callers always get data.
            row, col = self.block_index_for_pixel(roi.center.x, roi.center.y)
            return slice(row, row + 1), slice(col, col + 1)
        row0, col0 = self.block_index_for_pixel(clipped.left, clipped.top)
        # Subtract a tiny epsilon so an ROI edge exactly on a block boundary
        # does not pull in the next block.
        row1, col1 = self.block_index_for_pixel(
            max(clipped.right - 1e-6, clipped.left),
            max(clipped.bottom - 1e-6, clipped.top),
        )
        return slice(row0, row1 + 1), slice(col0, col1 + 1)


class MotionField:
    """Per-macroblock motion vectors and SAD values for one frame.

    Parameters
    ----------
    vectors:
        Array of shape ``(rows, cols, 2)`` holding the forward motion of each
        macroblock as ``(u, v)`` in pixels.
    sad:
        Array of shape ``(rows, cols)`` with the SAD of the best match found
        for each macroblock.
    grid:
        The macroblock tiling geometry.
    search_range:
        The ``d`` parameter of the block matcher that produced this field;
        used for motion-vector byte-encoding accounting.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        sad: np.ndarray,
        grid: MacroblockGrid,
        search_range: int = 7,
    ) -> None:
        vectors = np.asarray(vectors, dtype=np.float64)
        sad = np.asarray(sad, dtype=np.float64)
        if vectors.ndim != 3 or vectors.shape[2] != 2:
            raise ValueError(f"vectors must have shape (rows, cols, 2), got {vectors.shape}")
        if sad.shape != vectors.shape[:2]:
            raise ValueError(
                f"sad shape {sad.shape} does not match vectors grid {vectors.shape[:2]}"
            )
        if vectors.shape[0] != grid.rows or vectors.shape[1] != grid.cols:
            raise ValueError(
                f"vector grid {vectors.shape[:2]} does not match macroblock grid "
                f"({grid.rows}, {grid.cols})"
            )
        if np.any(sad < 0):
            raise ValueError("SAD values must be non-negative")
        self.vectors = vectors
        self.sad = sad
        self.grid = grid
        self.search_range = search_range
        # Lazily-computed full-grid confidence (the field is treated as
        # immutable once built; every producer constructs a fresh instance).
        self._confidence: "np.ndarray | None" = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, grid: MacroblockGrid, search_range: int = 7) -> "MotionField":
        """A field with no motion and perfect-match (zero) SAD everywhere."""
        vectors = np.zeros((grid.rows, grid.cols, 2), dtype=np.float64)
        sad = np.zeros((grid.rows, grid.cols), dtype=np.float64)
        return cls(vectors, sad, grid, search_range)

    @classmethod
    def uniform(
        cls,
        grid: MacroblockGrid,
        motion: MotionVector,
        sad_value: float = 0.0,
        search_range: int = 7,
    ) -> "MotionField":
        """A field where every macroblock moves by the same vector."""
        vectors = np.zeros((grid.rows, grid.cols, 2), dtype=np.float64)
        vectors[..., 0] = motion.u
        vectors[..., 1] = motion.v
        sad = np.full((grid.rows, grid.cols), float(sad_value), dtype=np.float64)
        return cls(vectors, sad, grid, search_range)

    # ------------------------------------------------------------------
    # Confidence (Eq. 2)
    # ------------------------------------------------------------------
    @property
    def max_sad(self) -> float:
        """Maximum possible SAD for this field's macroblock size."""
        return 255.0 * self.grid.block_size * self.grid.block_size

    def confidence(self) -> np.ndarray:
        """Per-macroblock confidence alpha = 1 - SAD / (255 * L^2) (Eq. 2).

        Memoized: the extrapolator queries several (sub-)ROIs against the
        same field each frame, and recomputing the full-grid alpha per query
        dominated the extrapolation cost.  Treat the returned array as
        read-only.
        """
        if self._confidence is None:
            alpha = 1.0 - self.sad / self.max_sad
            self._confidence = np.clip(alpha, 0.0, 1.0)
        return self._confidence

    # ------------------------------------------------------------------
    # ROI queries (used by the extrapolation algorithm)
    # ------------------------------------------------------------------
    def roi_statistics(self, roi: BoundingBox) -> Tuple[MotionVector, float]:
        """Average motion (Eq. 1) and confidence (Eq. 2) of the ROI.

        Every pixel inside the ROI inherits its macroblock's MV (Sec. 3.2),
        so both averages over pixels equal averages over macroblocks
        weighted by each macroblock's overlap area with the ROI; one weight
        pass serves both.  The extrapolator queries every sub-ROI against
        the same field, which the memoized :meth:`confidence` grid serves.

        This is the numpy oracle of the compiled ``euph_roi_stats``
        (:func:`repro.motion.ckernels.roi_stats`), which repeats every
        operation here in numpy's order, its pairwise sums included: a
        change here must be made there too.
        """
        weights, rows, cols = self._roi_weights(roi)
        total = weights.sum()
        if total <= 0.0:
            return MotionVector(0.0, 0.0), 0.0
        block_vectors = self.vectors[rows, cols]
        u = float((block_vectors[..., 0] * weights).sum() / total)
        v = float((block_vectors[..., 1] * weights).sum() / total)
        alpha = self.confidence()[rows, cols]
        confidence = float((alpha * weights).sum() / total)
        return MotionVector(u, v), confidence

    def _roi_weights(self, roi: BoundingBox) -> Tuple[np.ndarray, slice, slice]:
        """Overlap areas between ``roi`` and each macroblock it touches.

        The per-block intersection areas have the closed form
        ``max(0, min(rights) - max(lefts)) * max(0, min(bottoms) - max(tops))``
        which is evaluated for all touched blocks with two 1-D clip
        expressions and an outer product — no Python loop over blocks.
        """
        rows, cols = self.grid.blocks_overlapping(roi)
        clipped = roi.clip(self.grid.frame_width, self.grid.frame_height)
        if clipped.is_empty():
            clipped = roi
        block = float(self.grid.block_size)
        row_starts = np.arange(rows.start, rows.stop, dtype=np.float64) * block
        col_starts = np.arange(cols.start, cols.stop, dtype=np.float64) * block
        row_ends = np.minimum(row_starts + block, float(self.grid.frame_height))
        col_ends = np.minimum(col_starts + block, float(self.grid.frame_width))
        overlap_h = np.clip(
            np.minimum(row_ends, clipped.bottom) - np.maximum(row_starts, clipped.top),
            0.0,
            None,
        )
        overlap_w = np.clip(
            np.minimum(col_ends, clipped.right) - np.maximum(col_starts, clipped.left),
            0.0,
            None,
        )
        weights = overlap_w[None, :] * overlap_h[:, None]
        if weights.sum() <= 0.0:
            weights[:] = 1.0
        return weights, rows, cols

    # ------------------------------------------------------------------
    # Storage accounting (Sec. 4.2)
    # ------------------------------------------------------------------
    def bits_per_vector(self) -> int:
        """Bits needed to encode one MV component pair.

        Each direction needs ``ceil(log2(2d + 1))`` bits (Sec. 2.3); both
        directions together round up to whole bytes in the frame buffer.
        """
        per_direction = math.ceil(math.log2(2 * self.search_range + 1))
        return 2 * per_direction

    def metadata_bytes(self) -> int:
        """Total bytes the MV + SAD metadata occupies in the frame buffer.

        Motion vectors are packed at one byte per direction pair when the
        search range allows it (the paper's d = 7 case), and each SAD/
        confidence value is stored as one additional byte.
        """
        mv_bytes_per_block = max(1, math.ceil(self.bits_per_vector() / 8))
        confidence_bytes_per_block = 1
        return self.grid.num_blocks * (mv_bytes_per_block + confidence_bytes_per_block)

    # ------------------------------------------------------------------
    # Statistics helpers
    # ------------------------------------------------------------------
    def mean_motion(self) -> MotionVector:
        """Unweighted mean motion over the whole frame."""
        u = float(self.vectors[..., 0].mean())
        v = float(self.vectors[..., 1].mean())
        return MotionVector(u, v)

    def max_magnitude(self) -> float:
        """Largest MV magnitude in the field."""
        mags = np.hypot(self.vectors[..., 0], self.vectors[..., 1])
        return float(mags.max()) if mags.size else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MotionField(rows={self.grid.rows}, cols={self.grid.cols}, "
            f"block={self.grid.block_size}, mean={self.mean_motion()})"
        )
