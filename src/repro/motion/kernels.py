"""Shared per-offset SAD kernels for the block-matching strategies.

Both search strategies reduce to the same primitive: "evaluate the SAD of
every macroblock against the previous frame displaced by some offset".
Exhaustive search evaluates one *global* offset per candidate; three-step
search evaluates a *per-block* offset per candidate (each block carries its
own search center).  :class:`SadKernel` serves both, processing the whole
macroblock grid with a handful of NumPy dispatches per candidate instead of
a Python loop over macroblocks.

The kernel works on 8-bit luma, the frames the ISP's temporal-denoise
stage matches (:class:`~repro.isp.denoise.TemporalDenoiseStage` rounds
every other frame to 8 bits first).  Every SAD is then an integer far
below 2**53, so float64 results are exact whatever the summation order:
the kernel computes uint8 absolute differences, reduces them in int32 or
through exact float32 GEMVs, and uniform offsets use whole-frame shifted
differences.  Results are bit-identical to the scalar float64 reference
(:mod:`repro.motion.reference`) by exactness.

On top of the two full-grid primitives the kernel exposes the pruning
primitives that make the exhaustive search cheap:
:meth:`sad_subset` evaluates one offset for a *subset* of macroblocks, and
:meth:`lower_bound_uniform` computes the partial-sum (triangle-inequality)
SAD lower bound ``|sum(block) - sum(reference patch)| <= SAD`` for every
macroblock from O(1) summed-area-table lookups.  The lower bound is computed
in exact integer arithmetic, so pruning on it can never discard a candidate
an unpruned scan would have accepted.

This module is the ``numpy`` kernel backend, the oracle of the compiled
``c`` backend (:mod:`repro.motion.ckernels`), which serves uint8 frames in
one C call per search and returns the same fields bit for bit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import ckernels

#: Most *distinct* per-block displacements :meth:`SadKernel.sad_per_block`
#: serves with grouped whole-frame passes before falling back to the gather
#: kernel.  Each group costs one shifted-difference pass over the frame, so
#: past a few groups the gather's single pass (plus its indexing overhead)
#: wins again.
_GROUPED_OFFSET_LIMIT = 3

#: Kernel backends selectable through ``PipelineSpec(kernel_backend=...)``.
#: ``numpy`` is the oracle the compiled backend is property-tested against;
#: ``c`` (the default) runs uint8 motion search, the denoise blend and the
#: extrapolator's ROI statistics in the compiled kernels of
#: :mod:`repro.motion.ckernels`.
KERNEL_BACKENDS = ("numpy", "c")

#: The one default of ``PipelineSpec`` and ``BlockMatchingConfig``.
DEFAULT_KERNEL_BACKEND = "c"


def resolve_kernel_backend(backend: str) -> str:
    """Validate ``backend`` and degrade ``c`` to ``numpy`` when unavailable.

    This is the single graceful-degradation point: configuration layers
    accept ``"c"`` everywhere, and the stages resolve it when they are
    built, which is when the first call compiles the kernels.  Where no
    compiler or library is available it returns ``"numpy"``, after one
    warning naming the reason, and the same spec runs bit-identically.
    """
    if backend not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend '{backend}' (expected one of {KERNEL_BACKENDS})"
        )
    if backend == "c" and ckernels.load() is None:
        return "numpy"
    return backend


class KernelScratch:
    """Reusable buffer pool shared by successive :class:`SadKernel` instances.

    A kernel is built per frame pair, but its scratch buffers (difference
    images, float32 reduction staging) depend only on the frame geometry and
    working dtype — reallocating ~16 MB of them every frame costs more in
    page faults than the SAD arithmetic they stage.  A long-lived owner (the
    :class:`~repro.motion.block_matching.BlockMatcher`) passes one pool to
    every kernel it builds; buffers are handed back by name and reallocated
    only when the geometry or dtype changes.

    Buffers hold no state between uses (every consumer overwrites before
    reading), but a pool must not be shared by two kernels evaluated
    *interleaved* — sequential per-frame use only.
    """

    def __init__(self) -> None:
        self._buffers: dict = {}

    def get(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        buffer = self._buffers.get(name)
        if (
            buffer is None
            or buffer.shape != tuple(shape)
            or buffer.dtype != np.dtype(dtype)
        ):
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[name] = buffer
        return buffer


def _edge_pad_pooled(
    frame: np.ndarray, pad: int, pool: KernelScratch
) -> np.ndarray:
    """``np.pad(frame, pad, mode="edge")`` into a pooled buffer.

    Replicates the border pixels exactly like ``mode="edge"`` (corner cells
    fall out of padding the columns after the rows), but writes into a
    reusable buffer instead of allocating a fresh padded frame per call.
    """
    if pad == 0:
        return frame
    height, width = frame.shape
    padded = pool.get(
        "padded_frame", (height + 2 * pad, width + 2 * pad), frame.dtype
    )
    padded[pad : pad + height, pad : pad + width] = frame
    padded[:pad, pad : pad + width] = frame[:1, :]
    padded[pad + height :, pad : pad + width] = frame[-1:, :]
    padded[:, :pad] = padded[:, pad : pad + 1]
    padded[:, pad + width :] = padded[:, pad + width - 1 : pad + width]
    return padded


class SadKernel:
    """Per-offset SAD evaluation over a whole macroblock grid.

    Parameters
    ----------
    current, previous:
        2-D uint8 luma frames whose dimensions are already multiples of
        ``block_size`` (the :class:`~repro.motion.block_matching.BlockMatcher`
        edge-pads before constructing the kernel).
    block_size:
        Macroblock edge length ``L``.
    search_range:
        Search distance ``d``; offsets passed to the SAD methods must
        satisfy ``|offset| <= d``.
    """

    def __init__(
        self,
        current: np.ndarray,
        previous: np.ndarray,
        block_size: int,
        search_range: int,
        scratch: Optional[KernelScratch] = None,
    ) -> None:
        if current.dtype != np.uint8 or previous.dtype != np.uint8:
            raise ValueError(
                f"SAD kernel expects uint8 frames, got {current.dtype} and {previous.dtype}"
            )
        if current.shape != previous.shape:
            raise ValueError(
                f"frame shapes differ: {current.shape} vs {previous.shape}"
            )
        height, width = current.shape
        if height % block_size or width % block_size:
            raise ValueError(
                f"kernel frames must be multiples of the block size, got "
                f"{current.shape} for block {block_size}"
            )
        self.block_size = block_size
        self.search_range = search_range
        self.rows = height // block_size
        self.cols = width // block_size
        self.frame_height = height
        self.frame_width = width

        pool = scratch if scratch is not None else KernelScratch()
        self._current = np.ascontiguousarray(current)
        self._padded = _edge_pad_pooled(previous, search_range, pool)
        # int32 sums cannot overflow for uint8 diffs with L <= 2896 and
        # are measurably faster than int64 on the hot path.
        if 255 * block_size * block_size < 2**31:
            self._accum_dtype = np.int32
        else:
            self._accum_dtype = np.int64
        # Whole-frame uniform SADs reduce via float32 GEMV when every
        # possible block SAD stays below 2**24 (L <= 256): float32 then
        # represents every partial sum exactly (all terms are non-negative
        # bounded integers), so the BLAS reduction is bit-equal to the
        # integer sum while running ~3x faster than a strided integer
        # reduction.
        self._f32_reduction_exact = 255 * block_size * block_size < 2**24
        self._ones_f32 = np.ones(block_size, dtype=np.float32)
        # Scratch reused across the ~25 SAD evaluations a search makes
        # with one kernel (and, via a caller-supplied pool, across the
        # kernels of successive frames): fresh 2 MB allocations per
        # candidate cost more in page faults than the arithmetic itself.
        self._frame_diff = pool.get("frame_diff", (height, width), np.uint8)
        self._frame_diff2 = pool.get("frame_diff2", (height, width), np.uint8)
        self._frame_f32 = (
            pool.get("frame_f32", (height, width), np.float32)
            if self._f32_reduction_exact
            else None
        )
        block_shape = (self.rows, self.cols, block_size * block_size)
        self._block_diff = pool.get("block_diff", block_shape, np.uint8)
        self._block_diff2 = pool.get("block_diff2", block_shape, np.uint8)

        # (rows, cols, L, L) contiguous copy of the current frame's blocks,
        # staged in the pool so successive frames reuse the same pages.
        self._current_blocks = pool.get(
            "current_blocks",
            (self.rows, self.cols, block_size, block_size),
            np.uint8,
        )
        np.copyto(
            self._current_blocks,
            self._current.reshape(self.rows, block_size, self.cols, block_size)
            .transpose(0, 2, 1, 3),
        )
        # windows[y, x] is the (L, L) patch of the padded previous frame with
        # top-left (y, x); block (r, c) at offset (dy, dx) reads
        # windows[d + r*L + dy, d + c*L + dx].
        self._windows = sliding_window_view(self._padded, (block_size, block_size))
        self._base_y = search_range + np.arange(self.rows)[:, None] * block_size
        self._base_x = search_range + np.arange(self.cols)[None, :] * block_size
        # Lazily-built partial-sum pruning tables.
        self._block_sums: Optional[np.ndarray] = None
        self._window_sums: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Public SAD primitives
    # ------------------------------------------------------------------
    def sad_uniform(self, dy: int, dx: int) -> np.ndarray:
        """SAD of every macroblock at one global displacement ``(dy, dx)``.

        The exhaustive-search primitive: a whole-frame shifted difference
        instead of the ``(rows, cols, L, L)`` fancy-index gather.  The
        shifted reference is a *view* of the padded frame, so this touches
        each pixel once at uint8.  Integer sums are exact in any order, so
        every reduction below is bit-identical to the gather kernel (and to
        the scalar reference).  Returns a ``(rows, cols)`` float64 array.
        """
        d = self.search_range
        L = self.block_size
        shifted = self._padded[
            d + dy : d + dy + self.frame_height, d + dx : d + dx + self.frame_width
        ]
        # |a - b| for uint8 via max/min.
        np.maximum(self._current, shifted, out=self._frame_diff)
        np.minimum(self._current, shifted, out=self._frame_diff2)
        if self._f32_reduction_exact:
            # The final subtract emits float32 directly (the ufunc upcasts
            # both uint8 operands to float32, where differences <= 255 are
            # exact), fusing away a separate widening pass.  Then two exact
            # float32 GEMVs: columns within each block row of pixels, then
            # the L pixel rows of each block.
            np.subtract(self._frame_diff, self._frame_diff2, out=self._frame_f32)
            partial = self._frame_f32.reshape(-1, L) @ self._ones_f32
            partial = partial.reshape(self.frame_height, self.cols)
            sad = partial.reshape(self.rows, L, self.cols).transpose(0, 2, 1) @ (
                self._ones_f32
            )
            return sad.astype(np.float64)
        diff = np.subtract(self._frame_diff, self._frame_diff2, out=self._frame_diff)
        sad = diff.reshape(self.rows, L, self.cols, L).sum(
            axis=(1, 3), dtype=self._accum_dtype
        )
        return sad.astype(np.float64)

    def sad_per_block(self, dy, dx) -> np.ndarray:
        """SAD of every macroblock at per-block displacements.

        The three-step-search primitive: ``dy``/``dx`` are scalars or
        ``(rows, cols)`` integer arrays.  Bit-identical to the scalar
        reference loops.  Returns ``(rows, cols)`` float64.
        """
        grouped = self._grouped_sad(dy, dx)
        if grouped is not None:
            return grouped
        return self._gathered_sad(dy, dx)

    def sad_subset(self, dy: int, dx: int, rows_idx, cols_idx) -> np.ndarray:
        """SAD at one global displacement for a subset of macroblocks.

        ``rows_idx``/``cols_idx`` are matching 1-D index arrays (as produced
        by ``np.nonzero`` on a block mask).  Returns a ``(k,)`` float64
        array, bit-identical per block to the full-grid primitives.
        """
        ys = self._base_y[rows_idx, 0] + dy
        xs = self._base_x[0, cols_idx] + dx
        references = self._windows[ys, xs]
        blocks = self._current_blocks[rows_idx, cols_idx]
        diff = np.subtract(
            np.maximum(blocks, references), np.minimum(blocks, references)
        )
        sad = diff.reshape(diff.shape[0], -1).sum(axis=-1, dtype=self._accum_dtype)
        return sad.astype(np.float64)

    # ------------------------------------------------------------------
    # Partial-sum lower bound
    # ------------------------------------------------------------------
    def _ensure_prune_tables(self) -> None:
        if self._block_sums is not None:
            return
        self._block_sums = self._current_blocks.reshape(self.rows, self.cols, -1).sum(
            axis=-1, dtype=np.int64
        )
        # Summed-area table of the padded previous frame: the sum of the
        # (L, L) window with top-left (y, x) is a 4-corner lookup, giving
        # window sums aligned with self._windows' leading dimensions.
        padded = np.asarray(self._padded, dtype=np.int64)
        sat = np.zeros(
            (padded.shape[0] + 1, padded.shape[1] + 1), dtype=np.int64
        )
        np.cumsum(np.cumsum(padded, axis=0), axis=1, out=sat[1:, 1:])
        size = self.block_size
        self._window_sums = (
            sat[size:, size:] - sat[size:, :-size] - sat[:-size, size:] + sat[:-size, :-size]
        )

    def lower_bound_uniform(self, dy: int, dx: int) -> np.ndarray:
        """Partial-sum SAD lower bound for every macroblock at one offset.

        ``|sum(block) - sum(reference)| <= SAD(block, reference)`` holds
        exactly in integer arithmetic, so a block whose bound is already no
        better than its best SAD cannot strictly improve and may be skipped.
        Returns a ``(rows, cols)`` float64 array.
        """
        self._ensure_prune_tables()
        references = self._window_sums[self._base_y + dy, self._base_x + dx]
        return np.abs(self._block_sums - references).astype(np.float64)

    # ------------------------------------------------------------------
    # Per-block kernels
    # ------------------------------------------------------------------
    def _grouped_sad(self, dy, dx) -> Optional[np.ndarray]:
        """Per-block SADs via whole-frame passes grouped by unique offset.

        Three-step search starts every block at the same center, so early
        candidate evaluations carry only a handful of *distinct* per-block
        displacements.  Each distinct offset is then served by one uniform
        whole-frame shifted-difference pass (:meth:`sad_uniform`) and
        masked into place — far cheaper than the fancy-index gather, and
        bit-identical by integer exactness.  Returns ``None`` when the
        offsets are too diverse for grouping to pay off (the gather kernel
        handles those).
        """
        dy_arr = np.asarray(dy)
        dx_arr = np.asarray(dx)
        if dy_arr.ndim == 0 and dx_arr.ndim == 0:
            return self.sad_uniform(int(dy_arr), int(dx_arr))
        shape = (self.rows, self.cols)
        span = 2 * self.search_range + 1
        keys = (
            np.broadcast_to(dy_arr, shape).astype(np.int64) + self.search_range
        ) * span + (
            np.broadcast_to(dx_arr, shape).astype(np.int64) + self.search_range
        )
        unique_keys = np.unique(keys)
        if unique_keys.size > _GROUPED_OFFSET_LIMIT:
            return None
        out = np.empty(shape, dtype=np.float64)
        for key in unique_keys:
            offset_dy = int(key) // span - self.search_range
            offset_dx = int(key) % span - self.search_range
            mask = keys == key
            out[mask] = self.sad_uniform(offset_dy, offset_dx)[mask]
        return out

    def _gathered_sad(self, dy, dx) -> np.ndarray:
        references = self._windows[self._base_y + dy, self._base_x + dx]
        # Flatten each block's (L, L) patch to L*L before the element-wise
        # ops: both operands are C-contiguous, so the flat view hands the
        # ufunc inner loop L*L contiguous elements instead of L, amortising
        # its per-row setup (~3x on 16x16 blocks).  Identical values —
        # element-wise ops don't care about the shape.
        flat_refs = references.reshape(references.shape[0], references.shape[1], -1)
        flat_blocks = self._current_blocks.reshape(self.rows, self.cols, -1)
        diff = self._block_diff
        np.maximum(flat_blocks, flat_refs, out=diff)
        np.minimum(flat_blocks, flat_refs, out=self._block_diff2)
        np.subtract(diff, self._block_diff2, out=diff)
        return diff.sum(axis=-1, dtype=self._accum_dtype).astype(np.float64)
