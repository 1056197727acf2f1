"""Shared per-offset SAD kernels for the block-matching strategies.

Both search strategies reduce to the same primitive: "evaluate the SAD of
every macroblock against the previous frame displaced by some offset".
Exhaustive search evaluates one *global* offset per candidate; three-step
search evaluates a *per-block* offset per candidate (each block carries its
own search center).  :class:`SadKernel` serves both, processing the whole
macroblock grid with a handful of NumPy dispatches per candidate instead of
a Python loop over macroblocks.

Two execution modes, picked automatically per frame pair:

* **Exact-integer mode** — when both frames hold only integer values (the
  realistic case: luma planes are 8-bit in a real ISP), every SAD is an
  integer small enough that float64 arithmetic on it is exact regardless of
  summation order.  The kernel therefore runs in narrow integer dtypes
  (uint8 absolute differences, int64 accumulation), which cuts memory
  traffic ~8x versus float64 and lets uniform offsets use cheap whole-frame
  shifted differences.  Results are bit-identical to the scalar float64
  reference by exactness.

  The mode also covers **fixed-point frames**: float frames whose values all
  lie on a power-of-two lattice (e.g. the Q8.4 frames the quantized ISP
  stages emit, multiples of 1/16) are scaled up to integers, matched with
  integer arithmetic, and the SADs divided back down.  Because every
  per-block partial sum is a bounded multiple of the lattice step, float64
  represents it exactly whatever the summation order, so the result is again
  bit-identical to the scalar float64 reference.
* **Float mode** — for general float frames, per-block SADs are computed by
  gathering ``(L, L)`` reference patches from a strided sliding-window view
  and reducing each block's C-contiguous absolute-difference patch over its
  trailing ``L*L`` elements — the same operation sequence, and therefore the
  same IEEE rounding, as the scalar reference loop
  (:mod:`repro.motion.reference`).  Bit-identical, at float64 bandwidth.

On top of the two full-grid primitives the kernel exposes the pruning
primitives that make the pruned/histogram exhaustive-search policies cheap:
:meth:`sad_subset` evaluates one offset for a *subset* of macroblocks, and
:meth:`lower_bound_uniform` computes the partial-sum (triangle-inequality)
SAD lower bound ``|sum(block) - sum(reference patch)| <= SAD`` for every
macroblock from O(1) summed-area-table lookups.  The lower bound is computed
in exact integer arithmetic, so pruning on it can never discard a candidate
the full scan would have accepted.

This module is the ``numpy`` kernel backend, the oracle of the compiled
``c`` backend (:mod:`repro.motion.ckernels`), which serves uint8 frames in
one C call per search and returns the same fields bit for bit.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import ckernels

#: Largest absolute frame value for which the exact-integer mode is used;
#: guarantees every SAD stays far below 2**53 so float64 sums are exact.
_MAX_EXACT_INT = 2**20

#: Most *distinct* per-block displacements :meth:`SadKernel.sad_per_block`
#: serves with grouped whole-frame passes before falling back to the gather
#: kernel.  Each group costs one shifted-difference pass over the frame, so
#: past a few groups the gather's single pass (plus its indexing overhead)
#: wins again.
_GROUPED_OFFSET_LIMIT = 3

#: Kernel backends selectable through ``PipelineSpec(kernel_backend=...)``.
#: ``numpy`` is the oracle the compiled backend is property-tested against;
#: ``c`` (the default) runs uint8 motion search and the denoise blend in
#: the compiled kernels of :mod:`repro.motion.ckernels`.
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

#: Fractional-bit counts probed by :func:`fixed_point_scale` for float frames
#: that are not integer-valued.  4 matches the ISP's Q8.4 frame format; 8
#: covers finer lattices (any coarser lattice is also exact at 8 bits).
_FRAC_BITS_CANDIDATES = (4, 8)


def _bounded_integer_valued(frame: np.ndarray) -> bool:
    """True when a float frame holds only bounded integer values."""
    if frame.size == 0:
        return True
    low = float(frame.min())
    high = float(frame.max())
    if low < -_MAX_EXACT_INT or high > _MAX_EXACT_INT or not np.isfinite([low, high]).all():
        return False
    return bool((frame == np.floor(frame)).all())


def frames_are_integer(*frames: np.ndarray) -> bool:
    """True when every frame holds only integer values of bounded magnitude.

    Integer dtypes qualify immediately; float frames are value-checked.
    """
    for frame in frames:
        if np.issubdtype(frame.dtype, np.integer):
            if frame.dtype.itemsize > 2:
                if frame.size and (
                    int(frame.min()) < -_MAX_EXACT_INT or int(frame.max()) > _MAX_EXACT_INT
                ):
                    return False
            continue
        if not np.issubdtype(frame.dtype, np.floating):
            return False
        if not _bounded_integer_valued(frame):
            return False
    return True


def fixed_point_scale(*frames: np.ndarray) -> Optional[int]:
    """Smallest power-of-two scale that makes every frame integer-valued.

    Returns ``1`` for plain integer(-valued) frames, ``2**f`` when every
    float frame lies on the ``2**-f`` fixed-point lattice for one of the
    probed fractional-bit counts (:data:`_FRAC_BITS_CANDIDATES`), and
    ``None`` when the frames are genuinely fractional — the float-mode
    fallback.  Scaling by the returned factor keeps every value within
    ``_MAX_EXACT_INT * 2**f``, far below the float64 exactness limit.
    """
    if frames_are_integer(*frames):
        return 1
    float_frames = []
    for frame in frames:
        if np.issubdtype(frame.dtype, np.integer):
            # Integer frames lie on every lattice; only the magnitude bound
            # (which scaling tightens by at most 2**8) needs checking.
            if frame.dtype.itemsize > 2 and frame.size and (
                int(frame.min()) < -_MAX_EXACT_INT or int(frame.max()) > _MAX_EXACT_INT
            ):
                return None
            continue
        if not np.issubdtype(frame.dtype, np.floating):
            return None
        float_frames.append(frame)
    for frac_bits in _FRAC_BITS_CANDIDATES:
        scale = 1 << frac_bits
        if all(_bounded_integer_valued(frame * scale) for frame in float_frames):
            return scale
    return None


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
        2-D luma frames whose dimensions are already multiples of
        ``block_size`` (the :class:`~repro.motion.block_matching.BlockMatcher`
        edge-pads before constructing the kernel).  Integer dtypes (or
        integer-valued / fixed-point-lattice float frames) select the
        exact-integer mode.
    block_size:
        Macroblock edge length ``L``.
    search_range:
        Search distance ``d``; offsets passed to the SAD methods must
        satisfy ``|offset| <= d``.
    exact_integer:
        Force or forbid the exact-integer mode; ``None`` (default) detects
        it (including the fixed-point scale) from the frame contents.
        Forcing ``True`` asserts the frames are integer-valued as-is
        (scale 1).
    """

    def __init__(
        self,
        current: np.ndarray,
        previous: np.ndarray,
        block_size: int,
        search_range: int,
        exact_integer: bool | None = None,
        scratch: Optional[KernelScratch] = None,
    ) -> None:
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
        #: Power-of-two factor the frames were scaled by before integer
        #: matching; 1 for plain integer frames, >1 for fixed-point lattices.
        self.scale = 1
        if exact_integer is None:
            scale = fixed_point_scale(current, previous)
            exact_integer = scale is not None
            self.scale = scale if scale is not None else 1
        self.exact_integer = exact_integer

        pool = scratch if scratch is not None else KernelScratch()
        if self.exact_integer:
            if self.scale != 1:
                # Lattice values times a power of two are exact integers in
                # float64; rint only normalises the float representation.
                current = np.rint(np.asarray(current, dtype=np.float64) * self.scale)
                previous = np.rint(np.asarray(previous, dtype=np.float64) * self.scale)
            work = self._integer_dtype(current, previous)
            self._current = np.ascontiguousarray(current, dtype=work)
            self._padded = _edge_pad_pooled(
                np.asarray(previous, dtype=work), search_range, pool
            )
            # int32 sums cannot overflow for uint8 diffs with L <= 2896 and
            # are measurably faster than int64 on the hot path.
            if work == np.uint8 and 255 * block_size * block_size < 2**31:
                self._accum_dtype = np.int32
            else:
                self._accum_dtype = np.int64
            # Whole-frame uniform SADs reduce via float32 GEMV when every
            # possible block SAD stays below 2**24: float32 then represents
            # every partial sum exactly (all terms are non-negative bounded
            # integers), so the BLAS reduction is bit-equal to the integer
            # sum while running ~3x faster than a strided integer reduction.
            if work == np.uint8:
                max_diff = 255.0
            elif self._current.size:
                lo = min(float(self._current.min()), float(self._padded.min()))
                hi = max(float(self._current.max()), float(self._padded.max()))
                max_diff = hi - lo
            else:
                max_diff = 0.0
            self._f32_reduction_exact = (
                max_diff * block_size * block_size < float(2**24)
            )
            self._ones_f32 = np.ones(block_size, dtype=np.float32)
            # Scratch reused across the ~25 SAD evaluations a search makes
            # with one kernel (and, via a caller-supplied pool, across the
            # kernels of successive frames): fresh 2 MB allocations per
            # candidate cost more in page faults than the arithmetic itself.
            self._frame_diff = pool.get("frame_diff", (height, width), work)
            self._frame_diff2 = pool.get("frame_diff2", (height, width), work)
            self._frame_f32 = (
                pool.get("frame_f32", (height, width), np.float32)
                if self._f32_reduction_exact
                else None
            )
            block_shape = (self.rows, self.cols, block_size * block_size)
            self._block_diff = pool.get("block_diff", block_shape, work)
            self._block_diff2 = pool.get("block_diff2", block_shape, work)
        else:
            self._current = np.ascontiguousarray(current, dtype=np.float64)
            self._padded = _edge_pad_pooled(
                np.asarray(previous, dtype=np.float64), search_range, pool
            )

        # (rows, cols, L, L) contiguous copy of the current frame's blocks,
        # staged in the pool so successive frames reuse the same pages.
        self._current_blocks = pool.get(
            "current_blocks",
            (self.rows, self.cols, block_size, block_size),
            self._current.dtype,
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
        # Lazily-built partial-sum pruning tables (exact-integer mode only).
        self._block_sums: Optional[np.ndarray] = None
        self._window_sums: Optional[np.ndarray] = None

    @staticmethod
    def _integer_dtype(current: np.ndarray, previous: np.ndarray) -> np.dtype:
        """Narrowest working dtype whose difference cannot overflow."""
        lows = []
        highs = []
        for frame in (current, previous):
            if frame.dtype == np.uint8:
                lows.append(0.0)
                highs.append(255.0)
            elif frame.size:
                lows.append(float(frame.min()))
                highs.append(float(frame.max()))
        low = min(lows) if lows else 0.0
        high = max(highs) if highs else 0.0
        if low >= 0.0 and high <= 255.0:
            return np.dtype(np.uint8)
        return np.dtype(np.int32)

    def _descale(self, sad: np.ndarray) -> np.ndarray:
        """Integer SAD back to frame units (exact: scale is a power of two)."""
        out = sad.astype(np.float64)
        if self.scale != 1:
            out /= self.scale
        return out

    # ------------------------------------------------------------------
    # Public SAD primitives
    # ------------------------------------------------------------------
    def sad_uniform(self, dy: int, dx: int) -> np.ndarray:
        """SAD of every macroblock at one global displacement ``(dy, dx)``.

        The exhaustive-search primitive.  In float mode this uses a
        whole-frame shifted difference, whose per-block reduction order can
        differ from the scalar per-block loops by float rounding; in
        exact-integer mode it shares the gather kernel (exact either way).
        Returns a ``(rows, cols)`` float64 array.
        """
        if self.exact_integer:
            # Whole-frame shifted difference instead of the (rows, cols, L, L)
            # fancy-index gather: the shifted reference is a *view* of the
            # padded frame, so this touches each pixel once at the narrow
            # working dtype.  Integer sums are exact in any order, so every
            # reduction below is bit-identical to the gather kernel (and to
            # the scalar reference) by exactness.
            d = self.search_range
            L = self.block_size
            shifted = self._padded[
                d + dy : d + dy + self.frame_height, d + dx : d + dx + self.frame_width
            ]
            if self._current.dtype == np.uint8 and self._f32_reduction_exact:
                # |a - b| for uint8 via max/min, with the final subtract
                # emitting float32 directly (the ufunc upcasts both uint8
                # operands to float32, where differences <= 255 are exact) —
                # this fuses away the separate widening pass the GEMV input
                # would otherwise need.
                np.maximum(self._current, shifted, out=self._frame_diff)
                np.minimum(self._current, shifted, out=self._frame_diff2)
                np.subtract(
                    self._frame_diff, self._frame_diff2, out=self._frame_f32
                )
                partial = self._frame_f32.reshape(-1, L) @ self._ones_f32
                partial = partial.reshape(self.frame_height, self.cols)
                sad = partial.reshape(self.rows, L, self.cols).transpose(0, 2, 1) @ (
                    self._ones_f32
                )
                return self._descale(sad.astype(np.int64))
            diff = self._frame_diff
            if self._current.dtype == np.uint8:
                np.maximum(self._current, shifted, out=diff)
                np.minimum(self._current, shifted, out=self._frame_diff2)
                np.subtract(diff, self._frame_diff2, out=diff)
            else:
                np.subtract(self._current, shifted, out=diff)
                np.abs(diff, out=diff)
            if self._f32_reduction_exact:
                # Two exact float32 GEMVs: columns within each block row of
                # pixels, then the L pixel rows of each block.
                np.copyto(self._frame_f32, diff, casting="unsafe")
                partial = self._frame_f32.reshape(-1, L) @ self._ones_f32
                partial = partial.reshape(self.frame_height, self.cols)
                sad = partial.reshape(self.rows, L, self.cols).transpose(0, 2, 1) @ (
                    self._ones_f32
                )
                return self._descale(sad.astype(np.int64))
            sad = diff.reshape(self.rows, L, self.cols, L).sum(
                axis=(1, 3), dtype=self._accum_dtype
            )
            return self._descale(sad)
        d = self.search_range
        shifted = self._padded[
            d + dy : d + dy + self.frame_height, d + dx : d + dx + self.frame_width
        ]
        diff = np.abs(self._current - shifted)
        return diff.reshape(self.rows, self.block_size, self.cols, self.block_size).sum(
            axis=(1, 3)
        )

    def sad_per_block(self, dy, dx) -> np.ndarray:
        """SAD of every macroblock at per-block displacements.

        The three-step-search primitive: ``dy``/``dx`` are scalars or
        ``(rows, cols)`` integer arrays.  Bit-identical to the scalar
        reference loops in both modes.  Returns ``(rows, cols)`` float64.
        """
        if self.exact_integer:
            grouped = self._grouped_sad_int(dy, dx)
            if grouped is not None:
                return grouped
            return self._gathered_sad_int(dy, dx)
        references = self._windows[self._base_y + dy, self._base_x + dx]
        # The ufunc output is C-contiguous, so the trailing-axes reduction
        # runs over each block's L*L contiguous elements — the same pairwise
        # order as the scalar reference's contiguous per-block sums.
        return np.abs(self._current_blocks - references).sum(axis=(2, 3))

    def sad_subset(self, dy: int, dx: int, rows_idx, cols_idx) -> np.ndarray:
        """SAD at one global displacement for a subset of macroblocks.

        ``rows_idx``/``cols_idx`` are matching 1-D index arrays (as produced
        by ``np.nonzero`` on a block mask).  Returns a ``(k,)`` float64
        array, bit-identical per block to the full-grid primitives: both
        modes gather C-contiguous ``(L, L)`` patches and reduce over the
        trailing axes, the same pairwise order as the scalar reference.
        """
        ys = self._base_y[rows_idx, 0] + dy
        xs = self._base_x[0, cols_idx] + dx
        references = self._windows[ys, xs]
        blocks = self._current_blocks[rows_idx, cols_idx]
        if not self.exact_integer:
            return np.abs(blocks - references).sum(axis=(1, 2))
        if blocks.dtype == np.uint8:
            diff = np.subtract(
                np.maximum(blocks, references), np.minimum(blocks, references)
            )
        else:
            diff = np.abs(blocks - references)
        sad = diff.reshape(diff.shape[0], -1).sum(axis=-1, dtype=self._accum_dtype)
        return self._descale(sad)

    # ------------------------------------------------------------------
    # Partial-sum lower bound (exact-integer mode only)
    # ------------------------------------------------------------------
    @property
    def supports_lower_bound(self) -> bool:
        """Whether :meth:`lower_bound_uniform` is available.

        Only the exact-integer mode qualifies: the triangle inequality
        ``|sum(a) - sum(b)| <= sum(|a - b|)`` is computed in exact integer
        arithmetic there, so pruning on it is provably lossless.  In float
        mode the bound's rounding could exceed the rounded SAD, which would
        break bit-identity.
        """
        return self.exact_integer

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
        Returns a ``(rows, cols)`` float64 array in frame units.
        """
        if not self.exact_integer:
            raise RuntimeError("partial-sum lower bound requires the exact-integer mode")
        self._ensure_prune_tables()
        references = self._window_sums[self._base_y + dy, self._base_x + dx]
        return self._descale(np.abs(self._block_sums - references))

    # ------------------------------------------------------------------
    # Candidate ordering
    # ------------------------------------------------------------------
    def histogram_order(self, offsets: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Visit order for the histogram search policy.

        Scores every candidate offset with the *global* partial-sum SAD
        histogram — ``sum over blocks of |sum(block) - sum(reference)|``, an
        O(1)-per-block whole-frame lower bound from the summed-area tables —
        and returns the candidate indices sorted by ascending score (spiral
        rank breaks score ties, and the rank-0 ``(0, 0)`` candidate is
        always visited first as the seed).  Visiting globally promising
        displacements early tightens every block's best SAD sooner, so the
        per-block pruning rules skip more work than the fixed spiral does on
        panning scenes whose true motion sits far from the window centre.

        Requires the exact-integer mode (the tables the scores come from).
        The returned indices double as the candidates' spiral ranks, which
        is what makes out-of-spiral-order scanning bit-identical: updates
        break SAD ties on the smaller spiral rank, so the winner is the
        (SAD, spiral-rank) lexicographic minimum regardless of visit order.
        """
        if not self.exact_integer:
            raise RuntimeError("histogram ordering requires the exact-integer mode")
        self._ensure_prune_tables()
        dys = np.ascontiguousarray([o[0] for o in offsets], dtype=np.int64)
        dxs = np.ascontiguousarray([o[1] for o in offsets], dtype=np.int64)
        scores = np.empty(len(offsets), dtype=np.int64)
        for index in range(len(offsets)):
            references = self._window_sums[
                self._base_y + dys[index], self._base_x + dxs[index]
            ]
            scores[index] = np.abs(self._block_sums - references).sum()
        # lexsort: last key is primary — ascending score, spiral rank on ties.
        order = np.lexsort((np.arange(len(offsets)), scores))
        return np.concatenate(([0], order[order != 0])).astype(np.int64)

    # ------------------------------------------------------------------
    # Exact-integer gather kernel
    # ------------------------------------------------------------------
    def _grouped_sad_int(self, dy, dx) -> Optional[np.ndarray]:
        """Per-block SADs via whole-frame passes grouped by unique offset.

        Three-step search starts every block at the same center, so early
        candidate evaluations carry only a handful of *distinct* per-block
        displacements.  Each distinct offset is then served by one uniform
        whole-frame shifted-difference pass (:meth:`sad_uniform`'s fast
        path) and masked into place — far cheaper than the fancy-index
        gather, and bit-identical by integer exactness.  Returns ``None``
        when the offsets are too diverse for grouping to pay off (the
        gather kernel handles those).
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

    def _gathered_sad_int(self, dy, dx) -> np.ndarray:
        references = self._windows[self._base_y + dy, self._base_x + dx]
        # Flatten each block's (L, L) patch to L*L before the element-wise
        # ops: both operands are C-contiguous, so the flat view hands the
        # ufunc inner loop L*L contiguous elements instead of L, amortising
        # its per-row setup (~3x on 16x16 blocks).  Identical values —
        # element-wise ops don't care about the shape.
        flat_refs = references.reshape(references.shape[0], references.shape[1], -1)
        flat_blocks = self._current_blocks.reshape(
            self.rows, self.cols, -1
        )
        diff = self._block_diff
        if flat_blocks.dtype == np.uint8:
            np.maximum(flat_blocks, flat_refs, out=diff)
            np.minimum(flat_blocks, flat_refs, out=self._block_diff2)
            np.subtract(diff, self._block_diff2, out=diff)
        else:
            np.subtract(flat_blocks, flat_refs, out=diff)
            np.abs(diff, out=diff)
        sad = diff.sum(axis=-1, dtype=self._accum_dtype)
        return self._descale(sad)
