"""Block-matching motion estimation (Sec. 2.3).

Two search strategies are provided:

* **Exhaustive search (ES)** — evaluates every candidate displacement inside
  the ``(2d + 1) x (2d + 1)`` search window.  Most accurate, costs
  ``L^2 * (2d + 1)^2`` arithmetic operations per macroblock.
* **Three-step search (TSS)** — the classic logarithmic search of Koga et
  al., which evaluates nine candidates per step while halving the step size.
  Costs ``L^2 * (1 + 8 * log2(d + 1))`` operations per macroblock, an ~8/9
  reduction at ``d = 7``.

Both strategies are fully vectorized: every candidate displacement is
evaluated for the whole macroblock grid at once through the shared
:class:`~repro.motion.kernels.SadKernel`, so a search step costs a handful
of NumPy dispatches regardless of frame size.  The original per-macroblock
Python loops live on in :mod:`repro.motion.reference` as the bit-identical
correctness oracle.

Exhaustive search additionally supports three **search policies**, all of
which return bit-identical motion fields (same argmin, same SAD — the
pruning rules only ever skip candidates that provably cannot *strictly*
improve a block's best SAD, which is exactly the full scan's update rule):

* ``FULL`` — evaluate every block at every offset, in nearest-to-zero
  spiral order; the original scan.
* ``PRUNED`` — the same spiral order, but skip blocks whose best SAD
  already hit 0 (SAD is non-negative, so no candidate can strictly beat a
  perfect match), stop outright once every block is perfect, and evaluate
  a block at an offset only when the triangle-inequality bound
  ``|sum(block) - sum(reference)|`` is still below its best SAD.  The bound
  costs O(1) per block per offset from summed-area tables, versus ``L^2``
  for the SAD it avoids, and is exact in integer arithmetic.
* ``HISTOGRAM`` — ``PRUNED`` with candidates visited in global-SAD-score
  order (see :class:`SearchPolicy`).

Both strategies run on 8-bit luma, the frames the ISP's temporal-denoise
stage holds (:class:`~repro.isp.denoise.TemporalDenoiseStage` rounds any
other frame to 8 bits before matching), and :meth:`BlockMatcher.estimate`
refuses any other input.  They return a
:class:`~repro.motion.motion_field.MotionField` holding forward motion
vectors (previous frame -> current frame) and the SAD of the best match,
which later feeds the confidence filter of Eq. 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple

import numpy as np

from . import ckernels
from .kernels import (
    DEFAULT_KERNEL_BACKEND,
    KERNEL_BACKENDS,
    KernelScratch,
    SadKernel,
    resolve_kernel_backend,
)
from .motion_field import MacroblockGrid, MotionField


class SearchStrategy(Enum):
    """Block-matching search strategy."""

    EXHAUSTIVE = "exhaustive"
    THREE_STEP = "three_step"


class SearchPolicy(Enum):
    """Candidate-scan policy of the exhaustive search (result-identical)."""

    FULL = "full"
    PRUNED = "pruned"
    #: Pruned scan that visits candidates ranked by a *global SAD histogram*
    #: (ascending whole-frame partial-sum score) instead of the fixed
    #: spiral.  SAD ties break on spiral rank, so the motion field stays
    #: bit-identical to the full scan; visiting globally promising offsets
    #: first tightens every block's best SAD early, which makes the pruning
    #: rules skip more candidates on panning scenes whose true motion sits
    #: far from the window centre.
    HISTOGRAM = "histogram"


@dataclass(frozen=True)
class SearchStats:
    """Work accounting for one exhaustive-search invocation.

    ``candidates_total`` is what the full scan would evaluate
    (``num_blocks * (2d+1)^2``); ``candidates_evaluated`` is what the active
    policy actually computed SADs for.  ``lower_bound_checks`` counts the
    O(1) partial-sum bound evaluations the pruned policy spent to avoid the
    skipped SADs, and ``offsets_skipped`` counts candidate offsets for which
    no block needed evaluation at all.
    """

    candidates_total: int
    candidates_evaluated: int
    lower_bound_checks: int = 0
    offsets_skipped: int = 0

    @property
    def evaluated_fraction(self) -> float:
        if self.candidates_total == 0:
            return 0.0
        return self.candidates_evaluated / self.candidates_total


def exhaustive_search_ops_per_macroblock(block_size: int, search_range: int) -> int:
    """Arithmetic operations per macroblock for exhaustive search."""
    return block_size * block_size * (2 * search_range + 1) ** 2


def three_step_search_ops_per_macroblock(block_size: int, search_range: int) -> int:
    """Arithmetic operations per macroblock for three-step search."""
    steps = max(1.0, math.log2(search_range + 1))
    return int(block_size * block_size * (1 + 8 * steps))


@dataclass(frozen=True)
class BlockMatchingConfig:
    """Configuration of the block matcher.

    Attributes
    ----------
    block_size:
        Macroblock edge length ``L`` in pixels (the paper uses 16 by default
        and sweeps 4..128 in Fig. 11a).
    search_range:
        Search distance ``d`` in pixels; the window is ``(2d+1) x (2d+1)``.
        ``d = 0`` is the valid zero-motion degenerate case (the window
        collapses to the co-located block).
    strategy:
        Exhaustive or three-step search.
    search_policy:
        Candidate-scan policy of the exhaustive search (accepts the enum or
        its string value).  All policies produce bit-identical motion
        fields; ``PRUNED`` (the default) skips provably non-improving
        candidates via the spiral early-exit and the partial-sum lower
        bound; ``HISTOGRAM`` additionally reorders candidates by a global
        SAD histogram.  Ignored by the three-step search.
    kernel_backend:
        Kernel backend (``c``/``numpy``).  ``c``, the default, runs a whole
        search in one compiled call (:mod:`repro.motion.ckernels`); where
        the C kernels cannot be built it runs ``numpy``, the oracle.  Both
        backends return bit-identical fields.
    """

    block_size: int = 16
    search_range: int = 7
    strategy: SearchStrategy = SearchStrategy.THREE_STEP
    search_policy: SearchPolicy = SearchPolicy.PRUNED
    kernel_backend: str = DEFAULT_KERNEL_BACKEND

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.search_range < 0:
            raise ValueError("search_range must be non-negative")
        if not isinstance(self.search_policy, SearchPolicy):
            object.__setattr__(self, "search_policy", SearchPolicy(self.search_policy))
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"unknown kernel backend '{self.kernel_backend}' "
                f"(expected one of {KERNEL_BACKENDS})"
            )

    @property
    def ops_per_macroblock(self) -> int:
        """Arithmetic operations per macroblock for this configuration."""
        if self.strategy is SearchStrategy.EXHAUSTIVE:
            return exhaustive_search_ops_per_macroblock(self.block_size, self.search_range)
        return three_step_search_ops_per_macroblock(self.block_size, self.search_range)

    def ops_per_frame(self, frame_width: int, frame_height: int) -> int:
        """Arithmetic operations to estimate motion for a whole frame."""
        grid = MacroblockGrid(frame_width, frame_height, self.block_size)
        return grid.num_blocks * self.ops_per_macroblock


class BlockMatcher:
    """Estimates a macroblock motion field between two consecutive frames."""

    def __init__(self, config: BlockMatchingConfig | None = None) -> None:
        self.config = config or BlockMatchingConfig()
        #: Arithmetic-operation count of the most recent :meth:`estimate` call.
        #: Three-step search uses the analytical per-macroblock formula;
        #: exhaustive search counts the candidates its policy actually
        #: evaluated (identical to the analytical formula for ``FULL``).
        self.last_operation_count = 0
        #: Candidate accounting of the most recent exhaustive search
        #: (``None`` after a three-step run).
        self.last_search_stats: SearchStats | None = None
        #: Kernel backend that actually served the most recent estimate
        #: (``c`` only where the C kernels were built).
        self.last_kernel_backend = "numpy"
        # Resolved here, so building the matcher pays the one-time compile.
        self._compiled = resolve_kernel_backend(self.config.kernel_backend) == "c"
        # Buffer pool shared by the per-frame kernels (diff images, float32
        # reduction staging) so the steady-state frame path stops paying
        # ~16 MB of fresh allocations per estimate.
        self._kernel_scratch = KernelScratch()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def estimate(self, current: np.ndarray, previous: np.ndarray) -> MotionField:
        """Estimate forward motion from ``previous`` to ``current``.

        Both frames are 2-D uint8 luma arrays of identical shape; anything
        else raises ``ValueError``.  The returned field stores, for every
        macroblock of the *current* frame, the displacement its content
        underwent since the previous frame and the SAD of the best match.
        """
        current = np.asarray(current)
        previous = np.asarray(previous)
        if current.ndim != 2 or previous.ndim != 2:
            raise ValueError("block matching expects 2-D luma frames")
        if current.dtype != np.uint8 or previous.dtype != np.uint8:
            raise ValueError(
                f"block matching expects uint8 luma, got {current.dtype} "
                f"and {previous.dtype}"
            )
        if current.shape != previous.shape:
            raise ValueError(
                f"frame shapes differ: {current.shape} vs {previous.shape}"
            )

        height, width = current.shape
        block = self.config.block_size
        d = self.config.search_range
        grid = MacroblockGrid(width, height, block)
        exhaustive = self.config.strategy is SearchStrategy.EXHAUSTIVE
        if self._compiled:
            policy = self.config.search_policy.value if exhaustive else None
            offsets = _spiral_offsets(d) if exhaustive else None
            vectors, sad, stats = ckernels.estimate_u8(
                current, previous, block, d, policy, offsets
            )
            self.last_kernel_backend = "c"
            if exhaustive:
                self.last_search_stats = SearchStats(grid.num_blocks * offsets.shape[1], *stats)
        else:
            padded_current, padded_previous = self._pad_to_grid(current, previous, grid)
            kernel = SadKernel(
                padded_current, padded_previous, block, d, scratch=self._kernel_scratch
            )
            self.last_kernel_backend = "numpy"
            search = self._exhaustive if exhaustive else self._three_step
            vectors, sad = search(kernel)
        if exhaustive:
            stats = self.last_search_stats
            # Evaluated SADs cost L^2 each; each lower-bound check costs a
            # gather + subtract + abs + compare.
            self.last_operation_count = (
                stats.candidates_evaluated * block * block + stats.lower_bound_checks * 4
            )
        else:
            self.last_search_stats = None
            self.last_operation_count = grid.num_blocks * self.config.ops_per_macroblock
        return MotionField(vectors, sad, grid, search_range=d)

    # ------------------------------------------------------------------
    # Padding helpers
    # ------------------------------------------------------------------
    def _pad_to_grid(
        self, current: np.ndarray, previous: np.ndarray, grid: MacroblockGrid
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Edge-pad both frames so their size is a multiple of the block size."""
        block = self.config.block_size
        target_h = grid.rows * block
        target_w = grid.cols * block
        pad_h = target_h - current.shape[0]
        pad_w = target_w - current.shape[1]
        if pad_h == 0 and pad_w == 0:
            return current, previous
        pad = ((0, pad_h), (0, pad_w))
        return np.pad(current, pad, mode="edge"), np.pad(previous, pad, mode="edge")

    # ------------------------------------------------------------------
    # Exhaustive search
    # ------------------------------------------------------------------
    def _exhaustive(self, kernel: SadKernel) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate scan over the window, with policy-dependent pruning.

        All policies return bit-identical fields.  The full and pruned
        policies visit candidates in the same nearest-to-zero order and
        update only on *strict* SAD improvement, so their pruning rules
        (skip a block whose best SAD is 0; skip a block whose partial-sum
        lower bound is not below its best SAD) can only skip candidates the
        full scan would have rejected anyway.  The histogram policy visits
        candidates out of spiral order (globally promising offsets first)
        and therefore breaks SAD ties on the *spiral rank* instead — the
        winner is the (SAD, spiral-rank) lexicographic minimum, which is
        exactly what the spiral scan's strict-improvement rule computes.
        The C kernel (``euph_es_u8``) runs the same rules per macroblock.
        """
        policy = self.config.search_policy
        d = self.config.search_range
        rows, cols = kernel.rows, kernel.cols
        num_blocks = rows * cols
        offsets = self._window_offsets(d)

        # The histogram policy ranks candidates by their global partial-sum
        # SAD score.
        ranked = policy is SearchPolicy.HISTOGRAM
        ranks = np.arange(len(offsets), dtype=np.int64)
        if ranked:
            ranks = kernel.histogram_order(offsets)
            offsets = [offsets[int(index)] for index in ranks]

        # The first visited offset is always (0, 0) (spiral rank 0, pinned
        # first by histogram_order too): evaluating it up front seeds every
        # block's best SAD without an inf sentinel.
        best_sad = kernel.sad_uniform(0, 0)
        best_dy = np.zeros((rows, cols), dtype=np.int64)
        best_dx = np.zeros((rows, cols), dtype=np.int64)
        best_rank = np.zeros((rows, cols), dtype=np.int64)

        evaluated = num_blocks
        lower_bound_checks = 0
        offsets_skipped = 0
        # min(ranks[i:]): lets a perfect-match early exit stay correct under
        # out-of-spiral-order visiting (a remaining candidate can still win
        # a SAD tie only if its spiral rank undercuts a block's best rank).
        suffix_min_rank = np.minimum.accumulate(ranks[::-1])[::-1]

        for index, (dy, dx) in enumerate(offsets[1:], start=1):
            if policy is SearchPolicy.FULL:
                sad = kernel.sad_uniform(dy, dx)
                improved = sad < best_sad
                best_sad = np.where(improved, sad, best_sad)
                best_dy[improved] = dy
                best_dx[improved] = dx
                evaluated += num_blocks
                continue

            rank = int(ranks[index])
            need = best_sad > 0.0
            if ranked:
                need |= best_rank > rank
                all_perfect = not (best_sad > 0.0).any()
            else:
                all_perfect = not need.any()
            if all_perfect and best_rank.max() < suffix_min_rank[index]:
                # Every block has a perfect match no remaining candidate
                # can beat, not even on a spiral-rank tie.  Early exit —
                # this offset and everything after it goes unevaluated.
                offsets_skipped += len(offsets) - index
                break
            lower_bound_checks += num_blocks
            lower = kernel.lower_bound_uniform(dy, dx)
            if ranked:
                need &= (lower < best_sad) | ((lower <= best_sad) & (best_rank > rank))
            else:
                need &= lower < best_sad
            rows_idx, cols_idx = np.nonzero(need)
            count = rows_idx.size
            if count == 0:
                offsets_skipped += 1
                continue
            evaluated += count
            if count == num_blocks:
                sad = kernel.sad_uniform(dy, dx)
                improved = sad < best_sad
                if ranked:
                    improved |= (sad == best_sad) & (best_rank > rank)
                best_sad = np.where(improved, sad, best_sad)
                best_dy[improved] = dy
                best_dx[improved] = dx
                best_rank[improved] = rank
            else:
                sad = kernel.sad_subset(dy, dx, rows_idx, cols_idx)
                current_best = best_sad[rows_idx, cols_idx]
                improved = sad < current_best
                if ranked:
                    improved |= (sad == current_best) & (
                        best_rank[rows_idx, cols_idx] > rank
                    )
                if improved.any():
                    sel_rows = rows_idx[improved]
                    sel_cols = cols_idx[improved]
                    best_sad[sel_rows, sel_cols] = sad[improved]
                    best_dy[sel_rows, sel_cols] = dy
                    best_dx[sel_rows, sel_cols] = dx
                    best_rank[sel_rows, sel_cols] = rank

        self.last_search_stats = SearchStats(
            candidates_total=num_blocks * len(offsets),
            candidates_evaluated=evaluated,
            lower_bound_checks=lower_bound_checks,
            offsets_skipped=offsets_skipped,
        )
        # A match at offset (dx, dy) means the block content came from
        # (x + dx, y + dy) in the previous frame, i.e. it moved forward by
        # (-dx, -dy).
        vectors = np.stack([-best_dx, -best_dy], axis=-1).astype(np.float64)
        return vectors, best_sad

    @staticmethod
    def _window_offsets(search_range: int) -> List[Tuple[int, int]]:
        """All (dy, dx) offsets in the window, nearest-to-zero first.

        Ordering matters for tie-breaking: when several displacements give
        the same SAD (flat image regions), the smallest motion wins, which
        keeps static backgrounds static.
        """
        offsets = [
            (dy, dx)
            for dy in range(-search_range, search_range + 1)
            for dx in range(-search_range, search_range + 1)
        ]
        offsets.sort(key=lambda o: (o[0] * o[0] + o[1] * o[1], abs(o[0]), abs(o[1])))
        return offsets

    # ------------------------------------------------------------------
    # Three-step search
    # ------------------------------------------------------------------
    def _three_step(self, kernel: SadKernel) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized TSS: every step evaluates all macroblocks at once.

        Each macroblock carries its own search center, so a candidate is a
        per-block offset array; the nine candidates of a step are visited in
        the same order as the scalar reference and accepted only on strict
        SAD improvement, which reproduces its tie-breaking bit for bit.
        """
        d = self.config.search_range
        rows, cols = kernel.rows, kernel.cols

        center_dy = np.zeros((rows, cols), dtype=np.int64)
        center_dx = np.zeros((rows, cols), dtype=np.int64)
        best_sad = kernel.sad_per_block(0, 0)

        step = max(1, 2 ** (max(0, int(math.ceil(math.log2(d + 1))) - 1)))
        while step >= 1:
            # Candidates are relative to the step's starting center; the
            # best strictly-improving one becomes the next step's center.
            base_dy, base_dx = center_dy, center_dx
            for ndy in (-step, 0, step):
                for ndx in (-step, 0, step):
                    if ndy == 0 and ndx == 0:
                        continue
                    dy = base_dy + ndy
                    dx = base_dx + ndx
                    valid = (np.abs(dy) <= d) & (np.abs(dx) <= d)
                    if not valid.any():
                        continue
                    sad = kernel.sad_per_block(np.clip(dy, -d, d), np.clip(dx, -d, d))
                    improved = valid & (sad < best_sad)
                    best_sad = np.where(improved, sad, best_sad)
                    center_dy = np.where(improved, dy, center_dy)
                    center_dx = np.where(improved, dx, center_dx)
            step //= 2

        vectors = np.stack([-center_dx, -center_dy], axis=-1).astype(np.float64)
        return vectors, best_sad


@functools.lru_cache(maxsize=None)
def _spiral_offsets(search_range: int) -> np.ndarray:
    """:meth:`BlockMatcher._window_offsets` as a read-only ``(2, n)`` int64
    array, rows ``dy`` and ``dx``: the C exhaustive search's candidates."""
    offsets = np.ascontiguousarray(
        np.array(BlockMatcher._window_offsets(search_range), dtype=np.int64).T
    )
    offsets.flags.writeable = False
    return offsets
