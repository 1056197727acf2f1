"""Scalar reference implementations of the block-matching searches.

These are the original per-macroblock Python loops that
:class:`~repro.motion.block_matching.BlockMatcher` used before the searches
were vectorized.  They are kept as the correctness oracle: the vectorized
engine must produce bit-identical motion vectors and SAD values, and the
property tests in ``tests/`` assert exactly that.  They are also what the
perf microbenchmarks measure the vectorized engine against.

Frames passed in must already be padded to a multiple of the block size
(callers go through :func:`scalar_estimate`, which pads the same way the
matcher does).  :func:`sum_of_absolute_differences` is the matching metric
itself on one block pair.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .motion_field import MacroblockGrid, MotionField


def sum_of_absolute_differences(block_a: np.ndarray, block_b: np.ndarray) -> float:
    """Return the SAD between two equally-sized pixel blocks.

    Both blocks are interpreted as luma intensities in ``[0, 255]``.  The SAD
    is the paper's block-matching metric (Sec. 2.3) and also drives the
    motion-vector confidence of Eq. 2.
    """
    if block_a.shape != block_b.shape:
        raise ValueError(
            f"SAD requires equally shaped blocks, got {block_a.shape} vs {block_b.shape}"
        )
    return float(np.abs(block_a.astype(np.float64) - block_b.astype(np.float64)).sum())


def _block_sad(
    padded_prev: np.ndarray,
    target: np.ndarray,
    y0: int,
    x0: int,
    dy: int,
    dx: int,
    pad: int,
) -> float:
    block_h, block_w = target.shape
    ref = padded_prev[
        pad + y0 + dy : pad + y0 + dy + block_h,
        pad + x0 + dx : pad + x0 + dx + block_w,
    ]
    return float(np.abs(target - ref).sum())


def tss_initial_step(search_range: int) -> int:
    """First step size of the three-step search for a given ``d``."""
    return max(1, 2 ** (max(0, int(math.ceil(math.log2(search_range + 1))) - 1)))


def scalar_three_step(
    current: np.ndarray,
    previous: np.ndarray,
    grid: MacroblockGrid,
    search_range: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-macroblock three-step search (the scalar oracle).

    Every step evaluates the eight neighbours of the step's *starting*
    center and then moves to the best strictly-improving candidate.  (The
    original implementation re-based candidates on the partially updated
    center inside the loop, which skipped reachable optima — e.g. a true
    ``(7, 7)`` displacement was never evaluated once the drifting center
    pushed it past the search range.)
    """
    block = grid.block_size
    d = search_range
    rows, cols = grid.rows, grid.cols

    padded_prev = np.pad(previous, d, mode="edge")
    vectors = np.zeros((rows, cols, 2), dtype=np.float64)
    sad_out = np.zeros((rows, cols), dtype=np.float64)

    initial_step = tss_initial_step(d)

    for r in range(rows):
        for c in range(cols):
            y0 = r * block
            x0 = c * block
            target = current[y0 : y0 + block, x0 : x0 + block]

            center_dy, center_dx = 0, 0
            best_sad = _block_sad(padded_prev, target, y0, x0, 0, 0, d)
            step = initial_step
            while step >= 1:
                base_dy, base_dx = center_dy, center_dx
                for ndy in (-step, 0, step):
                    for ndx in (-step, 0, step):
                        if ndy == 0 and ndx == 0:
                            continue
                        dy = base_dy + ndy
                        dx = base_dx + ndx
                        if abs(dy) > d or abs(dx) > d:
                            continue
                        sad = _block_sad(padded_prev, target, y0, x0, dy, dx, d)
                        if sad < best_sad:
                            best_sad = sad
                            center_dy, center_dx = dy, dx
                step //= 2

            vectors[r, c, 0] = -center_dx
            vectors[r, c, 1] = -center_dy
            sad_out[r, c] = best_sad

    return vectors, sad_out


def scalar_exhaustive(
    current: np.ndarray,
    previous: np.ndarray,
    grid: MacroblockGrid,
    search_range: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-macroblock exhaustive search (the scalar oracle).

    Candidates are visited nearest-to-zero first with strict-improvement
    updates, matching the tie-breaking of the vectorized search.
    """
    from .block_matching import BlockMatcher  # ordering helper, no cycle at runtime

    block = grid.block_size
    d = search_range
    rows, cols = grid.rows, grid.cols

    padded_prev = np.pad(previous, d, mode="edge")
    vectors = np.zeros((rows, cols, 2), dtype=np.float64)
    sad_out = np.zeros((rows, cols), dtype=np.float64)
    offsets = BlockMatcher._window_offsets(d)

    for r in range(rows):
        for c in range(cols):
            y0 = r * block
            x0 = c * block
            target = current[y0 : y0 + block, x0 : x0 + block]
            best_sad = math.inf
            best_dy, best_dx = 0, 0
            for dy, dx in offsets:
                sad = _block_sad(padded_prev, target, y0, x0, dy, dx, d)
                if sad < best_sad:
                    best_sad = sad
                    best_dy, best_dx = dy, dx
            vectors[r, c, 0] = -best_dx
            vectors[r, c, 1] = -best_dy
            sad_out[r, c] = best_sad

    return vectors, sad_out


def scalar_estimate(
    current: np.ndarray,
    previous: np.ndarray,
    block_size: int = 16,
    search_range: int = 7,
    three_step: bool = True,
) -> MotionField:
    """End-to-end scalar estimation with the matcher's padding semantics."""
    current = np.asarray(current, dtype=np.float64)
    previous = np.asarray(previous, dtype=np.float64)
    height, width = current.shape
    grid = MacroblockGrid(width, height, block_size)
    target_h = grid.rows * block_size
    target_w = grid.cols * block_size
    pad = ((0, target_h - height), (0, target_w - width))
    if pad != ((0, 0), (0, 0)):
        current = np.pad(current, pad, mode="edge")
        previous = np.pad(previous, pad, mode="edge")
    search = scalar_three_step if three_step else scalar_exhaustive
    vectors, sad = search(current, previous, grid, search_range)
    return MotionField(vectors, sad, grid, search_range=search_range)
