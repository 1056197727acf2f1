"""Vectorized ISP stage kernels: denoise blend, box sum and demosaic.

The ISP counterpart of :mod:`repro.motion.kernels`: the motion-compensated
denoise blend, the 3x3 box sum and the bilinear demosaic, each a vectorized
numpy implementation bit-identical to the scalar references in
:mod:`repro.isp.reference`.  Under the ``c`` kernel backend (resolved by the
caller through :func:`repro.motion.kernels.resolve_kernel_backend`) the
blend runs in the compiled ``euph_blend`` of :mod:`repro.motion.ckernels`,
with the numpy blend as its oracle.

Bit-identity notes:

* The blend is element-wise arithmetic (``(1-s)*current + s*reference``), so
  vectorization cannot reassociate anything; the only care needed is using
  the same half-to-even rounding for source offsets as the reference.
* The box sum is a *reduction*, so the numpy path only uses the
  summed-area-table shortcut when the input provably lies on an integer or
  fixed-point lattice (:func:`fixed_point_scale`) where every sum is exact;
  genuinely fractional floats keep the reference's nine-shift accumulation
  order.  All kernels accept an ``out`` scratch buffer so steady-state
  callers allocate nothing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..motion import ckernels
from ..motion.kernels import KernelScratch, fixed_point_scale
from ..motion.motion_field import MotionField


def motion_compensated_blend(
    current: np.ndarray,
    previous: np.ndarray,
    field: MotionField,
    *,
    blend_strength: float,
    max_normalised_sad: float,
    out: Optional[np.ndarray] = None,
    backend: str = "numpy",
    scratch: Optional[KernelScratch] = None,
) -> np.ndarray:
    """Blend each macroblock with its motion-compensated predecessor.

    Writes into ``out`` (a float64 frame-shaped scratch buffer, allocated
    when absent) and returns it.  ``out`` must not alias ``current`` or
    ``previous``.  ``current`` may be uint8: every read of it lands in a
    float64 destination (assignments widen, and a uint8-by-float multiply
    promotes to float64), and uint8 -> float64 conversion is exact, so the
    result is bit-identical to widening the frame up front — the steady-state
    denoise stage exploits this to skip a full-frame copy per frame.
    ``scratch`` pools the numpy path's gather staging across frames (the
    steady-state caller passes the stage's pool; ad-hoc calls allocate a
    private one).  ``backend="c"`` runs the compiled blend when the arrays
    suit it (uint8 or float64 ``current``, float64 ``previous`` and ``out``,
    all C-contiguous) and numpy otherwise.
    """
    height, width = current.shape
    if out is None:
        out = np.empty((height, width), dtype=np.float64)
    block = field.grid.block_size
    strength = blend_strength
    max_sad = field.max_sad * max_normalised_sad

    if backend == "c" and ckernels.blend(
        current, previous, field.vectors, field.sad, block, max_sad, strength, out
    ):
        return out

    copied = False
    rows_full = height // block
    cols_full = width // block
    if rows_full and cols_full:
        pool = scratch if scratch is not None else KernelScratch()
        vectors = field.vectors[:rows_full, :cols_full]
        # The block content came from (x - u, y - v) in the previous frame
        # (forward-motion convention).
        src_y = (
            np.arange(rows_full)[:, None] * block - np.rint(vectors[..., 1])
        ).astype(np.int64)
        src_x = (
            np.arange(cols_full)[None, :] * block - np.rint(vectors[..., 0])
        ).astype(np.int64)
        valid = (
            (field.sad[:rows_full, :cols_full] <= max_sad)
            & (src_y >= 0)
            & (src_x >= 0)
            & (src_y + block <= height)
            & (src_x + block <= width)
        )
        rows_idx, cols_idx = np.nonzero(valid)
        if rows_idx.size:
            # Displacement of each valid block in pixels (the same rounded
            # offsets the gathers use).  Real motion fields are coherent —
            # typically one displacement (usually (0, 0)) covers nearly every
            # block — so the dominant group is blended with one whole-frame
            # element-wise pass over *views* of both frames, and only the
            # leftover blocks pay the per-block gather.  Element-wise blends
            # and exact value moves keep the result bit-identical to the
            # all-gather path and the scalar reference.
            disp_y = src_y[rows_idx, cols_idx] - rows_idx * block
            disp_x = src_x[rows_idx, cols_idx] - cols_idx * block
            disp_keys = (disp_y + height) * (2 * width + 1) + (disp_x + width)
            unique_keys, first_index, key_counts = np.unique(
                disp_keys, return_index=True, return_counts=True
            )
            dominant = int(np.argmax(key_counts))
            total_blocks = rows_full * cols_full
            use_dominant = key_counts[dominant] * 2 >= total_blocks
            if not use_dominant and rows_idx.size * 3 >= total_blocks:
                # No single displacement dominates, but valid blocks tile
                # most of the grid: gather only the *source* side and write
                # straight through a blocked view of ``out`` — no destination
                # indices, no scatter, no current-frame gather.  The dense
                # pass overwrites the whole full-block grid, so only the
                # ragged edge strips need the ``current`` pre-fill.
                grid_y = rows_full * block
                grid_x = cols_full * block
                out[grid_y:, :] = current[grid_y:, :]
                out[:grid_y, grid_x:] = current[:grid_y, grid_x:]
                copied = True
                _blend_dense(
                    out, current, previous, src_y, src_x, valid,
                    rows_full, cols_full, block, strength,
                )
                rows_idx = rows_idx[:0]
                cols_idx = cols_idx[:0]
            if not copied:
                np.copyto(out, current)
                copied = True
            if use_dominant:
                member = disp_keys == unique_keys[dominant]
                dy = int(disp_y[first_index[dominant]])
                dx = int(disp_x[first_index[dominant]])
                # The in-bounds destination rectangle for this displacement;
                # every member block lies inside it by the validity check, so
                # one element-wise pass over frame views blends them all.
                # ``out`` never aliases ``current``/``previous`` (documented
                # contract), so the blend lands directly in ``out``.
                y_lo, y_hi = max(0, -dy), height - max(0, dy)
                x_lo, x_hi = max(0, -dx), width - max(0, dx)
                dst_view = out[y_lo:y_hi, x_lo:x_hi]
                cur_view = current[y_lo:y_hi, x_lo:x_hi]
                ref_view = previous[y_lo + dy : y_hi + dy, x_lo + dx : x_hi + dx]
                ref_term = pool.get("blend_full", (height, width), np.float64)[
                    y_lo:y_hi, x_lo:x_hi
                ]
                np.multiply(cur_view, 1.0 - strength, out=dst_view)
                np.multiply(ref_view, strength, out=ref_term)
                dst_view += ref_term
                # The rectangle also swept over non-member pixels — blocks of
                # other displacement groups, invalid blocks and the ragged
                # edge strips.  Restore those to ``current`` (cheap: the
                # dominant group covers at least half the grid), then blend
                # the leftover valid groups through the gather path.
                member_grid = pool.get(
                    "blend_member", (rows_full, cols_full), np.bool_
                )
                member_grid[:] = False
                member_grid[rows_idx[member], cols_idx[member]] = True
                restore_r, restore_c = np.nonzero(~member_grid)
                _restore_blocks(out, current, restore_r, restore_c, block)
                _restore_edges(
                    out, current, rows_full * block, cols_full * block,
                    y_lo, y_hi, x_lo, x_hi,
                )
                rows_idx = rows_idx[~member]
                cols_idx = cols_idx[~member]
            if rows_idx.size:
                _blend_gathered(
                    out,
                    current,
                    previous,
                    src_y,
                    src_x,
                    rows_idx,
                    cols_idx,
                    rows_full,
                    cols_full,
                    block,
                    width,
                    strength,
                    pool,
                )

    if not copied:
        np.copyto(out, current)

    # Ragged frame edge: the partial blocks of the bottom row / right column
    # keep the scalar path (at most rows+cols blocks, not the full grid).
    grid_rows, grid_cols = field.grid.rows, field.grid.cols
    if grid_rows > rows_full or grid_cols > cols_full:
        edge_blocks = [
            (row, col)
            for row in range(rows_full, grid_rows)
            for col in range(grid_cols)
        ]
        edge_blocks += [
            (row, col)
            for row in range(rows_full)
            for col in range(cols_full, grid_cols)
        ]
        for row, col in edge_blocks:
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
            out[y0:y1, x0:x1] = (
                (1.0 - strength) * current[y0:y1, x0:x1] + strength * reference
            )
    return out


def _blocked_view(array: np.ndarray, block: int) -> np.ndarray:
    """A zero-copy ``(rows, block, cols, block)`` macroblock view of a 2-D
    array whose dimensions are multiples of ``block`` (works for any strides,
    unlike ``reshape``, which would silently copy a non-contiguous slice)."""
    height, width = array.shape
    stride_y, stride_x = array.strides
    return np.lib.stride_tricks.as_strided(
        array,
        shape=(height // block, block, width // block, block),
        strides=(stride_y * block, stride_y, stride_x * block, stride_x),
    )


def _blend_dense(
    out: np.ndarray,
    current: np.ndarray,
    previous: np.ndarray,
    src_y: np.ndarray,
    src_x: np.ndarray,
    valid: np.ndarray,
    rows_full: int,
    cols_full: int,
    block: int,
    strength: float,
) -> None:
    """Blend a near-dense valid grid without destination indexing.

    Gathers each block's motion-compensated reference patch in one fancy
    read through a sliding-window view of ``previous`` (no flat-index build,
    so the gather reads patch data instead of patch data *plus* an
    equal-sized int64 index array), then runs the blend element-wise through
    blocked 4-D views of ``current``/``out`` — the destination side is the
    grid itself, so there is no destination index and no scatter.  The
    gathered patch array is the dense path's one per-frame temporary;
    measured against the pooled flat-index gather it roughly halves the
    reference-side cost, which is why this path trades it for the pool.
    Invalid blocks get swept by the element-wise pass and are restored to
    ``current`` afterwards (cheap: the grid is near-dense).  Per-element
    arithmetic keeps the reference's ``(1-s)*current + s*reference`` operand
    order, so results stay bit-identical.
    """
    grid_y = rows_full * block
    grid_x = cols_full * block
    # Clamp invalid blocks' source to a safe in-bounds position; their
    # blended garbage is overwritten by the restore pass below.
    sy = np.where(valid, src_y, 0)
    sx = np.where(valid, src_x, 0)
    windows = np.lib.stride_tricks.sliding_window_view(previous, (block, block))
    ref_patches = windows[sy, sx]  # (rows_full, cols_full, block, block)
    # Scale the reference term in its contiguous gather layout, then add it
    # through the transposed block view — one strided pass instead of a
    # strided multiply into a third buffer plus a contiguous add.
    np.multiply(ref_patches, strength, out=ref_patches)
    ref_blocks = ref_patches.transpose(0, 2, 1, 3)
    out_blocks = _blocked_view(out[:grid_y, :grid_x], block)
    cur_blocks = _blocked_view(current[:grid_y, :grid_x], block)
    np.multiply(cur_blocks, 1.0 - strength, out=out_blocks)
    np.add(out_blocks, ref_blocks, out=out_blocks)
    invalid_r, invalid_c = np.nonzero(~valid)
    _restore_blocks(out, current, invalid_r, invalid_c, block)


def _restore_blocks(
    out: np.ndarray,
    current: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    block: int,
) -> None:
    """Copy ``current`` back over ``out`` for the listed full blocks."""
    for row, col in zip(rows.tolist(), cols.tolist()):
        y0 = row * block
        x0 = col * block
        out[y0 : y0 + block, x0 : x0 + block] = current[
            y0 : y0 + block, x0 : x0 + block
        ]


def _restore_edges(
    out: np.ndarray,
    current: np.ndarray,
    grid_y: int,
    grid_x: int,
    y_lo: int,
    y_hi: int,
    x_lo: int,
    x_hi: int,
) -> None:
    """Copy ``current`` back over the ragged edge strips the whole-rectangle
    blend swept through (rows below ``grid_y`` / columns right of ``grid_x``,
    clipped to the blended rectangle)."""
    if y_hi > grid_y:
        lo = max(y_lo, grid_y)
        out[lo:y_hi, x_lo:x_hi] = current[lo:y_hi, x_lo:x_hi]
    if x_hi > grid_x:
        lo = max(x_lo, grid_x)
        top = min(y_hi, grid_y)
        out[y_lo:top, lo:x_hi] = current[y_lo:top, lo:x_hi]


def _blend_gathered(
    out: np.ndarray,
    current: np.ndarray,
    previous: np.ndarray,
    src_y: np.ndarray,
    src_x: np.ndarray,
    rows_idx: np.ndarray,
    cols_idx: np.ndarray,
    rows_full: int,
    cols_full: int,
    block: int,
    width: int,
    strength: float,
    pool: KernelScratch,
) -> None:
    """Blend an arbitrary subset of full blocks via pooled flat-index gathers.

    Flat-index gathers through pooled staging buffers instead of fancy
    indexing a sliding-window view: ``np.take(..., out=)`` and the in-place
    blend arithmetic leave the steady state with zero per-frame allocations,
    and moving exact values through a different indexing scheme cannot
    change them.  The blend keeps the reference's ``(1-s)*current +
    s*reference`` operand order, so the float rounding matches bit for bit.
    """
    count = rows_idx.size
    patch = block * block
    capacity = rows_full * cols_full
    offsets = (
        np.arange(block)[:, None] * width + np.arange(block)[None, :]
    ).ravel()
    src_base = src_y[rows_idx, cols_idx] * width + src_x[rows_idx, cols_idx]
    dst_base = (rows_idx * block) * width + cols_idx * block
    src_flat = pool.get("blend_src_idx", (capacity, patch), np.int64)[:count]
    dst_flat = pool.get("blend_dst_idx", (capacity, patch), np.int64)[:count]
    np.add(src_base[:, None], offsets[None, :], out=src_flat)
    np.add(dst_base[:, None], offsets[None, :], out=dst_flat)
    ref_buf = pool.get("blend_ref", (capacity, patch), np.float64)[:count]
    cur_buf = pool.get("blend_cur", (capacity, patch), np.float64)[:count]
    np.take(previous.ravel(), src_flat, out=ref_buf)
    if current.dtype == np.float64:
        np.take(current.ravel(), dst_flat, out=cur_buf)
        np.multiply(cur_buf, 1.0 - strength, out=cur_buf)
    else:
        # ``np.take`` needs a dtype-matched out buffer; stage the raw gather
        # and widen through the multiply (uint8 -> float64 is exact).
        raw_buf = pool.get(
            "blend_cur_raw", (capacity, patch), current.dtype
        )[:count]
        np.take(current.ravel(), dst_flat, out=raw_buf)
        np.multiply(raw_buf, 1.0 - strength, out=cur_buf)
    np.multiply(ref_buf, strength, out=ref_buf)
    np.add(cur_buf, ref_buf, out=ref_buf)
    if out.flags.c_contiguous:
        out.reshape(-1)[dst_flat] = ref_buf
    else:
        # reshape(-1) of a non-contiguous array would scatter into a copy;
        # the blocked transpose view works for any layout.
        blocked = out[: rows_full * block, : cols_full * block].reshape(
            rows_full, block, cols_full, block
        ).transpose(0, 2, 1, 3)
        blocked[rows_idx, cols_idx] = ref_buf.reshape(count, block, block)


def box_sum_3x3(image: np.ndarray, *, out: Optional[np.ndarray] = None) -> np.ndarray:
    """3x3 box sum with reflected borders.

    Lattice-valued inputs (integers, Q8.4 frames, CFA masks) take an exact
    int64 summed-area table — the nine-neighbour sum of bounded lattice
    values is exact in both orders, so the SAT result equals the reference's
    shifted adds bit for bit.  Genuinely fractional floats keep the
    reference's accumulation order.
    """
    height, width = image.shape
    if out is None:
        out = np.empty((height, width), dtype=np.float64)

    scale = fixed_point_scale(np.asarray(image))
    if scale is not None:
        padded = np.pad(image, 1, mode="reflect")
        lattice = np.rint(np.asarray(padded, dtype=np.float64) * scale).astype(
            np.int64
        )
        sat = np.zeros((height + 3, width + 3), dtype=np.int64)
        np.cumsum(np.cumsum(lattice, axis=0), axis=1, out=sat[1:, 1:])
        window_sums = (
            sat[3:, 3:] - sat[3:, :-3] - sat[:-3, 3:] + sat[:-3, :-3]
        )
        np.divide(window_sums, scale, out=out)
        return out

    padded = np.pad(image, 1, mode="reflect")
    out[:] = 0.0
    for dy in range(3):
        for dx in range(3):
            out += padded[dy : dy + height, dx : dx + width]
    return out


def bilinear_demosaic(bayer: np.ndarray, channel_map: np.ndarray) -> np.ndarray:
    """Mask-based bilinear demosaic of a Bayer mosaic to height x width x 3."""
    height, width = bayer.shape
    rgb = np.zeros((height, width, 3), dtype=np.float64)
    for channel in range(3):
        mask = (channel_map == channel).astype(np.float64)
        values = bayer * mask
        summed = box_sum_3x3(values)
        counts = box_sum_3x3(mask)
        with np.errstate(invalid="ignore", divide="ignore"):
            interpolated = np.where(
                counts > 0, summed / np.maximum(counts, 1e-9), 0.0
            )
        rgb[..., channel] = np.where(mask > 0, bayer, interpolated)
    return np.clip(rgb, 0.0, 255.0)


__all__ = ["bilinear_demosaic", "box_sum_3x3", "motion_compensated_blend"]
