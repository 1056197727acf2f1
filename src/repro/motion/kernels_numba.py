"""Compiled (Numba) integer-domain SAD kernels behind :class:`SadKernel`.

This module is the optional ``numba`` kernel backend selected through
``PipelineSpec(kernel_backend="numba")``.  It compiles the SAD hot loops of
:mod:`repro.motion.kernels` — the uniform/per-block/subset SAD primitives
and the partial-sum lower bound — plus one **fused exhaustive-search
driver** that runs a whole full/pruned/histogram scan per macroblock in a
single compiled call, eliminating the remaining per-candidate Python
dispatch of the NumPy driver.

Scope and bit-identity contract:

* Only the **exact-integer mode** is compiled (uint8/int32 frames, including
  the fixed-point-scaled Q8.4 path): every SAD there is an exact integer, so
  summation order cannot matter and the compiled sequential loops are
  bit-identical to the NumPy kernels and to the scalar oracle
  (:mod:`repro.motion.reference`) by exactness.  Genuinely fractional float
  frames stay on the NumPy gather kernel, whose pairwise reduction order the
  scalar oracle defines — a compiled sequential float sum would round
  differently, and bit-identity outranks speed in this repo.
* The fused driver may *abort* a block's SAD summation once the running
  partial sum exceeds the block's best SAD (the partial sum only grows, so
  the candidate can no longer win, not even on an order-rank tie).  This
  early termination changes how much arithmetic is spent, never which
  candidate wins, so the returned field is still bit-identical to the full
  scan.

When Numba is not installed the module still imports cleanly:
``NUMBA_AVAILABLE`` is ``False``, ``@njit`` degrades to a no-op decorator,
and every kernel remains callable as plain (slow) Python — which is exactly
how the backend-equivalence property tests exercise this code on machines
without the ``[accel]`` extra.  Backend *selection* never routes here in
that case: :func:`repro.motion.kernels.resolve_kernel_backend` degrades
``"numba"`` to ``"numpy"`` so production paths keep NumPy speed.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised via the subprocess fallback test
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the no-numba environment itself
    NUMBA_AVAILABLE = False

    def _njit(*args, **kwargs):
        """No-op stand-in: keeps the kernels importable and callable."""

        def decorate(func):
            return func

        return decorate


def _jit(func):
    """``@njit(cache=True)`` when Numba is present, identity otherwise.

    ``cache=True`` persists the compiled machine code next to this module so
    repeated processes (benchmarks, CI steps, worker shards) skip the
    multi-second JIT warm-up.
    """
    return _njit(cache=True)(func)


#: Fused-driver policy codes (kept in sync with
#: :class:`repro.motion.block_matching.SearchPolicy` by the dispatcher).
POLICY_FULL = 0
POLICY_LOWER_BOUND = 1


@_jit
def sad_uniform(current_blocks, padded, d, dy, dx, out):
    """SAD of every macroblock at one global offset, into ``out`` (int64)."""
    rows, cols = current_blocks.shape[0], current_blocks.shape[1]
    block = current_blocks.shape[2]
    for r in range(rows):
        for c in range(cols):
            base_y = d + r * block + dy
            base_x = d + c * block + dx
            total = np.int64(0)
            for i in range(block):
                yy = base_y + i
                for j in range(block):
                    a = np.int64(current_blocks[r, c, i, j])
                    b = np.int64(padded[yy, base_x + j])
                    total += a - b if a >= b else b - a
            out[r, c] = total


@_jit
def sad_per_block(current_blocks, padded, d, dy, dx, out):
    """SAD of every macroblock at per-block offsets (the TSS primitive)."""
    rows, cols = current_blocks.shape[0], current_blocks.shape[1]
    block = current_blocks.shape[2]
    for r in range(rows):
        for c in range(cols):
            base_y = d + r * block + dy[r, c]
            base_x = d + c * block + dx[r, c]
            total = np.int64(0)
            for i in range(block):
                yy = base_y + i
                for j in range(block):
                    a = np.int64(current_blocks[r, c, i, j])
                    b = np.int64(padded[yy, base_x + j])
                    total += a - b if a >= b else b - a
            out[r, c] = total


@_jit
def sad_subset(current_blocks, padded, d, dy, dx, rows_idx, cols_idx, out):
    """SAD at one global offset for an index-listed subset of macroblocks."""
    block = current_blocks.shape[2]
    for k in range(rows_idx.shape[0]):
        r = rows_idx[k]
        c = cols_idx[k]
        base_y = d + r * block + dy
        base_x = d + c * block + dx
        total = np.int64(0)
        for i in range(block):
            yy = base_y + i
            for j in range(block):
                a = np.int64(current_blocks[r, c, i, j])
                b = np.int64(padded[yy, base_x + j])
                total += a - b if a >= b else b - a
        out[k] = total


@_jit
def lower_bound_uniform(block_sums, window_sums, d, block, dy, dx, out):
    """Partial-sum SAD lower bound for every macroblock at one offset."""
    rows, cols = block_sums.shape[0], block_sums.shape[1]
    for r in range(rows):
        for c in range(cols):
            ref = window_sums[d + r * block + dy, d + c * block + dx]
            diff = block_sums[r, c] - ref
            out[r, c] = diff if diff >= 0 else -diff


@_jit
def fused_exhaustive(
    current_blocks,
    padded,
    block_sums,
    window_sums,
    dys,
    dxs,
    ranks,
    suffix_min_rank,
    d,
    policy,
    best_dy,
    best_dx,
    best_sad,
    eval_per_offset,
):
    """One-call exhaustive search over every macroblock and candidate.

    ``dys``/``dxs`` give the candidate offsets *in visit order* (spiral for
    full/pruned, SAD-histogram order for the histogram policy);
    ``ranks`` carries each candidate's spiral rank, which is the canonical
    tie-break: the winning candidate is the (SAD, spiral-rank) lexicographic
    minimum, exactly what the NumPy spiral scan with strict-improvement
    updates computes, so the result is visit-order independent.
    ``suffix_min_rank[k]`` is ``min(ranks[k:])`` and lets a perfect (SAD 0)
    block stop as soon as no remaining candidate could still win a rank tie.

    ``policy`` selects the pruning rules (:data:`POLICY_FULL` evaluates
    everything, :data:`POLICY_LOWER_BOUND` adds the SAD-0 skip and the
    partial-sum bound against ``window_sums``).  Outputs: per-block best
    offset and integer SAD, plus per-offset evaluation counts.  Returns
    ``(evaluated, lower_bound_checks)``.
    """
    rows, cols = current_blocks.shape[0], current_blocks.shape[1]
    block = current_blocks.shape[2]
    num_offsets = dys.shape[0]
    total_eval = np.int64(0)
    total_lb = np.int64(0)
    for r in range(rows):
        for c in range(cols):
            base_y = d + r * block
            base_x = d + c * block
            # Seed with the first visited offset (always spiral rank 0, the
            # (0, 0) candidate) so no infinity sentinel is needed.
            oy = base_y + dys[0]
            ox = base_x + dxs[0]
            best = np.int64(0)
            for i in range(block):
                yy = oy + i
                for j in range(block):
                    a = np.int64(current_blocks[r, c, i, j])
                    b = np.int64(padded[yy, ox + j])
                    best += a - b if a >= b else b - a
            best_rank = ranks[0]
            best_k = 0
            eval_per_offset[0] += 1
            total_eval += 1
            bsum = block_sums[r, c]

            for k in range(1, num_offsets):
                rank = ranks[k]
                if policy != POLICY_FULL and best == 0:
                    if best_rank < suffix_min_rank[k]:
                        # No remaining candidate can beat SAD 0 at an
                        # earlier spiral rank: this block is done.
                        break
                    if rank > best_rank:
                        continue
                if policy == POLICY_LOWER_BOUND:
                    ref = window_sums[base_y + dys[k], base_x + dxs[k]]
                    diff = bsum - ref
                    bound = diff if diff >= 0 else -diff
                    total_lb += 1
                    # The candidate can only win with SAD < best, or with
                    # SAD == best at an earlier spiral rank; SAD >= bound.
                    if bound > best or (bound == best and rank > best_rank):
                        continue
                oy = base_y + dys[k]
                ox = base_x + dxs[k]
                sad = np.int64(0)
                aborted = False
                for i in range(block):
                    yy = oy + i
                    for j in range(block):
                        a = np.int64(current_blocks[r, c, i, j])
                        b = np.int64(padded[yy, ox + j])
                        sad += a - b if a >= b else b - a
                    if sad > best:
                        # The partial sum only grows: this candidate can no
                        # longer strictly improve nor tie, whatever its rank.
                        aborted = True
                        break
                eval_per_offset[k] += 1
                total_eval += 1
                if aborted:
                    continue
                if sad < best or (sad == best and rank < best_rank):
                    best = sad
                    best_rank = rank
                    best_k = k
            best_dy[r, c] = dys[best_k]
            best_dx[r, c] = dxs[best_k]
            best_sad[r, c] = best
    return total_eval, total_lb


@_jit
def histogram_scores(block_sums, window_sums, d, block, dys, dxs, out):
    """Global partial-sum SAD score of every candidate offset.

    ``out[k] = sum_blocks |sum(block) - sum(reference patch at offset k)|``
    — a whole-frame lower bound on the total SAD at that offset, computed
    from the same summed-area tables as :func:`lower_bound_uniform`.
    Sorting candidates by this score (histogram policy) visits globally
    promising displacements first, which tightens every block's best SAD
    early and makes the per-block pruning rules bite sooner on panning
    scenes whose true motion sits far from the spiral's centre.
    """
    rows, cols = block_sums.shape[0], block_sums.shape[1]
    for k in range(dys.shape[0]):
        total = np.int64(0)
        for r in range(rows):
            base_y = d + r * block + dys[k]
            for c in range(cols):
                diff = block_sums[r, c] - window_sums[base_y, d + c * block + dxs[k]]
                total += diff if diff >= 0 else -diff
        out[k] = total
