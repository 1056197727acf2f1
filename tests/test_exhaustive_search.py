"""Equivalence tests for the pruned exhaustive search.

The exhaustive search must return *bit-identical* motion fields to the
scalar reference oracle -- same argmin, same SAD -- because its pruning
rules only skip candidates that provably cannot strictly improve a block's
best SAD.  These property tests drive it over random 8-bit frames, including
the ``search_range=0`` degenerate window and frames that need edge padding
(sizes that are not multiples of the block size).  Every test runs on both
kernel backends: the numpy scan and the C scan are separate
implementations of the one search.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.motion.block_matching import BlockMatcher, BlockMatchingConfig, SearchStrategy
from repro.motion.kernels import KERNEL_BACKENDS
from repro.motion.reference import scalar_estimate


def _exhaustive(current, previous, block_size, search_range, backend):
    """Run the exhaustive search and return ``(matcher, field)``."""
    matcher = BlockMatcher(
        BlockMatchingConfig(
            block_size=block_size,
            search_range=search_range,
            strategy=SearchStrategy.EXHAUSTIVE,
            kernel_backend=backend,
        )
    )
    return matcher, matcher.estimate(current, previous)


def _assert_matches_oracle(current, previous, block_size, search_range, backend):
    oracle = scalar_estimate(
        current, previous, block_size=block_size, search_range=search_range, three_step=False
    )
    _matcher, field = _exhaustive(current, previous, block_size, search_range, backend)
    assert np.array_equal(field.vectors, oracle.vectors)
    assert np.array_equal(field.sad, oracle.sad)
    return field


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
class TestOracleEquivalence:
    """Property tests: the pruned scan equals the scalar oracle."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        block_size=st.sampled_from([3, 4, 8, 16]),
        search_range=st.sampled_from([0, 1, 2, 5, 7]),
        height=st.integers(8, 48),
        width=st.integers(8, 48),
    )
    def test_integer_frames(self, backend, seed, block_size, search_range, height, width):
        rng = np.random.default_rng(seed)
        current = rng.integers(0, 256, (height, width)).astype(np.uint8)
        previous = rng.integers(0, 256, (height, width)).astype(np.uint8)
        _assert_matches_oracle(current, previous, block_size, search_range, backend)

    def test_zero_search_range(self, backend):
        """d = 0 collapses the window to the co-located block."""
        rng = np.random.default_rng(3)
        current = rng.integers(0, 256, (40, 56)).astype(np.uint8)
        previous = rng.integers(0, 256, (40, 56)).astype(np.uint8)
        field = _assert_matches_oracle(current, previous, 8, 0, backend)
        assert field.max_magnitude() == 0.0

    def test_edge_padded_blocks(self, backend):
        """Frame sizes that are not block multiples exercise the edge padding."""
        rng = np.random.default_rng(4)
        for height, width in [(50, 70), (33, 47), (17, 90)]:
            current = rng.integers(0, 256, (height, width)).astype(np.uint8)
            previous = rng.integers(0, 256, (height, width)).astype(np.uint8)
            _assert_matches_oracle(current, previous, 16, 7, backend)

    def test_flat_frames_keep_zero_motion_tiebreak(self, backend):
        """Ties (flat content) must break like the oracle: smallest motion wins."""
        flat = np.full((48, 64), 128, dtype=np.uint8)
        matcher, field = _exhaustive(flat, flat, 16, 7, backend)
        assert field.max_magnitude() == 0.0
        assert np.all(field.sad == 0.0)
        # The SAD-0 early exit fires after the seeding (0, 0) evaluation:
        # all 224 remaining offsets are skipped, and the accounting says so.
        stats = matcher.last_search_stats
        assert stats.candidates_evaluated == stats.candidates_total // 225
        assert stats.offsets_skipped == 224


def _textured_pan():
    """A blocky texture panned by (2, 3) pixels: every block can lock on."""
    rng = np.random.default_rng(5)
    coarse = rng.uniform(0, 255, (16, 20))
    canvas = np.kron(coarse, np.ones((8, 8)))
    previous = canvas[: 96, : 128].astype(np.uint8)
    current = canvas[2 : 98, 3 : 131].astype(np.uint8)
    return current, previous


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
class TestWorkAccounting:
    def test_pruning_reduces_candidate_evaluations(self, backend):
        """On matchable content the search skips real work."""
        current, previous = _textured_pan()
        matcher, _field = _exhaustive(current, previous, 16, 7, backend)
        stats = matcher.last_search_stats
        assert stats.candidates_total == (96 // 16) * (128 // 16) * 225
        assert stats.candidates_evaluated < stats.candidates_total
        assert stats.lower_bound_checks > 0

    def test_operation_count_prices_the_work_done(self, backend):
        """The operation count is L^2 per evaluated SAD plus four per
        lower-bound check, and pruning keeps it under the unpruned scan's
        analytical count."""
        current, previous = _textured_pan()
        matcher, _field = _exhaustive(current, previous, 16, 7, backend)
        stats = matcher.last_search_stats
        assert matcher.last_operation_count == (
            stats.candidates_evaluated * 16 * 16 + stats.lower_bound_checks * 4
        )
        assert matcher.last_operation_count < matcher.config.ops_per_frame(128, 96)

    def test_search_stops_once_every_block_matches_exactly(self, backend):
        """Textured content shifted one pixel left matches every block at
        SAD 0 on the third spiral offset, (dy, dx) = (0, 1); no later
        offset can strictly beat that, so the other 222 go unevaluated."""
        rng = np.random.default_rng(8)
        previous = rng.integers(0, 256, (48, 64)).astype(np.uint8)
        # The right edge repeats: the matcher's edge padding then supplies
        # the column the shift brings in, so the last blocks match too.
        previous[:, -1] = previous[:, -2]
        current = np.concatenate([previous[:, 1:], previous[:, -1:]], axis=1)
        field = _assert_matches_oracle(current, previous, 16, 7, backend)
        assert np.all(field.sad == 0.0)
        assert np.all(field.vectors == [-1.0, 0.0])
        matcher, _field = _exhaustive(current, previous, 16, 7, backend)
        stats = matcher.last_search_stats
        num_blocks = (48 // 16) * (64 // 16)
        assert stats.offsets_skipped == 222
        assert stats.lower_bound_checks == 2 * num_blocks
        assert stats.candidates_evaluated == 3 * num_blocks

    def test_tss_clears_search_stats(self, backend):
        rng = np.random.default_rng(7)
        frame = rng.integers(0, 256, (48, 48)).astype(np.uint8)
        matcher = BlockMatcher(
            BlockMatchingConfig(strategy=SearchStrategy.THREE_STEP, kernel_backend=backend)
        )
        matcher.estimate(frame, frame)
        assert matcher.last_search_stats is None
