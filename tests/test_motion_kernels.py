"""Tests for the vectorized SAD kernels and the scalar-oracle equivalence.

The vectorized engine must be *bit-identical* to the scalar reference in
``repro.motion.reference`` — not approximately equal — because downstream
confidence filtering (Eq. 2/3) is sensitive to SAD values and the paper's
hardware produces exact integer SADs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.motion.block_matching import BlockMatcher, BlockMatchingConfig, SearchStrategy
from repro.motion.kernels import SadKernel
from repro.motion.reference import scalar_estimate


class TestSadKernelModes:
    """The uint8 kernel's primitives agree, and it checks its input."""

    def test_uniform_and_per_block_agree_on_integers(self):
        rng = np.random.default_rng(0)
        current = rng.integers(0, 256, (32, 48)).astype(np.uint8)
        previous = rng.integers(0, 256, (32, 48)).astype(np.uint8)
        kernel = SadKernel(current, previous, block_size=16, search_range=3)
        for dy, dx in [(0, 0), (1, -2), (-3, 3)]:
            uniform = kernel.sad_uniform(dy, dx)
            per_block = kernel.sad_per_block(
                np.full((2, 3), dy, dtype=np.int64), np.full((2, 3), dx, dtype=np.int64)
            )
            assert np.array_equal(uniform, per_block)

    def test_rejects_unpadded_frames(self):
        frame = np.zeros((10, 16), dtype=np.uint8)
        with pytest.raises(ValueError, match="multiples of the block size"):
            SadKernel(frame, frame, 16, 2)

    def test_rejects_non_uint8_frames(self):
        frame = np.zeros((16, 16))
        with pytest.raises(ValueError, match="uint8"):
            SadKernel(frame, frame, 8, 2)


def _assert_matches_oracle(current, previous, block_size, search_range, strategy):
    matcher = BlockMatcher(
        BlockMatchingConfig(
            block_size=block_size, search_range=search_range, strategy=strategy
        )
    )
    field = matcher.estimate(current, previous)
    oracle = scalar_estimate(
        current,
        previous,
        block_size=block_size,
        search_range=search_range,
        three_step=strategy is SearchStrategy.THREE_STEP,
    )
    assert np.array_equal(field.vectors, oracle.vectors)
    assert np.array_equal(field.sad, oracle.sad)


class TestVectorizedEqualsOracle:
    """Property tests: the vectorized searches equal the scalar reference."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        block_size=st.sampled_from([3, 4, 8, 16]),
        search_range=st.sampled_from([0, 1, 2, 5, 7]),
        height=st.integers(8, 48),
        width=st.integers(8, 48),
    )
    def test_tss_on_random_float_frames(self, seed, block_size, search_range, height, width):
        """Float frames, rounded to 8 bits as the denoise stage rounds its
        matching reference, then matched."""
        rng = np.random.default_rng(seed)
        current, previous = (
            np.clip(np.rint(rng.uniform(0, 255, (height, width))), 0, 255).astype(np.uint8)
            for _ in range(2)
        )
        _assert_matches_oracle(
            current, previous, block_size, search_range, SearchStrategy.THREE_STEP
        )

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        block_size=st.sampled_from([3, 4, 8, 16]),
        search_range=st.sampled_from([0, 1, 2, 5, 7]),
        height=st.integers(8, 48),
        width=st.integers(8, 48),
    )
    def test_tss_and_es_on_random_integer_frames(
        self, seed, block_size, search_range, height, width
    ):
        rng = np.random.default_rng(seed)
        current = rng.integers(0, 256, (height, width)).astype(np.uint8)
        previous = rng.integers(0, 256, (height, width)).astype(np.uint8)
        for strategy in SearchStrategy:
            _assert_matches_oracle(current, previous, block_size, search_range, strategy)

    def test_low_texture_ties_match_oracle(self):
        """Flat regions exercise the strict-improvement tie-breaking."""
        rng = np.random.default_rng(7)
        current = np.full((40, 40), 100, dtype=np.uint8)
        current[10:20, 10:20] += rng.integers(0, 3, (10, 10), dtype=np.uint8)
        previous = np.full((40, 40), 100, dtype=np.uint8)
        _assert_matches_oracle(current, previous, 8, 7, SearchStrategy.THREE_STEP)
        _assert_matches_oracle(current, previous, 8, 7, SearchStrategy.EXHAUSTIVE)
