"""Tests for block-matching motion estimation (ES and TSS)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.motion.block_matching import (
    BlockMatcher,
    BlockMatchingConfig,
    SearchStrategy,
    exhaustive_search_ops_per_macroblock,
    three_step_search_ops_per_macroblock,
)
from repro.motion.kernels import KERNEL_BACKENDS


def _textured_frame(rng: np.random.Generator, height: int = 64, width: int = 96) -> np.ndarray:
    """A smooth but textured uint8 frame block matching can lock on to."""
    coarse = rng.uniform(0, 255, (height // 8, width // 8))
    return np.kron(coarse, np.ones((8, 8))).astype(np.uint8)


def _shift(frame: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Shift a frame by (dx, dy) with edge replication."""
    shifted = np.roll(np.roll(frame, dy, axis=0), dx, axis=1)
    return shifted


class TestConfig:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BlockMatchingConfig(block_size=0)
        with pytest.raises(ValueError):
            BlockMatchingConfig(search_range=-1)

    def test_zero_search_range_is_valid(self):
        """d = 0 is the degenerate zero-motion case, not an error."""
        config = BlockMatchingConfig(search_range=0)
        assert config.ops_per_macroblock > 0
        rng = np.random.default_rng(21)
        frame = rng.integers(0, 256, (32, 32)).astype(np.uint8)
        field = BlockMatcher(config).estimate(frame, frame)
        assert field.max_magnitude() == 0.0

    def test_es_ops_formula(self):
        # L^2 * (2d+1)^2 from Sec. 2.3.
        assert exhaustive_search_ops_per_macroblock(16, 7) == 256 * 225

    def test_tss_ops_formula(self):
        # L^2 * (1 + 8 log2(d+1)) -> for d=7: 256 * 25.
        assert three_step_search_ops_per_macroblock(16, 7) == 256 * 25

    def test_tss_is_cheaper_than_es(self):
        config_es = BlockMatchingConfig(strategy=SearchStrategy.EXHAUSTIVE)
        config_tss = BlockMatchingConfig(strategy=SearchStrategy.THREE_STEP)
        assert config_tss.ops_per_macroblock < config_es.ops_per_macroblock
        # The paper quotes an ~8/9 reduction at d = 7.
        ratio = config_tss.ops_per_macroblock / config_es.ops_per_macroblock
        assert ratio == pytest.approx(1.0 / 9.0, rel=0.05)

    def test_ops_per_frame_scales_with_blocks(self):
        config = BlockMatchingConfig()
        assert config.ops_per_frame(64, 48) == 12 * config.ops_per_macroblock


class TestMotionRecovery:
    @pytest.mark.parametrize("strategy", [SearchStrategy.EXHAUSTIVE, SearchStrategy.THREE_STEP])
    @pytest.mark.parametrize("shift", [(0, 0), (3, 2), (-4, 1), (5, -5)])
    def test_recovers_global_translation(self, strategy, shift):
        rng = np.random.default_rng(7)
        previous = _textured_frame(rng)
        dx, dy = shift
        current = _shift(previous, dx, dy)
        matcher = BlockMatcher(BlockMatchingConfig(block_size=16, search_range=7, strategy=strategy))
        field = matcher.estimate(current, previous)
        # Interior blocks (away from the wrap-around edges) must recover the shift.
        interior = field.vectors[1:-1, 1:-1]
        assert np.median(interior[..., 0]) == pytest.approx(dx, abs=1.0)
        assert np.median(interior[..., 1]) == pytest.approx(dy, abs=1.0)

    def test_static_scene_reports_zero_motion(self):
        rng = np.random.default_rng(8)
        frame = _textured_frame(rng)
        matcher = BlockMatcher(BlockMatchingConfig())
        field = matcher.estimate(frame, frame)
        assert field.max_magnitude() == 0.0
        assert np.all(field.sad == 0.0)

    def test_flat_frames_prefer_zero_motion(self):
        flat = np.full((48, 64), 128, dtype=np.uint8)
        matcher = BlockMatcher(BlockMatchingConfig(strategy=SearchStrategy.EXHAUSTIVE))
        field = matcher.estimate(flat, flat)
        assert field.max_magnitude() == 0.0

    def test_motion_beyond_search_range_is_not_recovered(self):
        rng = np.random.default_rng(9)
        previous = _textured_frame(rng)
        current = _shift(previous, 12, 0)  # beyond d = 7
        matcher = BlockMatcher(BlockMatchingConfig(search_range=7))
        field = matcher.estimate(current, previous)
        assert abs(field.mean_motion().u) <= 7.0


def _bump_canvas(height: int, width: int, seed: int, bumps: int = 40) -> np.ndarray:
    """Smooth, self-dissimilar uint8 content block matching can lock on to."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width]
    img = np.zeros((height, width))
    for _ in range(bumps):
        cy, cx = rng.uniform(0, height), rng.uniform(0, width)
        sigma = rng.uniform(10, 25)
        img += rng.uniform(50, 255) * np.exp(
            -(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma * sigma))
        )
    img = (img - img.min()) / (img.max() - img.min()) * 255
    return np.rint(img).astype(np.uint8)


class TestExactShiftRecovery:
    """Known-shift frames where the searches must be *exactly* right.

    The frames are crops of one larger canvas (no wrap-around), so every
    interior macroblock has a perfect (SAD = 0) match at the true
    displacement.  ES must find it for any in-range shift; TSS, being a
    greedy logarithmic descent, is guaranteed exact when the displacement
    lies on its first-step lattice (the SAD = 0 match is evaluated directly
    and strict improvement can never leave it).
    """

    HEIGHT, WIDTH, MARGIN = 96, 128, 16

    def _frame_pair(self, dx: int, dy: int):
        m = self.MARGIN
        canvas = _bump_canvas(self.HEIGHT + 2 * m, self.WIDTH + 2 * m, seed=5)
        previous = canvas[m : m + self.HEIGHT, m : m + self.WIDTH]
        # current[y, x] = previous[y - dy, x - dx]: forward motion (dx, dy).
        current = canvas[m - dy : m - dy + self.HEIGHT, m - dx : m - dx + self.WIDTH]
        return current, previous

    def _assert_exact(self, strategy, dx: int, dy: int):
        current, previous = self._frame_pair(dx, dy)
        matcher = BlockMatcher(
            BlockMatchingConfig(block_size=16, search_range=7, strategy=strategy)
        )
        field = matcher.estimate(current, previous)
        interior = field.vectors[1:-1, 1:-1]
        assert np.all(interior[..., 0] == dx), f"u != {dx} for {strategy}"
        assert np.all(interior[..., 1] == dy), f"v != {dy} for {strategy}"
        assert np.all(field.sad[1:-1, 1:-1] == 0.0)

    @pytest.mark.parametrize("shift", [(0, 0), (3, 2), (-5, 1), (7, -7), (2, -3), (-6, -4)])
    def test_es_recovers_any_in_range_shift_exactly(self, shift):
        self._assert_exact(SearchStrategy.EXHAUSTIVE, *shift)

    @pytest.mark.parametrize(
        "shift", [(0, 0), (4, 0), (0, -4), (-4, 0), (4, 4), (-4, -4), (-4, 4), (4, -4)]
    )
    def test_tss_recovers_step_lattice_shifts_exactly(self, shift):
        self._assert_exact(SearchStrategy.THREE_STEP, *shift)
        # ES must agree on these shifts too.
        self._assert_exact(SearchStrategy.EXHAUSTIVE, *shift)


class TestEstimateInterface:
    def test_shape_mismatch_rejected(self):
        matcher = BlockMatcher()
        with pytest.raises(ValueError, match="shapes differ"):
            matcher.estimate(
                np.zeros((32, 32), dtype=np.uint8), np.zeros((32, 48), dtype=np.uint8)
            )

    def test_non_2d_rejected(self):
        matcher = BlockMatcher()
        frame = np.zeros((32, 32, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="2-D"):
            matcher.estimate(frame, frame)

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    @pytest.mark.parametrize("dtype", [np.float64, np.int32, np.uint16])
    def test_non_uint8_frames_refused(self, backend, dtype):
        """Motion search runs on 8-bit luma; any other frame is refused,
        whether it comes first or second."""
        matcher = BlockMatcher(BlockMatchingConfig(kernel_backend=backend))
        other = np.zeros((32, 32), dtype=dtype)
        luma = np.zeros((32, 32), dtype=np.uint8)
        for pair in ((other, luma), (luma, other), (other, other)):
            with pytest.raises(ValueError, match="uint8"):
                matcher.estimate(*pair)

    def test_non_multiple_frame_size_is_padded(self):
        rng = np.random.default_rng(10)
        frame = rng.integers(0, 256, (50, 70), dtype=np.uint8)
        matcher = BlockMatcher(BlockMatchingConfig(block_size=16))
        field = matcher.estimate(frame, frame)
        assert field.grid.rows == 4
        assert field.grid.cols == 5

    def test_operation_count_tracked(self):
        rng = np.random.default_rng(11)
        frame = _textured_frame(rng)
        config = BlockMatchingConfig(strategy=SearchStrategy.THREE_STEP)
        matcher = BlockMatcher(config)
        matcher.estimate(frame, frame)
        expected = (64 // 16) * (96 // 16) * config.ops_per_macroblock
        assert matcher.last_operation_count == expected

    def test_sad_values_are_non_negative(self):
        rng = np.random.default_rng(12)
        a = rng.integers(0, 256, (48, 64), dtype=np.uint8)
        b = rng.integers(0, 256, (48, 64), dtype=np.uint8)
        matcher = BlockMatcher()
        field = matcher.estimate(a, b)
        assert np.all(field.sad >= 0)

    def test_vectors_stay_within_search_window(self):
        rng = np.random.default_rng(13)
        a = rng.integers(0, 256, (48, 64), dtype=np.uint8)
        b = rng.integers(0, 256, (48, 64), dtype=np.uint8)
        for strategy in SearchStrategy:
            matcher = BlockMatcher(BlockMatchingConfig(search_range=5, strategy=strategy))
            field = matcher.estimate(a, b)
            assert np.all(np.abs(field.vectors) <= 5.0)


class TestESvsTSS:
    def test_tss_sad_never_better_than_es(self):
        """ES is optimal within the window; TSS can only match or do worse."""
        rng = np.random.default_rng(14)
        previous = _textured_frame(rng)
        noisy = _shift(previous, 2, 3) + rng.normal(0, 2.0, previous.shape)
        current = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
        es = BlockMatcher(BlockMatchingConfig(strategy=SearchStrategy.EXHAUSTIVE))
        tss = BlockMatcher(BlockMatchingConfig(strategy=SearchStrategy.THREE_STEP))
        es_field = es.estimate(current, previous)
        tss_field = tss.estimate(current, previous)
        assert es_field.sad.sum() <= tss_field.sad.sum() + 1e-6

    def test_es_and_tss_agree_on_clean_translation(self):
        rng = np.random.default_rng(15)
        previous = _textured_frame(rng)
        current = _shift(previous, 4, 1)
        es = BlockMatcher(BlockMatchingConfig(strategy=SearchStrategy.EXHAUSTIVE))
        tss = BlockMatcher(BlockMatchingConfig(strategy=SearchStrategy.THREE_STEP))
        es_field = es.estimate(current, previous)
        tss_field = tss.estimate(current, previous)
        interior_es = es_field.vectors[1:-1, 1:-1]
        interior_tss = tss_field.vectors[1:-1, 1:-1]
        agreement = np.mean(np.all(interior_es == interior_tss, axis=-1))
        assert agreement > 0.8
