"""Tests for the SAD matching metric."""

from __future__ import annotations

import numpy as np
import pytest

from repro.motion import sum_of_absolute_differences


class TestSAD:
    def test_identical_blocks_have_zero_sad(self):
        block = np.full((8, 8), 120.0)
        assert sum_of_absolute_differences(block, block) == 0.0

    def test_known_difference(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 3.0)
        assert sum_of_absolute_differences(a, b) == 48.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sum_of_absolute_differences(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 255, (8, 8))
        b = rng.uniform(0, 255, (8, 8))
        assert sum_of_absolute_differences(a, b) == pytest.approx(
            sum_of_absolute_differences(b, a)
        )
