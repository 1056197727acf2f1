"""Tests for the macroblock grid and motion field (Eq. 1 / Eq. 2 queries)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.geometry import BoundingBox, MotionVector
from repro.motion.motion_field import MacroblockGrid, MotionField


class TestMacroblockGrid:
    def test_grid_dimensions(self, simple_grid):
        assert simple_grid.cols == 4
        assert simple_grid.rows == 3
        assert simple_grid.num_blocks == 12

    def test_partial_blocks_count(self):
        grid = MacroblockGrid(frame_width=70, frame_height=50, block_size=16)
        assert grid.cols == 5  # 70/16 -> 4.375 -> 5
        assert grid.rows == 4

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            MacroblockGrid(64, 48, 0)
        with pytest.raises(ValueError):
            MacroblockGrid(0, 48, 16)

    def test_block_index_for_pixel(self, simple_grid):
        assert simple_grid.block_index_for_pixel(0, 0) == (0, 0)
        assert simple_grid.block_index_for_pixel(17, 33) == (2, 1)

    def test_block_index_clamps_out_of_frame(self, simple_grid):
        assert simple_grid.block_index_for_pixel(-10, -10) == (0, 0)
        assert simple_grid.block_index_for_pixel(1000, 1000) == (2, 3)

    def test_blocks_overlapping_roi(self, simple_grid):
        rows, cols = simple_grid.blocks_overlapping(BoundingBox(10, 10, 20, 20))
        assert (rows.start, rows.stop) == (0, 2)
        assert (cols.start, cols.stop) == (0, 2)

    def test_blocks_overlapping_exact_boundary(self, simple_grid):
        rows, cols = simple_grid.blocks_overlapping(BoundingBox(0, 0, 16, 16))
        assert (rows.start, rows.stop) == (0, 1)
        assert (cols.start, cols.stop) == (0, 1)

    def test_blocks_overlapping_fully_outside_falls_back(self, simple_grid):
        rows, cols = simple_grid.blocks_overlapping(BoundingBox(500, 500, 10, 10))
        assert rows.stop - rows.start == 1
        assert cols.stop - cols.start == 1


class TestMotionFieldConstruction:
    def test_shape_validation(self, simple_grid):
        with pytest.raises(ValueError):
            MotionField(np.zeros((3, 4)), np.zeros((3, 4)), simple_grid)
        with pytest.raises(ValueError):
            MotionField(np.zeros((2, 4, 2)), np.zeros((2, 4)), simple_grid)
        with pytest.raises(ValueError):
            MotionField(np.zeros((3, 4, 2)), np.zeros((2, 4)), simple_grid)

    def test_negative_sad_rejected(self, simple_grid):
        sad = np.zeros((3, 4))
        sad[0, 0] = -1
        with pytest.raises(ValueError):
            MotionField(np.zeros((3, 4, 2)), sad, simple_grid)

    def test_zero_factory(self, simple_grid):
        field = MotionField.zero(simple_grid)
        assert field.mean_motion() == MotionVector(0.0, 0.0)
        assert field.max_magnitude() == 0.0

    def test_uniform_factory(self, simple_grid):
        field = MotionField.uniform(simple_grid, MotionVector(3.0, -1.0), sad_value=10.0)
        assert field.mean_motion() == MotionVector(3.0, -1.0)
        assert np.all(field.sad == 10.0)


class TestConfidence:
    def test_zero_sad_gives_full_confidence(self, uniform_motion_field):
        assert np.all(uniform_motion_field.confidence() == 1.0)

    def test_max_sad_gives_zero_confidence(self, simple_grid):
        sad = np.full((3, 4), 255.0 * 16 * 16)
        field = MotionField(np.zeros((3, 4, 2)), sad, simple_grid)
        assert np.all(field.confidence() == 0.0)

    def test_confidence_matches_equation2(self, simple_grid):
        sad_value = 0.25 * 255.0 * 16 * 16
        field = MotionField(np.zeros((3, 4, 2)), np.full((3, 4), sad_value), simple_grid)
        assert field.confidence()[0, 0] == pytest.approx(0.75)


class TestRoiQueries:
    def test_roi_average_uniform(self, uniform_motion_field):
        roi = BoundingBox(5, 5, 30, 30)
        motion = uniform_motion_field.roi_statistics(roi)[0]
        assert motion.u == pytest.approx(2.0)
        assert motion.v == pytest.approx(1.0)

    def test_roi_average_is_area_weighted(self, simple_grid):
        vectors = np.zeros((3, 4, 2))
        vectors[0, 0] = (4.0, 0.0)
        vectors[0, 1] = (0.0, 0.0)
        field = MotionField(vectors, np.zeros((3, 4)), simple_grid)
        # ROI covers 3/4 of block (0,0) horizontally and 1/4 of block (0,1).
        roi = BoundingBox(4, 0, 16, 16)
        motion = field.roi_statistics(roi)[0]
        assert motion.u == pytest.approx(4.0 * 0.75)

    def test_roi_outside_frame_returns_finite(self, uniform_motion_field):
        roi = BoundingBox(1000, 1000, 10, 10)
        motion = uniform_motion_field.roi_statistics(roi)[0]
        assert np.isfinite(motion.u) and np.isfinite(motion.v)

    def test_roi_confidence_uniform(self, uniform_motion_field, sample_box):
        assert uniform_motion_field.roi_statistics(sample_box)[1] == pytest.approx(1.0)

    def test_roi_confidence_mixed(self, simple_grid):
        sad = np.zeros((3, 4))
        sad[0, 0] = 255.0 * 256  # zero confidence block
        field = MotionField(np.zeros((3, 4, 2)), sad, simple_grid)
        roi = BoundingBox(0, 0, 32, 16)  # half over the bad block
        assert field.roi_statistics(roi)[1] == pytest.approx(0.5)


class TestMetadataAccounting:
    def test_bits_per_vector_at_d7(self, uniform_motion_field):
        # ceil(log2(15)) = 4 bits per direction -> 8 bits per MV.
        assert uniform_motion_field.bits_per_vector() == 8

    def test_metadata_bytes(self, uniform_motion_field):
        # 12 macroblocks x (1 MV byte + 1 confidence byte).
        assert uniform_motion_field.metadata_bytes() == 24

    def test_1080p_metadata_is_about_16kb(self):
        grid = MacroblockGrid(1920, 1080, 16)
        field = MotionField.zero(grid)
        assert 8_000 <= field.metadata_bytes() <= 20_000


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
@given(
    u=st.floats(-7, 7, allow_nan=False),
    v=st.floats(-7, 7, allow_nan=False),
    x=st.floats(0, 60, allow_nan=False),
    y=st.floats(0, 44, allow_nan=False),
    w=st.floats(1, 40, allow_nan=False),
    h=st.floats(1, 40, allow_nan=False),
)
def test_uniform_field_average_equals_field_motion(u, v, x, y, w, h):
    grid = MacroblockGrid(64, 48, 16)
    field = MotionField.uniform(grid, MotionVector(u, v))
    motion = field.roi_statistics(BoundingBox(x, y, w, h))[0]
    assert motion.u == pytest.approx(u, abs=1e-9)
    assert motion.v == pytest.approx(v, abs=1e-9)


@given(sad_scale=st.floats(0, 1, allow_nan=False))
def test_confidence_always_within_unit_interval(sad_scale):
    grid = MacroblockGrid(64, 48, 16)
    sad = np.full((grid.rows, grid.cols), sad_scale * 255.0 * 256)
    field = MotionField(np.zeros((grid.rows, grid.cols, 2)), sad, grid)
    confidence = field.confidence()
    assert np.all(confidence >= 0.0)
    assert np.all(confidence <= 1.0)
    confidence = field.roi_statistics(BoundingBox(3, 3, 30, 20))[1]
    assert 0.0 <= confidence <= 1.0
