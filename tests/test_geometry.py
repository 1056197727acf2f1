"""Unit and property-based tests for the geometric primitives."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.geometry import BoundingBox, MotionVector, Point, mean_iou


# ----------------------------------------------------------------------
# Point and MotionVector
# ----------------------------------------------------------------------
class TestPoint:
    def test_translate(self):
        assert Point(1.0, 2.0).translate(3.0, -1.0) == Point(4.0, 1.0)

    def test_distance(self):
        assert Point(0.0, 0.0).distance_to(Point(3.0, 4.0)) == pytest.approx(5.0)

    def test_as_tuple(self):
        assert Point(1.5, 2.5).as_tuple() == (1.5, 2.5)


class TestMotionVector:
    def test_magnitude(self):
        assert MotionVector(3.0, 4.0).magnitude() == pytest.approx(5.0)

    def test_addition_and_subtraction(self):
        a = MotionVector(1.0, 2.0)
        b = MotionVector(0.5, -1.0)
        assert (a + b) == MotionVector(1.5, 1.0)
        assert (a - b) == MotionVector(0.5, 3.0)

    def test_scale(self):
        assert MotionVector(2.0, -4.0).scale(0.5) == MotionVector(1.0, -2.0)

    def test_blend_full_weight_returns_self(self):
        current = MotionVector(2.0, 2.0)
        previous = MotionVector(-10.0, 5.0)
        assert current.blend(previous, 1.0) == current

    def test_blend_zero_weight_returns_other(self):
        current = MotionVector(2.0, 2.0)
        previous = MotionVector(-10.0, 5.0)
        assert current.blend(previous, 0.0) == previous

    def test_blend_midpoint(self):
        blended = MotionVector(2.0, 0.0).blend(MotionVector(0.0, 2.0), 0.5)
        assert blended.u == pytest.approx(1.0)
        assert blended.v == pytest.approx(1.0)


# ----------------------------------------------------------------------
# BoundingBox basics
# ----------------------------------------------------------------------
class TestBoundingBoxConstruction:
    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, -1, 5)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 5, -1)

    def test_from_corners_any_order(self):
        box = BoundingBox.from_corners(10, 20, 4, 6)
        assert box.as_xywh() == (4, 6, 6, 14)

    def test_from_center(self):
        box = BoundingBox.from_center(10, 10, 4, 6)
        assert box.as_corners() == (8, 7, 12, 13)

    def test_union_of_requires_boxes(self):
        with pytest.raises(ValueError):
            BoundingBox.union_of([])

    def test_union_of_covers_all(self):
        a = BoundingBox(0, 0, 2, 2)
        b = BoundingBox(5, 5, 2, 2)
        union = BoundingBox.union_of([a, b])
        assert union.as_corners() == (0, 0, 7, 7)


class TestBoundingBoxProperties:
    def test_area_and_center(self, sample_box):
        assert sample_box.area == 24.0 * 16.0
        assert sample_box.center == Point(22.0, 16.0)

    def test_is_empty(self):
        assert BoundingBox(0, 0, 0, 5).is_empty()
        assert not BoundingBox(0, 0, 1, 5).is_empty()


class TestBoundingBoxSetOperations:
    def test_intersection_overlapping(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 5, 10, 10)
        inter = a.intersection(b)
        assert inter.as_xywh() == (5, 5, 5, 5)

    def test_intersection_disjoint_is_empty(self):
        a = BoundingBox(0, 0, 4, 4)
        b = BoundingBox(10, 10, 4, 4)
        assert a.intersection(b).is_empty()

    def test_iou_identical(self, sample_box):
        assert sample_box.iou(sample_box) == pytest.approx(1.0)

    def test_iou_disjoint(self):
        assert BoundingBox(0, 0, 4, 4).iou(BoundingBox(10, 10, 4, 4)) == 0.0

    def test_iou_half_overlap(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 0, 10, 10)
        assert a.iou(b) == pytest.approx(50.0 / 150.0)

    def test_contains(self):
        outer = BoundingBox(0, 0, 10, 10)
        assert outer.contains_point(Point(5, 5))
        assert not outer.contains_point(Point(15, 5))


class TestBoundingBoxTransforms:
    def test_translate_and_shift(self, sample_box):
        moved = sample_box.translate(2.0, -3.0)
        assert moved.as_xywh() == (12.0, 5.0, 24.0, 16.0)
        shifted = sample_box.shift(MotionVector(2.0, -3.0))
        assert shifted == moved

    def test_scale_preserves_center(self, sample_box):
        scaled = sample_box.scale(2.0)
        assert scaled.center == sample_box.center
        assert scaled.width == pytest.approx(sample_box.width * 2)

    def test_clip(self):
        box = BoundingBox(-5, -5, 20, 20)
        clipped = box.clip(10, 10)
        assert clipped.as_corners() == (0, 0, 10, 10)

    def test_round(self):
        box = BoundingBox(1.4, 2.6, 3.5, 4.4)
        assert box.round().as_xywh() == (1.0, 3.0, 4.0, 4.0)

    def test_split_grid_covers_box(self, sample_box):
        cells = sample_box.split(2, 3)
        assert len(cells) == 6
        union = BoundingBox.union_of(cells)
        assert union.left == pytest.approx(sample_box.left)
        assert union.bottom == pytest.approx(sample_box.bottom)
        assert sum(cell.area for cell in cells) == pytest.approx(sample_box.area)

    def test_split_rejects_bad_grid(self, sample_box):
        with pytest.raises(ValueError):
            sample_box.split(0, 2)


def test_mean_iou_empty_is_zero():
    assert mean_iou([]) == 0.0


def test_mean_iou_averages():
    a = BoundingBox(0, 0, 10, 10)
    pairs = [(a, a), (a, BoundingBox(100, 100, 10, 10))]
    assert mean_iou(pairs) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
finite_coord = st.floats(min_value=-500, max_value=500, allow_nan=False, allow_infinity=False)
positive_size = st.floats(min_value=0.1, max_value=300, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    return BoundingBox(draw(finite_coord), draw(finite_coord), draw(positive_size), draw(positive_size))


@given(boxes(), boxes())
def test_iou_is_symmetric(a, b):
    assert a.iou(b) == pytest.approx(b.iou(a), abs=1e-9)


@given(boxes(), boxes())
def test_iou_bounded(a, b):
    iou = a.iou(b)
    assert 0.0 <= iou <= 1.0 + 1e-9


@given(boxes())
def test_iou_with_self_is_one(box):
    assert box.iou(box) == pytest.approx(1.0)


@given(boxes(), finite_coord, finite_coord)
def test_translation_preserves_iou_with_translated(box, dx, dy):
    moved = box.translate(dx, dy)
    assert moved.width == pytest.approx(box.width)
    assert moved.height == pytest.approx(box.height)
    assert moved.translate(-dx, -dy).iou(box) == pytest.approx(1.0, abs=1e-6)


@given(boxes(), boxes())
def test_union_contains_both(a, b):
    union = a.union(b)
    assert union.area >= max(a.area, b.area) - 1e-6
    assert union.left <= min(a.left, b.left) + 1e-9
    assert union.right >= max(a.right, b.right) - 1e-9


@given(boxes(), boxes())
def test_intersection_no_larger_than_either(a, b):
    inter = a.intersection(b)
    assert inter.area <= a.area + 1e-9
    assert inter.area <= b.area + 1e-9


@given(boxes(), st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_split_preserves_area(box, rows, cols):
    cells = box.split(rows, cols)
    assert len(cells) == rows * cols
    assert sum(cell.area for cell in cells) == pytest.approx(box.area, rel=1e-9, abs=1e-9)
