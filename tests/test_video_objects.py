"""Tests for moving objects and their rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.video.objects import MovingObject, make_textured_part, _resize_nearest
from repro.video.trajectories import LinearTrajectory


def _simple_object(**overrides) -> MovingObject:
    rng = np.random.default_rng(5)
    part = make_textured_part(rng, width=20.0, height=16.0)
    defaults = dict(
        object_id=0,
        label="car",
        trajectory=LinearTrajectory(40.0, 30.0, 2.0, 1.0),
        parts=[part],
    )
    defaults.update(overrides)
    return MovingObject(**defaults)


class TestMovingObjectGeometry:
    def test_center_follows_trajectory(self):
        obj = _simple_object()
        assert obj.center_at(0) == (40.0, 30.0)
        assert obj.center_at(5) == (50.0, 35.0)

    def test_bounding_box_size_matches_part(self):
        obj = _simple_object()
        box = obj.bounding_box(0)
        assert box.width == pytest.approx(20.0)
        assert box.height == pytest.approx(16.0)
        assert box.center.x == pytest.approx(40.0)

    def test_scale_rate_grows_box(self):
        obj = _simple_object(scale_rate=1.01)
        early = obj.bounding_box(0)
        late = obj.bounding_box(30)
        assert late.width > early.width

    def test_scale_is_clamped(self):
        obj = _simple_object(scale_rate=1.1)
        assert obj.scale_at(1000) <= 4.0
        shrinking = _simple_object(scale_rate=0.9)
        assert shrinking.scale_at(1000) >= 0.25

    def test_multi_part_bounding_box_covers_all_parts(self):
        rng = np.random.default_rng(6)
        torso = make_textured_part(rng, 12, 20)
        limb = make_textured_part(rng, 6, 10, offset_x=-10.0)
        obj = _simple_object(parts=[torso, limb])
        box = obj.bounding_box(0)
        for part_box in obj.part_boxes(0):
            assert box.left <= part_box.left and part_box.right <= box.right
            assert box.top <= part_box.top and part_box.bottom <= box.bottom


class TestGroundTruth:
    def test_ground_truth_is_clipped_to_frame(self):
        obj = _simple_object(trajectory=LinearTrajectory(5.0, 5.0, 0.0, 0.0))
        box = obj.ground_truth_box(0, frame_width=100, frame_height=60)
        assert box is not None
        assert box.left >= 0.0 and box.top >= 0.0

    def test_out_of_view_interval_returns_none(self):
        obj = _simple_object(out_of_view_intervals=((3, 6),))
        assert obj.ground_truth_box(4, 100, 60) is None
        assert obj.ground_truth_box(6, 100, 60) is not None

    def test_object_fully_outside_frame_returns_none(self):
        obj = _simple_object(trajectory=LinearTrajectory(-100.0, -100.0, 0.0, 0.0))
        assert obj.ground_truth_box(0, 100, 60) is None

    def test_occlusion_flag(self):
        obj = _simple_object(occluded_intervals=((2, 4),))
        assert not obj.is_occluded(1)
        assert obj.is_occluded(2)
        assert obj.is_occluded(3)
        assert not obj.is_occluded(4)


class TestRendering:
    def test_render_changes_canvas_inside_box(self):
        obj = _simple_object()
        canvas = np.zeros((60, 100))
        obj.render_into(canvas, 0)
        box = obj.bounding_box(0).clip(100, 60)
        region = canvas[
            int(box.top) + 1 : int(box.bottom) - 1, int(box.left) + 1 : int(box.right) - 1
        ]
        assert region.mean() > 50.0
        # Pixels far away from the object are untouched.
        assert canvas[0, 0] == 0.0

    def test_render_skips_out_of_view(self):
        obj = _simple_object(out_of_view_intervals=((0, 5),))
        canvas = np.zeros((60, 100))
        obj.render_into(canvas, 1)
        assert canvas.sum() == 0.0

    def test_render_partial_off_frame_does_not_crash(self):
        obj = _simple_object(trajectory=LinearTrajectory(95.0, 55.0, 0.0, 0.0))
        canvas = np.zeros((60, 100))
        obj.render_into(canvas, 0)
        assert np.isfinite(canvas).all()

    def test_occluder_flattens_lower_half(self):
        obj = _simple_object(occluded_intervals=((0, 1),))
        canvas = np.zeros((60, 100))
        obj.render_into(canvas, 0)
        box = obj.bounding_box(0)
        lower = canvas[
            int(box.top + 0.6 * box.height) : int(box.bottom) - 1,
            int(box.left) + 1 : int(box.right) - 1,
        ]
        assert np.all(lower == 128.0)

    def test_illumination_scales_brightness(self):
        obj = _simple_object()
        bright = np.zeros((60, 100))
        dim = np.zeros((60, 100))
        obj.render_into(bright, 0, illumination=1.0)
        obj.render_into(dim, 0, illumination=0.5)
        assert dim.sum() < bright.sum()


class TestTextureHelpers:
    def test_make_textured_part_range(self):
        rng = np.random.default_rng(1)
        part = make_textured_part(rng, 16, 16, base_intensity=200.0, contrast=40.0)
        assert part.texture.min() >= 0.0
        assert part.texture.max() <= 255.0
        assert part.texture.std() > 1.0  # has structure, not flat

    def test_resize_nearest_shapes(self):
        texture = np.arange(16, dtype=float).reshape(4, 4)
        resized = _resize_nearest(texture, 8, 2)
        assert resized.shape == (8, 2)
        down = _resize_nearest(texture, 2, 2)
        assert down.shape == (2, 2)

    def test_part_local_offset_oscillates(self):
        rng = np.random.default_rng(2)
        part = make_textured_part(rng, 10, 10, sway_amplitude=4.0, sway_period=8.0)
        offsets = {round(part.local_offset(t)[0], 6) for t in range(8)}
        assert len(offsets) > 1
