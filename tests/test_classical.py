"""Tests for the classical pixel-domain baselines (NCC tracker, frame-diff)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.geometry import BoundingBox
from repro.nn.classical import (
    FrameDifferenceConfig,
    FrameDifferenceDetector,
    NCCTemplateTracker,
    NCCTrackerConfig,
    _normalised_cross_correlation,
)


def _scene_with_square(x: int, y: int, size: int = 20, frame=(80, 120)) -> np.ndarray:
    rng = np.random.default_rng(42)
    background = rng.uniform(40, 60, frame)
    patch = rng.uniform(150, 220, (size, size))
    frame_img = background.copy()
    frame_img[y : y + size, x : x + size] = patch
    return frame_img


class TestNCC:
    def test_correlation_of_identical_patches_is_one(self):
        rng = np.random.default_rng(0)
        patch = rng.uniform(0, 255, (16, 16))
        assert _normalised_cross_correlation(patch, patch) == pytest.approx(1.0)

    def test_correlation_of_inverted_patch_is_negative(self):
        rng = np.random.default_rng(1)
        patch = rng.uniform(0, 255, (16, 16))
        assert _normalised_cross_correlation(patch, 255.0 - patch) < 0.0

    def test_flat_patch_returns_zero(self):
        flat = np.full((8, 8), 10.0)
        assert _normalised_cross_correlation(flat, flat) == 0.0


class TestNCCTemplateTracker:
    def test_requires_initialization(self):
        tracker = NCCTemplateTracker()
        with pytest.raises(RuntimeError):
            tracker.track(np.zeros((50, 50)))

    def test_tracks_translating_square(self):
        tracker = NCCTemplateTracker(NCCTrackerConfig(search_radius=8))
        first = _scene_with_square(30, 20)
        box = BoundingBox(30, 20, 20, 20)
        tracker.initialize(first, box)
        assert tracker.is_initialized
        ious = []
        for step in range(1, 6):
            frame = _scene_with_square(30 + 3 * step, 20 + 2 * step)
            result = tracker.track(frame)
            truth = BoundingBox(30 + 3 * step, 20 + 2 * step, 20, 20)
            ious.append(result.box.iou(truth))
        assert np.mean(ious) > 0.6

    def test_static_target_stays_put(self):
        tracker = NCCTemplateTracker()
        frame = _scene_with_square(40, 30)
        box = BoundingBox(40, 30, 20, 20)
        tracker.initialize(frame, box)
        result = tracker.track(frame)
        assert result.box.iou(box) > 0.9

    def test_template_outlives_its_frame_buffer(self):
        """The ISP recycles committed frames; the template must not alias one."""
        tracker = NCCTemplateTracker(NCCTrackerConfig(template_update_rate=0))
        frame = _scene_with_square(40, 30)
        scene = frame.copy()
        box = BoundingBox(40, 30, 20, 20)
        tracker.initialize(frame, box)
        frame[:] = 0.0  # the buffer is overwritten by a later frame
        assert tracker.track(scene).box.iou(box) > 0.9

    def test_result_stays_inside_frame(self):
        tracker = NCCTemplateTracker(NCCTrackerConfig(search_radius=10))
        frame = _scene_with_square(95, 55, size=20)
        box = BoundingBox(95, 55, 20, 20)
        tracker.initialize(frame, box)
        result = tracker.track(_scene_with_square(99, 59, size=20))
        assert result.box.right <= 120 + 1e-6
        assert result.box.bottom <= 80 + 1e-6


class TestFrameDifferenceDetector:
    def test_first_frame_yields_nothing(self):
        detector = FrameDifferenceDetector()
        assert detector.detect(_scene_with_square(10, 10)) == []

    def test_detects_moving_square(self):
        detector = FrameDifferenceDetector(FrameDifferenceConfig(min_area=20))
        detector.detect(_scene_with_square(20, 20))
        detections = detector.detect(_scene_with_square(32, 24))
        assert detections
        truth = BoundingBox(20, 20, 32, 24)  # union of the two positions roughly
        best = max(detections, key=lambda d: d.box.iou(truth))
        assert best.box.iou(truth) > 0.2

    def test_static_scene_produces_no_detections(self):
        detector = FrameDifferenceDetector()
        frame = _scene_with_square(20, 20)
        detector.detect(frame)
        assert detector.detect(frame.copy()) == []

    def test_min_area_filters_small_blobs(self):
        permissive = FrameDifferenceDetector(FrameDifferenceConfig(min_area=1))
        strict = FrameDifferenceDetector(FrameDifferenceConfig(min_area=100000))
        first = _scene_with_square(20, 20)
        second = _scene_with_square(26, 22)
        permissive.detect(first)
        strict.detect(first)
        assert len(permissive.detect(second)) >= len(strict.detect(second))

    def test_reset_forgets_reference(self):
        detector = FrameDifferenceDetector()
        detector.detect(_scene_with_square(20, 20))
        detector.reset()
        assert detector.detect(_scene_with_square(40, 30)) == []
