"""Tests for the shared detection / frame-result types."""

from __future__ import annotations

import pickle

import pytest

from repro.core.geometry import BoundingBox
from repro.core.types import (
    Detection,
    FrameKind,
    FrameResult,
    FrameTelemetry,
    SequenceResult,
    merge_sequence_results,
)


@pytest.fixture
def detections():
    return [
        Detection(box=BoundingBox(0, 0, 10, 10), label="car", score=0.9, object_id=1),
        Detection(box=BoundingBox(20, 20, 8, 8), label="person", score=0.7, object_id=2),
    ]


class TestDetection:
    def test_with_box_keeps_metadata(self, detections):
        new_box = BoundingBox(5, 5, 10, 10)
        updated = detections[0].with_box(new_box)
        assert updated.box == new_box
        assert updated.label == "car"
        assert updated.object_id == 1
        assert not updated.extrapolated

    def test_as_extrapolated_sets_flag(self, detections):
        new_box = BoundingBox(5, 5, 10, 10)
        extrapolated = detections[0].as_extrapolated(new_box)
        assert extrapolated.extrapolated
        assert extrapolated.box == new_box

    def test_detection_is_frozen(self, detections):
        with pytest.raises(AttributeError):
            detections[0].score = 0.1


class TestSlots:
    """The per-frame result types carry no ``__dict__`` (a sweep keeps every
    frame's result) and still cross process boundaries by pickle."""

    @pytest.mark.parametrize(
        "value",
        [
            BoundingBox(1.5, 2.0, 3.0, 4.0),
            Detection(box=BoundingBox(0, 0, 10, 10), label="car", object_id=3),
            FrameResult(
                7, FrameKind.EXTRAPOLATION, [Detection(box=BoundingBox(1, 2, 3, 4))], 0.5, 2
            ),
            FrameTelemetry(7, FrameKind.INFERENCE, pixels=20736, motion_ops=3.0, total_s=0.01),
        ],
        ids=lambda value: type(value).__name__,
    )
    def test_pickle_round_trip_without_dict(self, value):
        assert not hasattr(value, "__dict__")
        assert pickle.loads(pickle.dumps(value)) == value


class TestFrameResult:
    def test_kind_predicates(self, detections):
        inference = FrameResult(0, FrameKind.INFERENCE, detections)
        extrapolated = FrameResult(1, FrameKind.EXTRAPOLATION, detections)
        assert inference.is_inference and not inference.is_extrapolated
        assert extrapolated.is_extrapolated and not extrapolated.is_inference

    def test_boxes(self, detections):
        result = FrameResult(0, FrameKind.INFERENCE, detections)
        assert result.boxes() == [d.box for d in detections]

    def test_best_for_picks_highest_iou(self, detections):
        result = FrameResult(0, FrameKind.INFERENCE, detections)
        truth = BoundingBox(19, 19, 8, 8)
        best = result.best_for(truth)
        assert best is detections[1]

    def test_best_for_empty_returns_none(self):
        result = FrameResult(0, FrameKind.INFERENCE, [])
        assert result.best_for(BoundingBox(0, 0, 5, 5)) is None


class TestSequenceResult:
    def _make(self):
        frames = [
            FrameResult(0, FrameKind.INFERENCE, []),
            FrameResult(1, FrameKind.EXTRAPOLATION, []),
            FrameResult(2, FrameKind.EXTRAPOLATION, []),
            FrameResult(3, FrameKind.INFERENCE, []),
        ]
        return SequenceResult(sequence_name="seq", frames=frames)

    def test_counts(self):
        result = self._make()
        assert len(result) == 4
        assert result.inference_count == 2
        assert result.extrapolation_count == 2
        assert result.inference_rate == pytest.approx(0.5)

    def test_empty_inference_rate(self):
        assert SequenceResult("empty").inference_rate == 0.0

    def test_iteration(self):
        result = self._make()
        assert [f.frame_index for f in result] == [0, 1, 2, 3]

    def test_merge(self):
        a = self._make()
        b = self._make()
        merged = merge_sequence_results([a, b])
        assert len(merged) == 8
