"""Tests for the inference backends driven by the pipeline on I-frames."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import (
    CNNDetectionBackend,
    CNNTrackingBackend,
    NCCTrackingBackend,
    detection_backend_for,
    tracking_backend_for,
)
from repro.core.geometry import BoundingBox
from repro.core.types import Detection


class TestFactories:
    def test_detection_factory(self):
        yolo = detection_backend_for("yolov2")
        tiny = detection_backend_for("Tiny-YOLO")
        assert yolo.network.name == "YOLOv2"
        assert tiny.network.name == "TinyYOLO"
        with pytest.raises(KeyError):
            detection_backend_for("ssd")

    def test_tracking_factory(self):
        mdnet = tracking_backend_for("mdnet")
        ncc = tracking_backend_for("ncc")
        assert mdnet.network.name == "MDNet"
        assert ncc.name == "NCC"
        with pytest.raises(KeyError):
            tracking_backend_for("kcf")


class TestDetectionBackend:
    def test_requires_start_sequence(self, multi_object_sequence):
        backend = CNNDetectionBackend()
        with pytest.raises(RuntimeError, match="start must be called"):
            backend.infer(
                0,
                multi_object_sequence.frame(0),
                multi_object_sequence.truth_detections(0),
            )

    def test_detections_cover_ground_truth(self, multi_object_sequence):
        sequence = multi_object_sequence
        backend = CNNDetectionBackend(seed=3)
        backend.start(sequence.name, sequence.width, sequence.height)
        detections = backend.infer(0, sequence.frame(0), sequence.truth_detections(0))
        truth = multi_object_sequence.truth_at(0)
        matched = 0
        for object_id, box in truth.items():
            if any(d.object_id == object_id and d.box.iou(box) > 0.4 for d in detections):
                matched += 1
        assert matched >= len(truth) - 1  # the profile allows occasional misses

    def test_name_follows_network(self):
        assert CNNDetectionBackend().name == "YOLOv2"


class TestTrackingBackend:
    def test_tracks_primary_object(self, small_sequence):
        backend = CNNTrackingBackend(seed=2)
        backend.start(small_sequence.name, small_sequence.width, small_sequence.height)
        truth = small_sequence.truth_for(small_sequence.primary_object_id)[5]
        detections = backend.infer(
            5, small_sequence.frame(5), small_sequence.truth_detections(5)
        )
        assert len(detections) == 1
        assert detections[0].box.iou(truth) > 0.5
        assert detections[0].object_id == small_sequence.primary_object_id

    def test_follows_the_first_annotated_object(self):
        backend = CNNTrackingBackend(seed=2)
        backend.start("cam", 64, 48)
        first = [
            Detection(box=BoundingBox(30, 20, 8, 8), label="car", object_id=7),
            Detection(box=BoundingBox(4, 4, 8, 8), label="person", object_id=2),
        ]
        luma = np.zeros((48, 64))
        (tracked,) = backend.infer(0, luma, first)
        assert (tracked.object_id, tracked.label) == (7, "car")
        # Later I-frames keep the target even when another object leads.
        (tracked,) = backend.infer(2, luma, first[::-1])
        assert tracked.object_id == 7
        assert tracked.box.iou(first[0].box) > 0.5

    def test_requires_start_sequence(self, small_sequence):
        backend = CNNTrackingBackend()
        with pytest.raises(RuntimeError, match="start must be called"):
            backend.infer(0, small_sequence.frame(0), small_sequence.truth_detections(0))


class TestNCCBackend:
    def test_tracks_on_real_pixels(self, small_sequence):
        backend = NCCTrackingBackend()
        backend.start(small_sequence.name, small_sequence.width, small_sequence.height)
        ious = []
        # Frame 0 is the first I-frame: its truth names the target and its
        # pixels give the template.  Later frames get no truth to lean on.
        for frame_index in range(8):
            truth = small_sequence.truth_for(small_sequence.primary_object_id)[frame_index]
            detections = backend.infer(
                frame_index,
                small_sequence.frame(frame_index),
                small_sequence.truth_detections(0) if frame_index == 0 else [],
            )
            assert detections[0].object_id == small_sequence.primary_object_id
            ious.append(detections[0].box.iou(truth))
        assert ious[0] > 0.9
        assert np.mean(ious[1:]) > 0.4

    def test_requires_start_sequence(self, small_sequence):
        backend = NCCTrackingBackend()
        with pytest.raises(RuntimeError, match="start must be called"):
            backend.infer(0, small_sequence.frame(0), small_sequence.truth_detections(0))

    def test_name(self):
        assert NCCTrackingBackend().name == "NCC"
